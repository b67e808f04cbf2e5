"""Exact LP seminorms, duality, volumes, and the integral search."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multicomplex.core import MulticomplexError, special_sphere
from multicomplex.chains import (
    RING_INT,
    RING_RAT,
    AlgebraicSimplex,
    Chain,
    alternate,
    build_full_chain_complex,
    build_reduced_chain_complex,
    fundamental_cycle,
    project_chain,
)
from multicomplex.exactlp import LPResult, SimplexFailure, solve
from multicomplex.fixtures import (
    cone_over_double_edge,
    seven_vertex_torus,
    tetrahedron_boundary,
    triangle_boundary,
)
from multicomplex.seminorm import (
    dual_check,
    integral_seminorm_bruteforce,
    seminorm_l1,
    simplicial_volume,
)


def _circle_loop(cc):
    return cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1,
                        AlgebraicSimplex("y,z", ("y", "z")): 1,
                        AlgebraicSimplex("x,z", ("x", "z")): -1})


def test_circle_seminorm_is_three_with_unit_dual():
    cc = build_reduced_chain_complex(triangle_boundary())
    res = seminorm_l1(cc, _circle_loop(cc))
    assert res.value == 3
    assert res.optimal_representative.l1_norm() == 3
    phi = res.dual_certificate
    assert phi.linf_norm() == 1
    assert all(abs(v) == 1 for _, v in phi.items())
    assert phi.pairing(res.optimal_representative) == 3
    assert dual_check(res, _circle_loop(cc))


def test_seminorm_rejects_non_cycles():
    cc = build_reduced_chain_complex(triangle_boundary())
    e = cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1})
    with pytest.raises(MulticomplexError):
        seminorm_l1(cc, e)


def test_seminorm_in_a_degree_without_simplices_is_zero():
    cc = build_reduced_chain_complex(triangle_boundary())
    res = seminorm_l1(cc, Chain(2, RING_RAT, {}))
    assert res.value == 0 and isinstance(res.value, Fraction)
    assert res.optimal_representative.is_zero
    assert res.bounding_chain.is_zero
    assert res.dual_certificate.is_zero


def test_seminorm_refuses_fractional_boundary_coefficients():
    from multicomplex.chains import ChainComplex
    from multicomplex.core import InternalInvariantError
    v = AlgebraicSimplex("v", ("v",))
    e = AlgebraicSimplex("e", ("v", "w"))
    cc = ChainComplex(RING_RAT, {0: [v], 1: [e]},
                      {0: [[]], 1: [[(0, Fraction(1, 2))]]})
    with pytest.raises(InternalInvariantError, match="not integral"):
        seminorm_l1(cc, cc.chain(0, {v: 1}))


def test_boundary_has_seminorm_zero():
    cc = build_reduced_chain_complex(tetrahedron_boundary())
    top = cc.chain(2, {cc.basis(2)[0]: Fraction(2, 3)})
    z = cc.boundary_of(top)
    res = seminorm_l1(cc, z)
    assert res.value == 0
    assert res.optimal_representative.is_zero
    assert cc.boundary_of(res.bounding_chain) == z
    assert res.dual_certificate.pairing(z) == 0


def test_cone_kills_the_base_circle():
    # the two base edges cobound via the two cone triangles
    cc = build_reduced_chain_complex(cone_over_double_edge())
    z = cc.chain(1, {AlgebraicSimplex("north", ("x", "y")): 1,
                     AlgebraicSimplex("south", ("x", "y")): -1})
    res = seminorm_l1(cc, z)
    assert res.value == 0
    assert cc.boundary_of(res.bounding_chain) == z
    b = res.bounding_chain
    assert {k.simplex for k in b.support()} == {"tn", "ts"}


def test_sphere_class_has_seminorm_two():
    mc = special_sphere(2)
    cc = build_reduced_chain_complex(mc)
    z = Chain(2, RING_RAT,
              dict(fundamental_cycle(mc, ring=RING_RAT).items()))
    assert seminorm_l1(cc, z).value == 2


def test_volumes_of_pinned_fixtures():
    assert simplicial_volume(special_sphere(2)).value == 2
    assert simplicial_volume(tetrahedron_boundary()).value == 4
    assert simplicial_volume(seven_vertex_torus()).value == 14


def test_volume_result_carries_certificates():
    res = simplicial_volume(special_sphere(2))
    assert res.cycle.l1_norm() == 2
    assert res.seminorm.value == res.value
    assert res.seminorm.dual_certificate.linf_norm() <= 1


def test_seminorm_bounded_by_norm_and_invariant_under_boundaries():
    rng = random.Random(5)
    cc = build_reduced_chain_complex(seven_vertex_torus())
    z = Chain(1, RING_RAT, {})
    # a 1-cycle: boundary of a random 2-chain plus a harmonic loop
    for _ in range(6):
        lab = cc.basis(2)[rng.randrange(cc.dim(2))]
        z = z + cc.boundary_of(cc.chain(2, {lab: Fraction(rng.randint(1, 3))}))
    base = seminorm_l1(cc, z)
    assert base.value <= z.l1_norm()
    shift = cc.boundary_of(
        cc.chain(2, {cc.basis(2)[0]: Fraction(7, 3)}))
    assert seminorm_l1(cc, z + shift).value == base.value
    assert seminorm_l1(cc, z.scaled(Fraction(-5, 2))).value == \
        Fraction(5, 2) * base.value


def test_full_and_reduced_seminorms_agree_on_fixture_classes():
    for mc, degree in ((triangle_boundary(), 1),
                       (cone_over_double_edge(), 1),
                       (special_sphere(2), 2)):
        full = build_full_chain_complex(mc, max_degree=degree + 1,
                                        with_repeats=True)
        red = build_reduced_chain_complex(mc)
        labels = [lab for lab in full.basis(degree)
                  if len(set(lab.vertices)) == len(lab.vertices)]
        rng = random.Random(degree)
        for _ in range(4):
            # random full chain, closed up by subtracting a cone of its
            # boundary is overkill; instead randomize over cycle space
            from multicomplex.intlinalg import rational_kernel_basis
            from reference import dense
            mat = dense(full.boundary_matrix(degree), full.dim(degree))
            kern = rational_kernel_basis(mat)
            if not kern:
                break
            vec = [Fraction(0)] * full.dim(degree)
            for k in kern:
                c = Fraction(rng.randint(-2, 2))
                vec = [a + c * b for a, b in zip(vec, k)]
            z = full.chain_from_vector(degree, vec)
            assert full.boundary_of(z).is_zero
            a = seminorm_l1(full, z).value
            b = seminorm_l1(red, project_chain(z)).value
            assert a == b


def test_repeat_tuple_cycle_seminorm_matches_projection():
    # (x,y) + (y,x) projects to zero; with repeated-vertex tuples in the
    # bounding space its class seminorm is zero as well
    mc = triangle_boundary()
    full = build_full_chain_complex(mc, max_degree=2, with_repeats=True)
    z = Chain(1, RING_RAT, {AlgebraicSimplex("x,y", ("x", "y")): 1,
                            AlgebraicSimplex("x,y", ("y", "x")): 1})
    assert full.boundary_of(z).is_zero
    assert seminorm_l1(full, z).value == 0


def test_repeat_complex_requires_degree_cap():
    from multicomplex.core import StructureError
    with pytest.raises(StructureError):
        build_full_chain_complex(triangle_boundary(), with_repeats=True)


def test_alternation_preserves_class_seminorm():
    mc = special_sphere(2)
    full = build_full_chain_complex(mc, max_degree=3, with_repeats=True)
    z = Chain(2, RING_RAT, {})
    for lab, val in fundamental_cycle(mc, ring=RING_RAT).items():
        z = z + Chain(2, RING_RAT, {lab: val})
    a = alternate(z)
    assert seminorm_l1(full, a).value == seminorm_l1(full, z).value == 2


def test_bruteforce_circle_certified_three():
    cc = build_reduced_chain_complex(triangle_boundary(), ring=RING_INT)
    z = Chain(1, RING_INT, {AlgebraicSimplex("x,y", ("x", "y")): 1,
                            AlgebraicSimplex("y,z", ("y", "z")): 1,
                            AlgebraicSimplex("x,z", ("x", "z")): -1})
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=3)
    assert res.best == 3
    assert res.certified
    assert res.status == "exact"
    assert res.value == 3


def test_bruteforce_finds_boundary_zero():
    cc = build_reduced_chain_complex(tetrahedron_boundary(), ring=RING_INT)
    z = cc.boundary_of(cc.chain(2, {cc.basis(2)[0]: 2}))
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=2)
    assert res.best == 0
    assert res.certified
    assert res.representative == z + cc.boundary_of(res.bounding_chain)
    assert res.representative.is_zero


def test_bruteforce_support_bound_may_leave_unknown():
    cc = build_reduced_chain_complex(seven_vertex_torus(), ring=RING_INT)
    z = cc.boundary_of(cc.chain(2, {cc.basis(2)[i]: 1 for i in range(6)}))
    full = integral_seminorm_bruteforce(cc, z, coeff_bound=1)
    assert full.certified and full.best == 0
    narrowed = integral_seminorm_bruteforce(cc, z, coeff_bound=1,
                                            support_bound=1)
    assert narrowed.best >= 0
    if narrowed.best > 0:
        assert not narrowed.certified
        assert narrowed.status == "unknown"
        assert narrowed.value is None


def test_bruteforce_rejects_fractional_chains():
    cc = build_reduced_chain_complex(triangle_boundary())
    z = cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): Fraction(1, 2)})
    with pytest.raises(MulticomplexError):
        integral_seminorm_bruteforce(cc, z, coeff_bound=1)


def test_lp_solver_on_a_tiny_program():
    # minimize 3 x0 + x1 subject to x0 + x1 = 2, x >= 0: optimum 2 at x1
    columns = [[(0, 1)], [(0, 1)]]
    b = [Fraction(2)]
    c = [Fraction(3), Fraction(1)]
    res = solve(columns, b, c, basis=[0])
    assert isinstance(res, LPResult)
    assert res.value == 2
    assert res.x == [0, 2]
    # dual feasibility and strong duality on this instance
    assert res.y[0] * b[0] == res.value


def test_lp_solver_rejects_infeasible_start():
    columns = [[(0, 1)], [(0, 1)]]
    with pytest.raises(SimplexFailure):
        solve(columns, [Fraction(-1)], [Fraction(1), Fraction(1)],
              basis=[0])


def test_lp_solver_iteration_cap():
    columns = [[(0, 1)], [(0, 1)]]
    with pytest.raises(SimplexFailure):
        solve(columns, [Fraction(2)], [Fraction(3), Fraction(1)],
              basis=[0], max_iterations=0)


def test_lp_solver_rejects_singular_start():
    # columns 0 and 1 are parallel, so together they are no basis
    columns = [[(0, 1), (1, 2)], [(0, 2), (1, 4)], [(0, 1)], [(1, 1)]]
    with pytest.raises(SimplexFailure, match="singular"):
        solve(columns, [Fraction(1), Fraction(2)], [1, 1, 1, 1],
              basis=[0, 1])


@st.composite
def small_lps(draw):
    """(columns, b, c, basis): a feasible start B = L U with |det B| >= 2,
    b = B x_B for a nonnegative fractional x_B, and costs c >= 0, so an
    optimum exists."""
    m = draw(st.integers(1, 4))
    n = m + draw(st.integers(0, 5))
    ints = st.integers(-3, 3)
    lower = [[1 if i == j else draw(ints) if i > j else 0
              for j in range(m)] for i in range(m)]
    diag = [draw(st.sampled_from((1, -1, 2, -3))) for _ in range(m)]
    diag[draw(st.integers(0, m - 1))] = draw(st.sampled_from((2, -2, 3)))
    upper = [[diag[i] if i == j else draw(ints) if j > i else 0
              for j in range(m)] for i in range(m)]
    bmat = [[sum(lower[i][t] * upper[t][j] for t in range(m))
             for j in range(m)] for i in range(m)]
    dense = [[bmat[i][j] for i in range(m)] for j in range(m)]
    dense += [[draw(ints) for _ in range(m)] for _ in range(n - m)]
    order = draw(st.permutations(range(n)))
    columns = [None] * n
    for pos, col in zip(order, dense):
        columns[pos] = [(i, v) for i, v in enumerate(col) if v != 0]
    xb = [draw(st.fractions(0, 5, max_denominator=6)) for _ in range(m)]
    b = [sum(bmat[i][j] * xb[j] for j in range(m)) for i in range(m)]
    assume(any(v.denominator > 1 for v in b))
    c = [draw(st.fractions(0, 4, max_denominator=5)) for _ in range(n)]
    return columns, b, c, list(order[:m])


@settings(max_examples=100)
@given(small_lps())
def test_lp_solver_certifies_random_programs(lp):
    columns, b, c, basis = lp
    res = solve(columns, b, c, basis)
    ax = [Fraction(0)] * len(b)
    for xj, col in zip(res.x, columns):
        for i, v in col:
            ax[i] += xj * v
    assert ax == b
    assert all(xj >= 0 for xj in res.x)
    for cj, col in zip(c, columns):
        assert cj - sum(res.y[i] * v for i, v in col) >= 0
    value = sum(cj * xj for cj, xj in zip(c, res.x))
    assert value == sum(bi * yi for bi, yi in zip(b, res.y)) == res.value


def test_seminorm_scales_by_fractional_multiples():
    cc = build_reduced_chain_complex(seven_vertex_torus())
    z = _torus_loop(cc)
    base = seminorm_l1(cc, z).value
    assert base > 0
    for q in (Fraction(-7, 3), Fraction(5, 4)):
        res = seminorm_l1(cc, z.scaled(q))
        assert res.value == abs(q) * base
        assert dual_check(res, z.scaled(q))


def test_dual_certificate_vanishes_on_boundaries():
    cc = build_reduced_chain_complex(seven_vertex_torus())
    z = _torus_loop(cc)
    res = seminorm_l1(cc, z)
    for j in range(cc.dim(2)):
        col = cc.chain(2, {cc.basis(2)[j]: 1})
        assert res.dual_certificate.pairing(cc.boundary_of(col)) == 0


def _torus_loop(cc):
    from multicomplex.chains import homology
    return homology(cc).generators(1)[0]
