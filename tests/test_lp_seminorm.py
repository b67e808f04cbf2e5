"""Exact LP seminorms, duality, volumes, and the integral search."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import reference
from multicomplex.core import (MulticomplexError, simplicial_complex,
                               special_sphere)
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
                        AlgebraicSimplex("x,z", ("x", "z")): -1}, RING_RAT)


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
    e = cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1}, RING_RAT)
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
    # the complex refuses them, so no seminorm LP is built on one
    from multicomplex.chains import ChainComplex
    from multicomplex.core import StructureError
    v = AlgebraicSimplex("v", ("v",))
    e = AlgebraicSimplex("e", ("v", "w"))
    with pytest.raises(StructureError) as exc:
        ChainComplex({0: [v], 1: [e]}, {0: [[]], 1: [[(0, Fraction(1, 2))]]})
    assert str(exc.value) == (
        "boundary coefficient Fraction(1, 2) in degree 1 is not an int")


def test_boundary_has_seminorm_zero():
    cc = build_reduced_chain_complex(tetrahedron_boundary())
    top = cc.chain(2, {cc.basis(2)[0]: Fraction(2, 3)}, RING_RAT)
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
                     AlgebraicSimplex("south", ("x", "y")): -1}, RING_RAT)
    res = seminorm_l1(cc, z)
    assert res.value == 0
    assert cc.boundary_of(res.bounding_chain) == z
    b = res.bounding_chain
    assert {k.simplex for k in b.support()} == {"tn", "ts"}


def test_sphere_class_has_seminorm_two():
    mc = special_sphere(2)
    cc = build_reduced_chain_complex(mc)
    z = fundamental_cycle(mc, cc).as_rational()
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
        z = z + cc.boundary_of(
            cc.chain(2, {lab: Fraction(rng.randint(1, 3))}, RING_RAT))
    base = seminorm_l1(cc, z)
    assert base.value <= z.l1_norm()
    shift = cc.boundary_of(
        cc.chain(2, {cc.basis(2)[0]: Fraction(7, 3)}, RING_RAT))
    assert seminorm_l1(cc, z + shift).value == base.value
    assert seminorm_l1(cc, z.scaled(Fraction(-5, 2))).value == \
        Fraction(5, 2) * base.value


def test_full_and_reduced_seminorms_agree_on_fixture_classes():
    for mc, degree in ((triangle_boundary(), 1),
                       (cone_over_double_edge(), 1),
                       (special_sphere(2), 2)):
        full = reference.repeat_complex(mc, degree + 1)
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
            z = full.chain_from_vector(degree, vec, RING_RAT)
            assert full.boundary_of(z).is_zero
            a = seminorm_l1(full, z).value
            b = seminorm_l1(red, project_chain(z)).value
            assert a == b


def test_repeat_tuple_cycle_seminorm_matches_projection():
    # (x,y) + (y,x) projects to zero; with repeated-vertex tuples in the
    # bounding space its class seminorm is zero as well
    mc = triangle_boundary()
    full = reference.repeat_complex(mc, 2)
    z = Chain(1, RING_RAT, {AlgebraicSimplex("x,y", ("x", "y")): 1,
                            AlgebraicSimplex("x,y", ("y", "x")): 1})
    assert full.boundary_of(z).is_zero
    assert seminorm_l1(full, z).value == 0


def test_alternation_preserves_class_seminorm():
    mc = special_sphere(2)
    full = reference.repeat_complex(mc, 3)
    z = fundamental_cycle(mc, build_reduced_chain_complex(mc)).as_rational()
    a = alternate(z)
    assert seminorm_l1(full, a).value == seminorm_l1(full, z).value == 2


def test_bruteforce_circle_certified_three():
    cc = build_reduced_chain_complex(triangle_boundary())
    z = Chain(1, RING_INT, {AlgebraicSimplex("x,y", ("x", "y")): 1,
                            AlgebraicSimplex("y,z", ("y", "z")): 1,
                            AlgebraicSimplex("x,z", ("x", "z")): -1})
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=3)
    assert res.best == 3
    assert res.certified
    assert res.status == "exact"


def test_bruteforce_finds_boundary_zero():
    cc = build_reduced_chain_complex(tetrahedron_boundary())
    z = cc.boundary_of(cc.chain(2, {cc.basis(2)[0]: 2}, RING_INT))
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=2)
    assert res.best == 0
    assert res.certified
    assert res.representative == z + cc.boundary_of(res.bounding_chain)
    assert res.representative.is_zero


def test_bruteforce_support_bound_may_leave_unknown():
    cc = build_reduced_chain_complex(seven_vertex_torus())
    z = cc.boundary_of(
        cc.chain(2, {cc.basis(2)[i]: 1 for i in range(6)}, RING_INT))
    full = integral_seminorm_bruteforce(cc, z, coeff_bound=1)
    assert full.certified and full.best == 0
    narrowed = integral_seminorm_bruteforce(cc, z, coeff_bound=1,
                                            support_bound=1)
    assert narrowed.best >= 0
    if narrowed.best > 0:
        assert not narrowed.certified
        assert narrowed.status == "unknown"


def test_bruteforce_rejects_fractional_chains():
    cc = build_reduced_chain_complex(triangle_boundary())
    z = cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): Fraction(1, 2)},
                 RING_RAT)
    with pytest.raises(MulticomplexError):
        integral_seminorm_bruteforce(cc, z, coeff_bound=1)


def test_bruteforce_on_a_non_cycle_searches_without_the_lp():
    # seminorm_l1 refuses a non-cycle, so the LP bound must be skipped
    cc = build_reduced_chain_complex(triangle_boundary())
    z = Chain(1, RING_INT, {AlgebraicSimplex("x,y", ("x", "y")): 2})
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=1)
    assert res.best == 2
    assert res.status == "exact"
    assert res.representative == z


def test_a_large_bound_costs_no_memory_when_the_lp_answers():
    """On the triangle's fundamental cycle the LP bounding chain ends the
    search before any coefficient is tried, so a bound of 100,000 must
    not list the 200,001 values a coefficient may take."""
    mc = triangle_boundary()
    cc = build_reduced_chain_complex(mc)
    z = fundamental_cycle(mc, cc)
    tracemalloc.start()
    try:
        res = integral_seminorm_bruteforce(cc, z, coeff_bound=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.best, res.status) == (3, "exact")
    assert peak < 2 ** 20


def _grid_torus(n):
    """The n x n grid torus with each square cut along a diagonal, built as
    in test_cli, and v(i, j), the name of the vertex at (i, j) mod n."""
    def v(i, j):
        return "v%d_%d" % (i % n, j % n)
    faces = [f for i in range(n) for j in range(n)
             for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                       (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    mc = simplicial_complex(faces)
    return build_reduced_chain_complex(mc), v


def _loop_plus_boundaries(path, triangles):
    """The closed path through the vertices of path, plus coef times the
    boundary of each (a, b, c, coef) in triangles, on sorted edges."""
    terms = {}
    loops = [(path, 1)] + [((a, b, c), coef) for a, b, c, coef in triangles]
    for loop, coef in loops:
        for x, y in zip(loop, loop[1:] + loop[:1]):
            edge = tuple(sorted((x, y)))
            key = AlgebraicSimplex(",".join(edge), edge)
            terms[key] = terms.get(key, 0) + (coef if edge[0] == x
                                              else -coef)
    return Chain(1, RING_INT, {k: c for k, c in terms.items() if c})


def _in_box(chain, bound):
    return all(c.denominator == 1 and abs(c) <= bound
               for _, c in chain.items())


def _plain_search(cc, z, bound):
    # a support bound no search can reach: the whole box, no LP bound
    return integral_seminorm_bruteforce(cc, z, bound,
                                        support_bound=cc.dim(z.degree + 1))


def test_bruteforce_takes_the_lp_chain_inside_the_box():
    cc, v = _grid_torus(3)
    z = _loop_plus_boundaries([v(i, 0) for i in range(3)],
                              [(v(0, 1), v(1, 1), v(1, 2), 1),
                               (v(0, 0), v(0, 1), v(1, 1), 1)])
    lp = seminorm_l1(cc, z)
    assert lp.value == 3 and _in_box(lp.bounding_chain, 1)
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=1)
    assert (res.best, res.status) == (3, "exact")
    # the LP's optimum, not the first one the search meets
    assert dict(res.representative.items()) == \
        dict(lp.optimal_representative.items())
    assert dict(res.bounding_chain.items()) == \
        {k: -c for k, c in lp.bounding_chain.items()}
    plain = _plain_search(cc, z, 1)
    assert (plain.best, plain.status) == (3, "exact")
    assert plain.representative != res.representative


def test_bruteforce_stops_at_the_lp_bound():
    # the LP undoes 2 boundaries of one triangle, outside the box; the
    # search finds another optimum inside it and stops there
    cc, v = _grid_torus(4)
    z = _loop_plus_boundaries([v(3, j) for j in range(4)],
                              [(v(2, 0), v(2, 1), v(3, 1), 2)])
    lp = seminorm_l1(cc, z)
    assert lp.value == 4 and not _in_box(lp.bounding_chain, 1)
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=1)
    assert (res.best, res.status) == (4, "exact")
    assert _in_box(res.bounding_chain, 1)
    plain = _plain_search(cc, z, 1)
    assert plain.representative == res.representative


def test_bruteforce_exhausts_a_box_above_the_lp_bound():
    # 3 boundaries of one triangle cannot be undone with |b_j| <= 1
    cc, v = _grid_torus(3)
    z = _loop_plus_boundaries([v(i, 0) for i in range(3)],
                              [(v(0, 1), v(1, 1), v(1, 2), 3)])
    lp = seminorm_l1(cc, z)
    assert lp.value == 3 and not _in_box(lp.bounding_chain, 1)
    res = integral_seminorm_bruteforce(cc, z, coeff_bound=1)
    assert (res.best, res.status) == (6, "exact")
    plain = _plain_search(cc, z, 1)
    assert (plain.best, plain.representative) == (6, res.representative)


def _fractions(res):
    """The x and y of an LPResult as lists of Fractions."""
    return ([Fraction(v, res.x_den) for v in res.x_num],
            [Fraction(v, res.y_den) for v in res.y_num])


def test_lp_solver_on_a_tiny_program():
    # minimize 3 x0 + x1 subject to x0 + x1 = 2, x >= 0: optimum 2 at x1
    columns = [[(0, 1)], [(0, 1)]]
    b = [Fraction(2)]
    c = [Fraction(3), Fraction(1)]
    res = solve(columns, b, c, basis=[0])
    assert isinstance(res, LPResult)
    assert res.value == 2
    x, y = _fractions(res)
    assert x == [0, 2]
    # dual feasibility and strong duality on this instance
    assert y[0] * b[0] == res.value


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
    # two units on row 0 make a singular basis; the second is refused
    columns = [[(0, 1)], [(0, -1)], [(1, 1)]]
    with pytest.raises(SimplexFailure, match="row 1 is not a signed unit"):
        solve(columns, [Fraction(1), Fraction(2)], [1, 1, 1], basis=[0, 1])


@pytest.mark.parametrize("start, row", [
    ([3, 1], 0),  # a general column: (0, 1), (1, 1)
    ([4, 1], 0),  # one entry 2 on its row
    ([0, 2], 1),  # two units on row 0
    ([1, 0], 0),  # the units of both rows, each on the other's row
    ([0, 5], 1),  # an empty column
])
def test_lp_solver_refuses_a_start_of_other_columns(start, row):
    columns = [[(0, 1)], [(1, -1)], [(0, -1)], [(0, 1), (1, 1)], [(0, 2)],
               []]
    with pytest.raises(SimplexFailure) as exc:
        solve(columns, [Fraction(1), Fraction(-1)], [1] * 6, start)
    assert str(exc.value) == (
        "basis column of row %d is not a signed unit on that row" % row)


@st.composite
def small_lps(draw, max_rows=4, max_extra=5, degenerate=False):
    """(columns, b, c, basis): a start of signed unit columns, basis[i]
    the column s_i e_i with the sign s_i of b_i, so x_B = |b| >= 0, and
    costs c >= 0, so an optimum exists.  The other columns have integer
    entries of size at most 3, so pivots change |det B|.  A degenerate
    program has at most one basic variable above zero at the start, and
    its rows fall into up to three blocks: every other column lies
    inside one block, so a pivot in one block leaves the columns of the
    others untouched."""
    m = draw(st.integers(1, max_rows))
    n = m + draw(st.integers(1, max_extra))
    block = [draw(st.integers(0, 2)) if degenerate else 0 for _ in range(m)]
    xb = [draw(st.fractions(0, 5, max_denominator=6)) for _ in range(m)]
    # a degenerate start: some basic variables at zero, so that ratio
    # ties and zero-length pivots occur
    if degenerate:
        keep = draw(st.integers(0, m - 1))
        xb = [v if i == keep else Fraction(0) for i, v in enumerate(xb)]
    else:
        for i in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
            xb[i] = Fraction(0)
    signs = [draw(st.sampled_from((1, -1))) for _ in range(m)]
    b = [s * v for s, v in zip(signs, xb)]
    assume(any(v.denominator > 1 for v in b))
    dense = [[(i, s)] for i, s in enumerate(signs)]
    ints = st.integers(-3, 3)
    for _ in range(n - m):
        home = draw(st.sampled_from(block))
        dense.append([(i, v) for i in range(m)
                      if block[i] == home and (v := draw(ints))])
    order = draw(st.permutations(range(n)))
    columns = [None] * n
    for pos, col in zip(order, dense):
        columns[pos] = col
    c = [draw(st.fractions(0, 4, max_denominator=5)) for _ in range(n)]
    if degenerate:  # a dear start, so that the solver pivots away
        for j in order[:m]:
            c[j] += 3
    return columns, b, c, list(order[:m])


def _outcome(solver, columns, b, c, basis, max_iterations=None):
    """Everything a solve returns, or the message it fails with."""
    try:
        res = solver(columns, b, c, basis, max_iterations)
    except SimplexFailure as exc:
        return str(exc)
    return (res.basis, *_fractions(res), res.value)


# A failing example is reported after shrinking without the explain
# phase, which replays the composite strategy thousands of times more:
# about 40 s instead of 2-3 minutes on a pivoting bug.
NO_EXPLAIN = [p for p in Phase if p is not Phase.explain]


@settings(max_examples=100, phases=NO_EXPLAIN)
@given(small_lps(), st.integers(0, 3))
def test_lp_solver_certifies_random_programs(lp, cap):
    columns, b, c, basis = lp
    # the sparse tableau makes the dense reference's pivots
    assert _outcome(solve, *lp) == _outcome(reference.solve, *lp)
    assert _outcome(solve, *lp, cap) == _outcome(reference.solve, *lp, cap)
    res = solve(columns, b, c, basis)
    x, y = _fractions(res)
    ax = [Fraction(0)] * len(b)
    for xj, col in zip(x, columns):
        for i, v in col:
            ax[i] += xj * v
    assert ax == b
    assert all(xj >= 0 for xj in x)
    for cj, col in zip(c, columns):
        assert cj - sum(y[i] * v for i, v in col) >= 0
    value = sum(cj * xj for cj, xj in zip(c, x))
    assert value == sum(bi * yi for bi, yi in zip(b, y)) == res.value


# The iteration cap both solvers get on the degenerate programs.  The 100
# drawn programs need at most 10 iterations (9 pivots and the pass that
# finds no entering column), and 3,000 unseeded draws needed at most 16;
# a cap far above that makes a solver that cycles fail in seconds instead
# of running to the default cap of 100,000 pivots per solve.
PIVOT_BOUND = 200


@settings(max_examples=100, phases=NO_EXPLAIN)
@given(small_lps(max_rows=8, max_extra=12, degenerate=True), st.integers(0, 3))
def test_lp_solver_matches_the_reference_on_degenerate_programs(lp, cap):
    # most pivots are degenerate and change |det B|; a column in another
    # block is not touched by them, so its reduced cost is only rescaled
    assert _outcome(solve, *lp, PIVOT_BOUND) == _outcome(
        reference.solve, *lp, PIVOT_BOUND)
    assert _outcome(solve, *lp, cap) == _outcome(reference.solve, *lp, cap)


@st.composite
def unit_starts(draw, max_rows=5, max_extra=5):
    """(columns, b, c, basis): a start of signed unit columns, basis[i]
    the column s_i e_i, whose signs match b except where b is drawn
    against one (an infeasible start), with costs of either sign, which
    are credited to the objective row at the start and may leave the
    objective unbounded.  The other columns are signed units on any row
    or integer columns with entries of size at most 3."""
    m = draw(st.integers(1, max_rows))
    ints = st.integers(-3, 3)

    def column():
        if draw(st.booleans()):
            return [(draw(st.integers(0, m - 1)),
                     draw(st.sampled_from((1, -1))))]
        return [(i, v) for i in range(m) if (v := draw(ints))]
    signs = [draw(st.sampled_from((1, -1))) for _ in range(m)]
    b = [s * draw(st.fractions(0, 5, max_denominator=6)) for s in signs]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, m - 1))
        b[i] = -signs[i] * draw(st.fractions(0, 3, max_denominator=4))
    columns = [[(i, s)] for i, s in enumerate(signs)] + [
        column() for _ in range(draw(st.integers(0, max_extra)))]
    order = draw(st.permutations(range(len(columns))))
    columns = [columns[k] for k in order]
    c = [draw(st.fractions(-1, 4, max_denominator=5)) for _ in columns]
    return columns, b, c, [order.index(j) for j in range(m)]


@settings(max_examples=300, phases=NO_EXPLAIN)
@given(unit_starts())
def test_lp_solver_matches_the_reference_on_unit_starts(lp):
    # the units' signs, the rows of b they negate and the costs they
    # credit must leave the tableau that pivoting them in leaves, so
    # every optimum and every failure is the reference's
    assert _outcome(solve, *lp, PIVOT_BOUND) == _outcome(
        reference.solve, *lp, PIVOT_BOUND)


@pytest.mark.parametrize("lp, outcome", [
    # x_0 = -b_0 for the unit -1 on row 0 is negative
    (([[(0, -1)], [(1, 1)], [(0, 1), (1, 1)]], [Fraction(1), Fraction(2)],
      [1, 1, 0], [0, 1]), "starting basis is infeasible"),
    # x_0 = -b_0 for the unit -1 on row 0 is feasible; x_1 = b_1 is not
    (([[(0, -1)], [(1, 1)], [(0, 1), (1, 1)]], [Fraction(-1), Fraction(-2)],
      [1, 1, 0], [0, 1]), "starting basis is infeasible"),
    # min x0 + 3 x1 + 2 x2 with -2 x0 - x1 = -1, x0 + x2 = 3: the unit
    # -1 on row 0 negates b_0 to start at x1 = 1 and credits its cost as
    # 3 * -1 to the objective row; x0 enters for x1
    (([[(0, -2), (1, 1)], [(0, -1)], [(1, 1)]], [Fraction(-1), Fraction(3)],
      [1, 3, 2], [1, 2]),
     ([0, 2], [Fraction(1, 2), 0, Fraction(5, 2)], [Fraction(1, 2), 2],
      Fraction(11, 2))),
])
def test_lp_solver_fails_and_solves_unit_starts_as_the_reference(lp,
                                                                 outcome):
    assert _outcome(solve, *lp) == _outcome(reference.solve, *lp) == outcome


def _seminorm_lp(cc, z):
    """The program seminorm_l1 hands to exactlp.solve for z in cc."""
    from multicomplex import exactlp
    programs = []

    def record(*lp):
        programs.append(lp)
        return solve(*lp)
    saved, exactlp.solve = exactlp.solve, record
    try:
        seminorm_l1(cc, z)
    finally:
        exactlp.solve = saved
    (lp,) = programs
    return lp


def _path(vertices):
    """The closed path through vertices, on the ordered edges."""
    terms = {}
    for x, y in zip(vertices, vertices[1:] + vertices[:1]):
        terms[AlgebraicSimplex(",".join(sorted((x, y))), (x, y))] = 1
    return Chain(1, RING_RAT, terms)


def _seminorm_program(case):
    """The complex and the class of one seminorm program."""
    if case == "grid3":
        cc, v = _grid_torus(3)
        return cc, _loop_plus_boundaries(
            [v(i, 0) for i in range(3)],
            [(v(0, 1), v(1, 1), v(1, 2), 1), (v(0, 0), v(0, 1), v(1, 1), -1)])
    if case == "grid4":
        cc, v = _grid_torus(4)
        return cc, _loop_plus_boundaries(
            [v(i, i) for i in range(4)],
            [(v(2, 0), v(2, 1), v(3, 1), 2), (v(0, 2), v(1, 2), v(1, 3), -1)])
    if case == "torus7":
        cc = build_full_chain_complex(seven_vertex_torus())
        return cc, _path([str(3 * i % 7) for i in range(7)]).scaled(2)
    cc = build_full_chain_complex(special_sphere(3))
    return cc, _path(["v2", "v0", "v3"])


@pytest.mark.parametrize("case, rows, cols, value", [
    ("grid3", 27, 90, 3), ("grid4", 48, 160, 4), ("torus7", 42, 252, 14),
    ("sphere3", 12, 72, 0)])
def test_lp_solver_matches_the_reference_on_seminorm_programs(case, rows,
                                                              cols, value):
    lp = _seminorm_lp(*_seminorm_program(case))
    assert (len(lp[1]), len(lp[0])) == (rows, cols)
    got = _outcome(solve, *lp)
    assert got == _outcome(reference.solve, *lp)
    assert got[3] == value


@pytest.mark.parametrize("lp, message", [
    (([[(0, 1)], [(0, 1)]], [Fraction(-1)], [1, 1], [0]),
     "starting basis is infeasible"),
    (([[(0, -1)], [(0, 1)]], [Fraction(1)], [1, 1], [0]),
     "starting basis is infeasible"),
    (([[(0, 1)], [(0, 1)]], [Fraction(2)], [1, 1], [0, 1]),
     "basis size does not match the row count"),
    (([[(0, 1)], [(0, -1)]], [Fraction(1)], [0, -1], [0]),
     "objective is unbounded below"),
])
def test_lp_solver_fails_as_the_dense_reference(lp, message):
    assert _outcome(solve, *lp) == _outcome(reference.solve, *lp) == message


def test_lp_solver_cap_fails_as_the_dense_reference():
    lp = ([[(0, 1)], [(0, 1)]], [Fraction(2)], [3, 1], [0])
    # one pivot, then one pricing pass that proves the optimum
    for cap in (0, 1):
        assert _outcome(solve, *lp, cap) == \
            _outcome(reference.solve, *lp, cap) == "iteration limit exceeded"
    assert _outcome(solve, *lp, 2) == _outcome(reference.solve, *lp, 2) \
        == ([1], [0, 2], [1], 2)


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
        col = cc.chain(2, {cc.basis(2)[j]: 1}, RING_RAT)
        assert res.dual_certificate.pairing(cc.boundary_of(col)) == 0


def _torus_loop(cc):
    from multicomplex.chains import HomologyResult
    return HomologyResult(cc, RING_RAT).generators(1)[0]


def _doctored(real, breach):
    """real, with its LPResult broken so that exactly the certification
    check named by breach fails in seminorm_l1; the u, w, +d and -d
    variables come in that order."""
    def solve(columns, b, c, basis, *rest):
        res = real(columns, b, c, basis, *rest)
        m = len(b)
        x, y, value = list(res.x_num), list(res.y_num), res.value
        xd, yd = res.x_den, res.y_den
        if breach == "bounding":  # one more triangle in the chain
            x[2 * m] += xd
        elif breach == "value":
            value += 1
        elif breach == "sup-norm":
            y[0] = 2 * yd
        elif breach == "boundary":  # 1 on one row of a boundary column
            row = columns[2 * m][0][0]
            y = [yd * (i == row) for i in range(m)]
        else:  # the zero certificate pairs with z to 0
            y = [0] * m
        return LPResult(value, x, xd, y, yd, res.basis)
    return solve


@pytest.mark.parametrize("breach, message", [
    ("bounding", "representative and bounding chain disagree"),
    ("value", "optimal value does not match the representative norm"),
    ("sup-norm", "dual certificate exceeds sup-norm one"),
    ("boundary", "dual certificate does not vanish on boundaries"),
    ("gap", "duality gap is not zero"),
])
def test_seminorm_certification_refuses_a_doctored_solve(
        breach, message, monkeypatch, tmp_path, capsys):
    from multicomplex import exactlp, formats
    from multicomplex.cli import main
    from multicomplex.core import InternalInvariantError
    mc = seven_vertex_torus()
    cc = build_reduced_chain_complex(mc)
    z = _loop_plus_boundaries([str(i) for i in range(7)], [])
    assert seminorm_l1(cc, z).value > 0
    monkeypatch.setattr(exactlp, "solve", _doctored(exactlp.solve, breach))
    with pytest.raises(InternalInvariantError) as exc:
        seminorm_l1(cc, z)
    assert str(exc.value) == message
    paths = []
    for name, doc in (("mc.json", formats.multicomplex_to_doc(mc)),
                      ("z.json", formats.chain_to_doc(z))):
        paths.append(tmp_path / name)
        paths[-1].write_text(formats.canonical_dumps(doc), encoding="utf-8")
    code = main(["seminorm", str(paths[1]), "--complex", str(paths[0])])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "internal invariant breach: %s" % message in err
