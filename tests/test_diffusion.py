"""Convolution diffusion: measures, Folner boxes, local stages, vanishing."""

from fractions import Fraction
from itertools import product

import pytest
import reference
from conftest import symmetric_group_3
from hypothesis import given, settings
from hypothesis import strategies as st

from multicomplex.chains import (
    RING_RAT,
    AlgebraicSimplex,
    Chain,
    alternate,
    build_full_chain_complex,
    build_reduced_chain_complex,
    homology,
)
from multicomplex.core import (
    InternalInvariantError,
    MulticomplexError,
    StructureError,
)
from multicomplex.diffusion import (
    ActionOnSet,
    DiffusionError,
    FiniteSupportMeasure,
    OrbitBlock,
    SparseFunction,
    convolve,
    delta_measure,
    derivative_norm,
    diffuse_to_epsilon,
    folner_measure,
    local_diffuse,
    measure_derivative,
    toy_vanish,
    uniform_measure,
    validate_action_on_set,
)
from multicomplex.fixtures import (
    antipodal_action,
    cone_over_double_edge,
    cone_swap_action,
    double_edge,
    double_edge_swap_action,
    triangle_symmetries,
)
from multicomplex.formats import measure_from_doc, measure_to_doc
from multicomplex.groups import FiniteGroup, FreeAbelianGroup, cyclic_group


Z = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)


def _z_action(points):
    return ActionOnSet(Z, points, lambda g, x: x + g[0])


def test_measure_must_be_a_probability():
    with pytest.raises(MulticomplexError):
        FiniteSupportMeasure(Z, {(0,): Fraction(1, 2)})
    with pytest.raises(MulticomplexError, match="nonnegative, got -1/2 at"):
        FiniteSupportMeasure(Z, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})
    mu = FiniteSupportMeasure(Z, {(0,): 1, (1,): 0})
    assert mu.support() == [(0,)]
    # mixed denominators
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    mu = FiniteSupportMeasure(Z, {(0,): half, (1,): third, (2,): sixth})
    assert mu.items() == [((0,), half), ((1,), third), ((2,), sixth)]
    with pytest.raises(StructureError, match="must sum to 1, got 5/6$"):
        FiniteSupportMeasure(Z, {(0,): half, (1,): third})
    mu = FiniteSupportMeasure(Z, [((0,), Fraction(2, 4)), ((1,), 0),
                                  ((2,), sixth), ((3,), sixth), ((2,), sixth)])
    w = mu.weight((0,))
    assert (w.numerator, w.denominator) == (1, 2)
    assert mu.weight((2,)) == third
    assert mu.weight((1,)) == 0
    assert len(mu) == 3
    assert measure_from_doc(measure_to_doc(mu)).items() == mu.items()


def test_delta_convolution_translates():
    pts = list(range(-5, 6))
    a = _z_action(pts)
    f = SparseFunction({0: Fraction(2), 1: Fraction(-1)})
    g = convolve(delta_measure(Z, (1,)), f, a)
    assert g.value(1) == 2 and g.value(2) == -1
    assert g.l1_norm() == f.l1_norm()
    e = convolve(delta_measure(Z, Z.identity), f, a)
    assert e == f


def test_box_derivative_is_two_over_n():
    for n in (2, 5, 21, 64):
        mu = uniform_measure(Z, [(i,) for i in range(n)])
        assert measure_derivative(mu, (1,)) == Fraction(2, n)
        assert derivative_norm(mu, [(1,), (-1,)]) == Fraction(2, n)


def test_derivative_of_invariant_measure_is_zero():
    g = cyclic_group(4)
    mu = uniform_measure(g, g.elements)
    assert derivative_norm(mu, g.elements) == 0


def test_folner_measure_on_z_meets_epsilon():
    mu = folner_measure(Z, [(1,), (-1,)], Fraction(1, 10))
    assert len(mu) == 21
    assert derivative_norm(mu, [(1,), (-1,)]) == Fraction(2, 21)
    assert sum(w for _, w in mu.items()) == 1


def test_folner_measure_on_z2():
    phis = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    mu = folner_measure(Z2, phis, Fraction(1, 5))
    assert derivative_norm(mu, phis) < Fraction(1, 5)
    assert len(mu) == 11 * 11


def test_folner_measure_on_finite_group_is_exactly_invariant():
    g = cyclic_group(6)
    mu = folner_measure(g, g.elements, Fraction(1, 100))
    assert len(mu) == 6
    assert derivative_norm(mu, g.elements) == 0


def test_diffuse_to_epsilon_on_the_integer_line():
    pts = list(range(-45, 46))
    a = _z_action(pts)
    f = SparseFunction({0: Fraction(1), 1: Fraction(-1)})
    mu, out = diffuse_to_epsilon(a, f, Fraction(1, 10))
    assert out.l1_norm() == Fraction(2, 41)
    assert out.total() == 0
    assert convolve(mu, f, a) == out


def test_diffuse_to_epsilon_on_a_finite_group_is_exact():
    g = cyclic_group(5)
    a = ActionOnSet(g, list(g.elements), lambda h, x: g.multiply(h, x))
    f = SparseFunction({g.elements[0]: Fraction(3, 2),
                        g.elements[2]: Fraction(1)})
    mu, out = diffuse_to_epsilon(a, f, Fraction(1, 7))
    assert out.l1_norm() == abs(f.total()) == Fraction(5, 2)
    assert out.total() == f.total()


def test_diffuse_zero_function_is_identity():
    a = _z_action(list(range(5)))
    mu, out = diffuse_to_epsilon(a, SparseFunction({}), Fraction(1, 3))
    assert out.is_zero
    assert mu.support() == [Z.identity]


def test_diffuse_rejects_disconnected_support():
    # two points that no group element connects within the enumeration
    def act(g, x):
        return x  # the trivial "action" of Z on two fixed points

    a = ActionOnSet(Z, [0, 1], act)
    f = SparseFunction({0: Fraction(1), 1: Fraction(-1)})
    with pytest.raises(DiffusionError):
        diffuse_to_epsilon(a, f, Fraction(1, 2))


def test_counterexample_scaling_is_exactly_linear():
    pts = list(range(-40, 260))
    a = _z_action(pts)
    f1 = SparseFunction({0: Fraction(1), 1: Fraction(-1)})
    mu = uniform_measure(Z, [(i,) for i in range(33)])
    base = convolve(mu, f1, a).l1_norm()
    assert base == Fraction(2, 33) > 0
    for n in (2, 7, 100):
        fn = f1.scaled(n)
        assert convolve(mu, fn, a).l1_norm() == n * base


def _two_block_action():
    # each block subgroup shifts its own points and fixes foreign ones
    c4 = cyclic_group(4)
    c3 = cyclic_group(3)

    def act0(g, x):
        return (x + c4.elements.index(g)) % 4 if x in (0, 1, 2, 3) else x

    def act1(g, x):
        return 10 + ((x - 10) + c3.elements.index(g)) % 3 \
            if x in (10, 11, 12) else x

    blocks = [
        OrbitBlock([0, 1, 2, 3], c4, act0, horizon=1),
        OrbitBlock([10, 11, 12], c3, act1, horizon=1),
    ]
    pts = [0, 1, 2, 3, 10, 11, 12]
    return ActionOnSet(None, pts, None, blocks=blocks)


def test_validate_action_on_set_accepts_block_structure():
    report = validate_action_on_set(_two_block_action())
    assert not report.problems
    assert any("enumerated range" in n for n in report.notes)


def test_validate_action_on_set_catches_identity_failures():
    bad = ActionOnSet(Z, [0, 1, 2], lambda g, x: (x + g[0]) % 3 if g != (0,)
                      else (x + 1) % 3)
    report = validate_action_on_set(bad)
    assert any("identity" in p for p in report.problems)


def test_blocks_must_partition():
    c2 = cyclic_group(2)
    b1 = OrbitBlock([0, 1], c2, lambda g, x: x if g == "r0" else 1 - x,
                    horizon=1)
    b2 = OrbitBlock([1, 2], c2, lambda g, x: x if g == "r0" else 3 - x,
                    horizon=1)
    a = ActionOnSet(None, [0, 1, 2], None, blocks=[b1, b2])
    report = validate_action_on_set(a)
    assert any("partition" in p or "overlap" in p for p in report.problems)


def test_validate_action_on_set_names_each_block_problem():
    # block 0 swaps 0 and 1 but also sends 10 to 0, out of block 1;
    # block 1 swaps 10 and 11; block 2 is Z turning 20 and 21 and also
    # sending 11 to 21.  Block 1's horizon 0 puts blocks 0 and 2 past
    # it, and block 0's horizon 1 puts block 1 past it; block 2 moves
    # nothing block 0 guards.
    c2 = cyclic_group(2)
    swap = {0: 1, 1: 0, 10: 0}
    turn = {20: 21, 21: 20, 11: 21}
    blocks = [
        OrbitBlock([0, 1], c2,
                   lambda g, x: swap.get(x, x) if g == "r1" else x,
                   horizon=1),
        OrbitBlock([10, 11], c2,
                   lambda g, x: 21 - x if g == "r1" and x in (10, 11)
                   else x, horizon=0),
        OrbitBlock([20, 21], Z,
                   lambda g, x: turn.get(x, x) if g[0] % 2 else x,
                   horizon=3),
    ]
    a = ActionOnSet(None, [0, 1, 10, 11, 20, 21], None, blocks=blocks)
    assert list(validate_action_on_set(a).problems) == [
        "subgroup of block 0 moves 10 out of block 1",
        "subgroup of block 2 moves 11 out of block 1",
        "blocks 0 and 1 are not asymptotically disjoint: stage 1 is past "
        "the horizon 1 but moves 10",
        "blocks 1 and 0 are not asymptotically disjoint: stage 0 is past "
        "the horizon 0 but moves 10",
        "blocks 1 and 2 are not asymptotically disjoint: stage 2 is past "
        "the horizon 0 but moves 11",
    ]


def test_local_diffuse_meets_budgets_and_preserves_sums():
    a = _two_block_action()
    f = SparseFunction({0: Fraction(2), 10: Fraction(1),
                        11: Fraction(-1)})
    budgets = [Fraction(1), Fraction(1, 9)]
    out = local_diffuse(a, f, budgets, threshold=1)
    # block 0 is below the threshold: its sum is smeared by the uniform
    # subgroup measure, sum preserved
    assert out.sum_over(a.blocks[0].points) == 2
    assert out.norm_over(a.blocks[1].points) <= Fraction(1, 9)
    assert out.sum_over(a.blocks[1].points) == 0


def test_local_diffuse_rejects_uncancellable_block():
    a = _two_block_action()
    f = SparseFunction({10: Fraction(1)})
    with pytest.raises(DiffusionError) as err:
        local_diffuse(a, f, [Fraction(1), Fraction(1, 9)], threshold=1)
    assert "nonzero sum" in str(err.value)


def test_local_diffuse_budget_count_must_match():
    a = _two_block_action()
    with pytest.raises(StructureError):
        local_diffuse(a, SparseFunction({}), [Fraction(1)], threshold=0)


def test_toy_vanish_on_the_cone():
    mc = cone_over_double_edge()
    a = cone_swap_action()
    cc = build_reduced_chain_complex(mc)
    z = cc.chain(1, {AlgebraicSimplex("north", ("x", "y")): 1,
                     AlgebraicSimplex("south", ("x", "y")): -1})
    out, cert = toy_vanish(mc, a, z, Fraction(1, 100))
    assert out.l1_norm() == 0
    assert cc.boundary_of(cert.bounding_chain) == out - z
    assert cert.verify(cc, z, out)


@pytest.mark.parametrize("terms", [
    {("north", ("x", "y")): 1, ("south", ("x", "y")): -1},
    {("north", ("x", "y")): 3, ("south", ("y", "x")): 3},
    {("north", ("x", "y")): Fraction(1, 3),
     ("north", ("y", "x")): Fraction(-2, 3),
     ("south", ("x", "y")): Fraction(-1, 2),
     ("south", ("y", "x")): Fraction(1, 2)},
])
def test_toy_vanish_certificate_matches_the_old_averaging_loop(terms):
    mc = cone_over_double_edge()
    a = cone_swap_action()
    z = Chain(1, RING_RAT, {AlgebraicSimplex(sid, vs): v
                            for (sid, vs), v in terms.items()})
    out, cert = toy_vanish(mc, a, z, Fraction(1, 100))
    c = alternate(z)
    bounding = homology(build_full_chain_complex(mc, ring=RING_RAT)) \
        .is_boundary(c - z)
    assert (out, cert.bounding_chain) == reference.toy_vanish_average(
        a, c, bounding, cert.witnesses)


def test_toy_vanish_rejects_class_flip_with_witness():
    mc = double_edge()
    a = double_edge_swap_action()
    cc = build_reduced_chain_complex(mc)
    z = cc.chain(1, {AlgebraicSimplex("north", ("x", "y")): 1,
                     AlgebraicSimplex("south", ("x", "y")): -1})
    with pytest.raises(DiffusionError) as err:
        toy_vanish(mc, a, z, Fraction(1, 4))
    assert "[g*z] = -[z]" in str(err.value)
    w = err.value.witness
    assert w is not None and w.degree == 2


def test_toy_vanish_rejects_nonzero_orbit_mass():
    mc = cone_over_double_edge()
    a = cone_swap_action()
    cc = build_reduced_chain_complex(mc)
    # a cycle (the boundary of tn), but averaging over the swap cannot
    # cancel the lone north term against anything on its orbit
    z = cc.chain(1, {AlgebraicSimplex("north", ("x", "y")): 1,
                     AlgebraicSimplex("cx", ("c", "x")): 1,
                     AlgebraicSimplex("cy", ("c", "y")): -1})
    with pytest.raises(DiffusionError) as err:
        toy_vanish(mc, a, z, Fraction(1, 4))
    assert str(err.value) == (
        "the alternation of z has nonzero total 1/2 on the orbit of "
        "(cx;c,x); group averaging cannot cancel it there")


_VANISH_FIXTURES = [(cone_over_double_edge, cone_swap_action),
                    (double_edge, antipodal_action),
                    (double_edge, double_edge_swap_action),
                    (lambda: triangle_symmetries().complex,
                     triangle_symmetries)]


@given(st.sampled_from(_VANISH_FIXTURES),
       st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                min_size=1, max_size=8))
def test_toy_vanish_rejects_the_orbit_the_old_orbit_sums_name(fixture,
                                                              coeffs):
    """z is a rational combination of 1-cycles of the full complex
    (homology generators, then boundaries); the orbit check must name the
    orbit and total that summing over orbits() names."""
    make_mc, make_action = fixture
    mc, a = make_mc(), make_action()
    cc = build_full_chain_complex(mc, ring=RING_RAT)
    hom = homology(cc)
    cycles = hom.generators(1) + [cc.boundary_of(Chain(2, RING_RAT, {b: 1}))
                                  for b in cc.basis(2)]
    z = Chain(1, RING_RAT)
    for cycle, q in zip(cycles, coeffs):
        z = z + cycle.scaled(q)
    expected = reference.first_orbit_total(a, alternate(z))
    try:
        toy_vanish(mc, a, z, Fraction(1, 100))
    except DiffusionError as exc:
        message = str(exc)
    else:
        message = None
    if expected is None:
        assert message is None or "nonzero total" not in message
    else:
        assert message == (
            "the alternation of z has nonzero total %s on the orbit of %s; "
            "group averaging cannot cancel it there" % expected)


def test_sparse_function_arithmetic():
    f = SparseFunction({0: Fraction(1, 2), 1: Fraction(-1, 2)})
    g = SparseFunction({1: Fraction(1, 2)})
    assert (f + g).support() == [0]
    assert (f - f).is_zero
    assert (-f).l1_norm() == 1
    assert f.scaled(4).l1_norm() == 4
    assert f.total() == 0
    assert f.restrict([0]).support() == [0]
    assert f.sum_over([0, 1]) == 0
    assert f.norm_over([1]) == Fraction(1, 2)


# Plain-Fraction references for the integer kernels of convolve and
# measure_derivative.


def _reference_convolve(weights, values, act):
    acc = {}
    for gamma, w in weights.items():
        for y, v in values.items():
            x = act(gamma, y)
            acc[x] = acc.get(x, Fraction(0)) + w * v
    return SparseFunction(acc)


def _reference_derivative(group, weights, phi):
    inv = group.inverse(phi)
    gammas = set(weights) | {group.multiply(s, inv) for s in weights}
    return sum((abs(weights.get(group.multiply(gamma, phi), Fraction(0))
                    - weights.get(gamma, Fraction(0))) for gamma in gammas),
               Fraction(0))


def _translation(rank):
    group = FreeAbelianGroup(rank)
    points = list(product(range(-3, 4), repeat=rank))
    return (group, points, lambda g, x: tuple(a + b for a, b in zip(g, x)),
            st.tuples(*[st.integers(-3, 3)] * rank))


def _cyclic_table(n):
    # a move table, as set-action documents give one: element i rotates
    # the n-cycle of points by i and fixes the extra point "c"
    group = cyclic_group(n)
    moves = {g: {"p%d" % j: "p%d" % ((i + j) % n) for j in range(n)}
             for i, g in enumerate(group.elements)}
    return (group, ["p%d" % j for j in range(n)] + ["c"],
            lambda g, x: moves[g].get(x, x), st.sampled_from(group.elements))


@st.composite
def _diffusion_cases(draw):
    group, points, act, elements = draw(st.one_of(
        st.sampled_from((1, 2)).map(_translation),
        st.integers(1, 6).map(_cyclic_table)))
    raw = draw(st.dictionaries(elements, st.sampled_from(
        [Fraction(1, 3), Fraction(1, 4), Fraction(5, 12), Fraction(1, 2),
         Fraction(2, 7), Fraction(0)]), min_size=1, max_size=6))
    total = sum(raw.values())
    if total == 0:
        raw[next(iter(raw))] = total = Fraction(1)
    weights = {el: w / total for el, w in raw.items()}
    values = draw(st.dictionaries(
        st.sampled_from(points),
        st.fractions(-3, 3, max_denominator=12), max_size=6))
    return (group, weights, ActionOnSet(group, points, act), values,
            draw(elements))


def test_measure_derivative_on_a_nonabelian_group():
    # mu(gamma*phi) and mu(phi*gamma) differ here, so a derivative that
    # shifted on the wrong side would not match the reference
    group = symmetric_group_3()
    weights = {"012": Fraction(1, 2), "102": Fraction(1, 3),
               "120": Fraction(1, 6)}
    mu = FiniteSupportMeasure(group, weights)
    for phi in group.elements:
        assert measure_derivative(mu, phi) == _reference_derivative(
            group, weights, phi)


def test_measure_derivative_refuses_a_table_that_fails_the_group_laws():
    # a has the inverse a, but b*a = a*a = e: right multiplication by
    # a^-1 folds the support {a, b} onto one element
    group = FiniteGroup(["e", "a", "b"],
                        {"e": {"e": "e", "a": "a", "b": "b"},
                         "a": {"e": "a", "a": "e", "b": "a"},
                         "b": {"e": "b", "a": "e", "b": "b"}})
    assert group.validate()
    mu = uniform_measure(group, ["a", "b"])
    with pytest.raises(StructureError, match="not injective"):
        measure_derivative(mu, "a")


@settings(max_examples=100)
@given(_diffusion_cases())
def test_integer_kernels_match_the_fraction_reference(case):
    group, weights, a, values, phi = case
    mu = FiniteSupportMeasure(group, weights)
    f = SparseFunction(values)
    out = convolve(mu, f, a)
    assert out == _reference_convolve(weights, values, a.act)
    assert out.total() == f.total()
    assert out.l1_norm() <= f.l1_norm()
    assert measure_derivative(mu, phi) == _reference_derivative(
        group, weights, phi)
