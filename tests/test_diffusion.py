"""Convolution diffusion: measures, Folner boxes, local stages, vanishing."""

import copy
import functools
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
import reference
from conftest import (POINT_PARTS, cone_action, symmetric_group_3,
                      wheel_action)
from hypothesis import given, settings
from hypothesis import strategies as st

from multicomplex import diffusion
from multicomplex.actions import GroupAction, act_on_chain, validate_action
from multicomplex.chains import (
    RING_RAT,
    AlgebraicSimplex,
    Chain,
    HomologyResult,
    alternate,
    build_full_chain_complex,
    build_reduced_chain_complex,
)
from multicomplex.core import (
    InternalInvariantError,
    Multicomplex,
    MulticomplexError,
    SimplicialMap,
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
from multicomplex.formats import (group_from_doc, group_to_doc,
                                  measure_from_doc, measure_to_doc,
                                  set_action_from_doc)
from multicomplex.groups import (FiniteGroup, FreeAbelianGroup, cyclic_group,
                                 generating_set)


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
    # repeated elements add up before the weights are checked
    assert FiniteSupportMeasure(Z, [((0,), Fraction(-1, 2)),
                                    ((0,), Fraction(3, 2))]).items() == [
        ((0,), 1)]
    mu = FiniteSupportMeasure(Z, [((0,), Fraction(2, 4)), ((1,), 0),
                                  ((2,), sixth), ((3,), sixth), ((2,), sixth)])
    # the least denominator over nonzero numerators
    assert mu.numerators() == (6, {(0,): 3, (2,): 2, (3,): 1})
    assert len(mu) == 3
    assert measure_from_doc(measure_to_doc(mu)).items() == mu.items()


def test_delta_convolution_translates():
    pts = list(range(-5, 6))
    a = _z_action(pts)
    f = SparseFunction({0: Fraction(2), 1: Fraction(-1)})
    g = convolve(delta_measure(Z, (1,)), f, a)
    assert g.numerators() == (1, {1: 2, 2: -1})
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


def test_folner_measure_refuses_a_box_whose_derivative_is_too_large(
        monkeypatch):
    """The box side is chosen so that the derivative is below epsilon; a
    derivative that reads epsilon once is a broken invariant, not a
    reason to try a larger box."""
    real = diffusion.derivative_norm
    reads = []

    def at_epsilon_once(mu, phis):
        reads.append(len(mu))
        return Fraction(1, 10) if len(reads) == 1 else real(mu, phis)
    monkeypatch.setattr(diffusion, "derivative_norm", at_epsilon_once)
    with pytest.raises(InternalInvariantError, match="side 21 has "
                       "derivative 1/10, not below 1/10"):
        folner_measure(Z, [(1,), (-1,)], Fraction(1, 10))
    assert reads == [21]


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
    assert validate_action_on_set(_two_block_action()) == []


def test_validate_action_on_set_catches_identity_failures():
    bad = ActionOnSet(Z, [0, 1, 2], lambda g, x: (x + g[0]) % 3 if g != (0,)
                      else (x + 1) % 3)
    assert any("identity" in p for p in validate_action_on_set(bad))


def test_blocks_must_partition():
    c2 = cyclic_group(2)
    b1 = OrbitBlock([0, 1], c2, lambda g, x: x if g == "r0" else 1 - x,
                    horizon=1)
    b2 = OrbitBlock([1, 2], c2, lambda g, x: x if g == "r0" else 3 - x,
                    horizon=1)
    a = ActionOnSet(None, [0, 1, 2], None, blocks=[b1, b2])
    assert any("partition" in p or "overlap" in p
               for p in validate_action_on_set(a))


def test_validate_action_on_set_names_each_block_problem():
    # block 0 swaps 0 and 1 but also sends 10 to 0, out of block 1;
    # block 1 swaps 10 and 11; block 2 is Z turning 20 and 21 and also
    # sending 11 to 21.  Block 1's horizon 0 puts blocks 0 and 2 past
    # it, and block 0's horizon 1 puts block 1 past it; block 2 moves
    # nothing block 0 guards.  Neither block 0 nor block 2 acts on the
    # points: 10 and 11 do not come back.
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
    assert validate_action_on_set(a) == [
        "block 0: composition fails at ('r1', 'r1', 10)",
        "subgroup of block 0 moves 10 out of block 1",
        "block 2: composition fails at ((3,), (3,), 11)",
        "block 2: composition fails at ((3,), (-1,), 11)",
        "block 2: composition fails at ((-1,), (3,), 11)",
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
                     AlgebraicSimplex("south", ("x", "y")): -1}, RING_RAT)
    out, cert = toy_vanish(mc, a, z, Fraction(1, 100))
    assert out.l1_norm() == 0
    assert cc.boundary_of(cert.bounding_chain) == out - z


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
    bounding = HomologyResult(build_full_chain_complex(mc), RING_RAT) \
        .is_boundary(c - z)
    assert (out, cert.bounding_chain) == reference.toy_vanish_average(
        a, c, bounding, cert.witnesses)


def test_toy_vanish_rejects_class_flip_with_witness():
    mc = double_edge()
    a = double_edge_swap_action()
    cc = build_reduced_chain_complex(mc)
    z = cc.chain(1, {AlgebraicSimplex("north", ("x", "y")): 1,
                     AlgebraicSimplex("south", ("x", "y")): -1}, RING_RAT)
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
                     AlgebraicSimplex("cy", ("c", "y")): -1}, RING_RAT)
    with pytest.raises(DiffusionError) as err:
        toy_vanish(mc, a, z, Fraction(1, 4))
    assert str(err.value) == (
        "the alternation of z has nonzero total 1/2 on the orbit of "
        "(cx;c,x); group averaging cannot cancel it there")


_VANISH_FIXTURES = [(cone_over_double_edge, cone_swap_action),
                    (double_edge, antipodal_action),
                    (double_edge, double_edge_swap_action),
                    (lambda: triangle_symmetries().complex,
                     triangle_symmetries),
                    (lambda: wheel_action(4).complex,
                     lambda: wheel_action(4)),
                    (lambda: cone_action(3).complex, lambda: cone_action(3))]


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
    cc = build_full_chain_complex(mc)
    hom = HomologyResult(cc, RING_RAT)
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


_POINTS = [0, 1, 2, 3, "a", "b", (0, 1)]
_VALUES = st.one_of(st.just(Fraction(0)),
                    st.fractions(-3, 3, max_denominator=12))
# repeated points add up; a mapping has none
_FUNCTION_VALUES = st.one_of(
    st.lists(st.tuples(st.sampled_from(_POINTS), _VALUES), max_size=8),
    st.dictionaries(st.sampled_from(_POINTS), _VALUES, max_size=6))


def _check_against(f, ref):
    """f gives what the Fraction reference gives and keeps the least
    denominator."""
    assert f.items() == ref.items()
    assert f.support() == ref.support()
    assert repr(f) == repr(ref)
    assert f.is_zero == ref.is_zero
    assert f._den == lcm(*(v.denominator for _, v in ref.items()))
    assert all(f._num.values())


@settings(max_examples=200)
@given(_FUNCTION_VALUES, _FUNCTION_VALUES,
       st.lists(st.sampled_from(_POINTS), max_size=5),
       st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=6)))
def test_sparse_function_matches_the_fraction_reference(values, other,
                                                        points, factor):
    f, ref = SparseFunction(values), reference.SparseFunction(values)
    g, gref = SparseFunction(other), reference.SparseFunction(other)
    _check_against(f, ref)
    den, num = f.numerators()
    for x in _POINTS:
        assert Fraction(num.get(x, 0), den) == ref.value(x)
    assert f.l1_norm() == ref.l1_norm()
    assert f.total() == ref.total()
    assert f.sum_over(points) == ref.sum_over(points)
    assert f.norm_over(points) == ref.norm_over(points)
    for got, want in ((f + g, ref + gref), (f - g, ref - gref), (-f, -ref),
                      (f.scaled(factor), ref.scaled(factor)),
                      (f.scaled(0), ref.scaled(0)),
                      (f.restrict(points), ref.restrict(points))):
        _check_against(got, want)
    assert (f == g) == (ref == gref)
    assert f == SparseFunction(ref.items()) and f != ref.items()


@st.composite
def _block_dipoles(draw, nblocks=24):
    """A truncated action of nblocks cyclic blocks, as the local-diffuse
    benchmark slot builds them, with one dipole on each block."""
    blocks, values = [], []
    for b in range(nblocks):
        k = draw(st.integers(2, 5))
        pts = ["b%dp%d" % (b, i) for i in range(k)]
        group = cyclic_group(k)
        moves = {g: {pts[i]: pts[(i + j) % k] for i in range(k)}
                 for j, g in enumerate(group.elements)}
        blocks.append(OrbitBlock(pts, group,
                                 lambda g, x, moves=moves: moves[g].get(x, x),
                                 horizon=b + 1))
        x, y = draw(st.permutations(pts))[:2]
        w = draw(st.fractions(Fraction(1, 9), 5, max_denominator=9))
        values += [(x, w), (y, -w)]
    points = [x for b in blocks for x in b.points]
    budgets = [Fraction(1, draw(st.integers(2, 16))) for _ in blocks]
    return (ActionOnSet(None, points, None, blocks=blocks), values, budgets,
            draw(st.integers(0, nblocks)))


@settings(max_examples=20)
@given(_block_dipoles())
def test_local_diffuse_keeps_the_least_denominator(case):
    a, values, budgets, threshold = case
    out = local_diffuse(a, SparseFunction(values), budgets, threshold)
    # every stage of a finite block convolves by its uniform measure
    ref = reference.SparseFunction(values)
    for b in a.blocks:
        weights = {g: Fraction(1, len(b.group)) for g in b.group.elements}
        ref = _reference_convolve(weights, dict(ref.items()), b.act)
    _check_against(out, ref)


# Plain-Fraction references for the integer kernels of convolve and
# measure_derivative.


def _reference_convolve(weights, values, act):
    acc = {}
    for gamma, w in weights.items():
        for y, v in values.items():
            x = act(gamma, y)
            acc[x] = acc.get(x, Fraction(0)) + w * v
    return reference.SparseFunction(acc)


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


@st.composite
def _translation_convolutions(draw):
    """A measure on Z^rank and a function whose points are strings of
    POINT_PARTS (moved, fixed and non-canonical ones) or ints."""
    rank = draw(st.integers(1, 3))
    raw = draw(st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * rank),
        st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)]),
        min_size=1, max_size=6))
    total = sum(raw.values())
    weights = {el: w / total for el, w in raw.items()}
    points = st.one_of(
        st.lists(st.sampled_from(POINT_PARTS), min_size=1,
                 max_size=3).map(",".join),
        st.integers(-3, 3))
    values = draw(st.dictionaries(points, st.fractions(
        -3, 3, max_denominator=12), max_size=6))
    return rank, weights, values


@settings(max_examples=200)
@given(_translation_convolutions())
def test_convolve_on_a_translation_document_matches_the_reference(case):
    rank, weights, values = case
    group = FreeAbelianGroup(rank)
    a = set_action_from_doc({"schema_version": 1,
                             "points": [],
                             "group": group_to_doc(group),
                             "action": {"kind": "translation"}})
    # the oracle has a chart, which only a box measure reads
    assert a.oracle().coords is not None
    out = convolve(FiniteSupportMeasure(a.group, weights),
                   SparseFunction(values), a)
    _check_against(out, _reference_convolve(
        weights, values, functools.partial(reference.translate, rank)))


def _box(rank, side):
    """The uniform measure on {0..side-1}^rank, as folner_measure builds
    it for one unit step (no step at all for side 1)."""
    steps = [(1,) + (0,) * (rank - 1)] if side > 1 else []
    mu = folner_measure(FreeAbelianGroup(rank), steps,
                        Fraction(2, max(side - 1, 1)))
    assert (mu.side, len(mu)) == (side, side ** rank)
    return mu


@st.composite
def _box_convolutions(draw):
    """A Folner box on Z^rank and a function of up to 6 points: moved
    ones, written in more than one way, with partners whose boxes overlap
    and cancel theirs there (or everywhere, at the same coordinates), and
    points the chart fixes."""
    rank = draw(st.integers(1, 3))
    side = draw(st.integers(1, 7))
    spot = st.tuples(*[st.integers(-4, 4)] * rank)
    spellings = st.sampled_from(["%d", "%+d", " %d "])

    def written(c):
        return ",".join(draw(spellings) % x for x in c)
    masses = st.fractions(-3, 3, max_denominator=6).filter(bool)
    values = {}
    for _ in range(draw(st.integers(0, 3))):
        c, v = draw(spot), draw(masses)
        values[written(c)] = v
        if draw(st.booleans()):
            step = draw(st.tuples(*[st.integers(-2, 2)] * rank))
            values[written(tuple(x + d for x, d in zip(c, step)))] = -v
    others = st.one_of(st.lists(st.sampled_from(POINT_PARTS), min_size=1,
                                max_size=3).map(",".join),
                       st.integers(-3, 3))
    values.update(draw(st.dictionaries(others, masses,
                                       max_size=6 - len(values))))
    return rank, side, values


@settings(max_examples=200)
@given(_box_convolutions())
def test_the_box_sweep_matches_the_reference(case):
    rank, side, values = case
    a = set_action_from_doc({"schema_version": 1,
                             "points": [],
                             "group": group_to_doc(FreeAbelianGroup(rank)),
                             "action": {"kind": "translation"}})
    mu = _box(rank, side)
    f = SparseFunction(values)
    out = convolve(mu, f, a)
    _check_against(out, _reference_convolve(
        dict(mu.items()), values, functools.partial(reference.translate,
                                                    rank)))
    assert out.total() == f.total()


@st.composite
def _box_shifts(draw):
    """A box side in Z^rank and a shift phi: 0, or one with each |phi_i|
    up to the side plus 1, so that some shifts leave the box."""
    rank, side = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    phi = draw(st.one_of(
        st.just((0,) * rank),
        st.tuples(*[st.integers(-side - 1, side + 1)] * rank)))
    return rank, side, phi


@settings(max_examples=100)
@given(_box_shifts())
def test_the_box_derivative_in_closed_form_matches_the_reference(case):
    rank, side, phi = case
    mu = _box(rank, side)
    assert measure_derivative(mu, phi) == _reference_derivative(
        mu.group, dict(mu.items()), phi)


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
    _check_against(out, _reference_convolve(weights, values, a.act))
    assert out.total() == f.total()
    assert out.l1_norm() <= f.l1_norm()
    assert measure_derivative(mu, phi) == _reference_derivative(
        group, weights, phi)


# The work of validate_action_on_set and local_diffuse follows the points
# a move table names, and that of toy_vanish the generators.


def _block_docs(rng, nblocks):
    """Cyclic table blocks of 4 to 8 points, as the local-diffuse
    benchmark slot builds them."""
    blocks = []
    for b in range(nblocks):
        k = rng.randint(4, 8)
        pts = ["b%dp%d" % (b, i) for i in range(k)]
        group = cyclic_group(k)
        moves = {g: {pts[i]: pts[(i + j) % k] for i in range(k)}
                 for j, g in enumerate(group.elements)}
        blocks.append({"points": pts, "group": group_to_doc(group),
                       "action": {"kind": "table", "moves": moves},
                       "horizon": b + 1})
    return blocks


def _counted(act, calls):
    @functools.wraps(act)  # which keeps the table's named points
    def counted(g, x):
        calls.append((g, x))
        return act(g, x)
    return counted


@pytest.mark.parametrize("nblocks", [8, 24, 48])
def test_validate_action_on_set_reads_each_table_at_its_own_points(nblocks):
    blocks = _block_docs(random.Random(nblocks), nblocks)
    a = set_action_from_doc({"schema_version": 1, "blocks": blocks,
                             "points": [x for b in blocks
                                        for x in b["points"]]})
    calls = []
    for b in a.blocks:
        b.act = _counted(b.act, calls)
    assert validate_action_on_set(a) == []
    # each element on each point of its block, twice over: the checks
    # of a block grow with the block, not with the whole set
    assert len(calls) <= 2 * sum(len(b.group) * len(b.points)
                                 for b in a.blocks)


def test_blocks_with_equal_group_documents_share_one_checked_group(
        monkeypatch):
    blocks = _block_docs(random.Random(24), 24)
    sizes = {len(b["points"]) for b in blocks}
    checked = []
    validate, gens = FiniteGroup.validate, diffusion.generating_set
    monkeypatch.setattr(FiniteGroup, "validate",
                        lambda g: checked.append(g) or validate(g))
    monkeypatch.setattr(diffusion, "generating_set",
                        lambda g: checked.append(g) or gens(g))
    a = set_action_from_doc({"schema_version": 1, "blocks": blocks,
                             "points": [x for b in blocks
                                        for x in b["points"]]})
    assert len({id(b.group) for b in a.blocks}) == len(sizes) < len(blocks)
    assert validate_action_on_set(a) == []
    # one table check and one generating set per group object
    assert len(checked) == 2 * len(sizes)


def test_toy_vanish_solves_once_per_generator_and_once_for_the_alternation(
        monkeypatch):
    a = cone_action(12)
    solve = HomologyResult.is_boundary
    calls = []

    def counted(self, chain):
        calls.append(chain)
        return solve(self, chain)
    monkeypatch.setattr(HomologyResult, "is_boundary", counted)
    z = Chain(1, RING_RAT, {AlgebraicSimplex("e3", ("x", "y")): 2,
                            AlgebraicSimplex("e8", ("x", "y")): -2})
    out, cert = toy_vanish(a.complex, a, z, Fraction(1, 4))
    assert len(calls) == len(generating_set(a.group)) + 1 == 2
    monkeypatch.undo()
    hom = HomologyResult(build_full_chain_complex(a.complex), RING_RAT)
    # the full complex of the cone has 2-cycles, so witnesses are not
    # unique, but here the built ones are those a solve per element finds
    assert hom.structure(2)[0] > 0
    assert cert.witnesses == reference.class_witnesses(a, hom, z)
    assert list(cert.witnesses) == list(a.group.elements)


def _suspension_action(k):
    """Z/k on the suspension, with apexes c and d, of k parallel edges
    e0, e1, ... from x to y, whose triangles t_i over c and u_i over d
    share e_i; r_j turns e_i, t_i and u_i to e_{i+j}, t_{i+j} and
    u_{i+j}, mod k, and fixes every vertex.  The class witnesses
    built from the generators' differ from those a solve per element
    finds."""
    triples = [(v, {v}, {}) for v in "cdxy"]
    triples += [(p + v, {p, v}, {frozenset(p): p, frozenset(v): v})
                for p in "cd" for v in "xy"]
    for i in range(k):
        triples.append(("e%d" % i, {"x", "y"},
                        {frozenset("x"): "x", frozenset("y"): "y"}))
        for p, t in (("c", "t"), ("d", "u")):
            triples.append(("%s%d" % (t, i), {p, "x", "y"},
                            {frozenset(p + "x"): p + "x",
                             frozenset(p + "y"): p + "y",
                             frozenset("xy"): "e%d" % i}))
    mc = Multicomplex("cdxy", triples)
    group = cyclic_group(k)
    maps = {}
    for j, g in enumerate(group.elements):
        smap = {s: s for s in mc.simplex_ids}
        for i in range(k):
            for t in "etu":
                smap["%s%d" % (t, i)] = "%s%d" % (t, (i + j) % k)
        maps[g] = SimplicialMap(mc, mc, {v: v for v in "cdxy"}, smap)
    return GroupAction(group, mc, maps)


@pytest.mark.parametrize("k,i,j", [(3, 0, 1), (4, 0, 2), (5, 1, 4)])
def test_toy_vanish_builds_witnesses_that_are_not_unique(k, i, j):
    a = _suspension_action(k)
    assert validate_action(a) == []
    cc = build_full_chain_complex(a.complex)
    hom = HomologyResult(cc, RING_RAT)
    z = Chain(1, RING_RAT, {AlgebraicSimplex("e%d" % i, ("x", "y")): 3,
                            AlgebraicSimplex("e%d" % j, ("y", "x")): 3})
    out, cert = toy_vanish(a.complex, a, z, Fraction(1, 100))
    assert cert.witnesses != reference.class_witnesses(a, hom, z)
    for g, w in cert.witnesses.items():
        assert cc.boundary_of(w) == act_on_chain(a, g, z) - z
    assert cc.boundary_of(cert.bounding_chain) == out - z
    c = alternate(z)
    want, bounding = reference.toy_vanish_average(
        a, c, hom.is_boundary(c - z), cert.witnesses)
    assert (out, out.l1_norm(), cert.bounding_chain) == (
        want, want.l1_norm(), bounding)


def _klein_on_the_double_edge():
    """Z/2 x Z/2 = {e, b, a, ab} on the double edge, listed in that
    order: a and ab swap north and south, b fixes everything.  Its
    generating set is [b, a], so the first generator keeps the class
    of the circle and the second turns it round."""
    mc = double_edge()
    bits = {"e": 0, "b": 2, "a": 1, "ab": 3}
    name = {v: g for g, v in bits.items()}
    names = list(bits)
    group = FiniteGroup(names, {g: {h: name[bits[g] ^ bits[h]]
                                    for h in names} for g in names})
    fix = {s: s for s in mc.simplex_ids}
    swap = dict(fix, north="south", south="north")
    maps = {g: SimplicialMap(mc, mc, {v: v for v in mc.vertices},
                             swap if bits[g] & 1 else fix) for g in names}
    return GroupAction(group, mc, maps)


@pytest.mark.parametrize("make", [double_edge_swap_action,
                                  _klein_on_the_double_edge])
def test_toy_vanish_names_the_element_a_solve_per_element_names(make):
    a = make()
    assert validate_action(a) == []
    z = Chain(1, RING_RAT, {AlgebraicSimplex("north", ("x", "y")): 1,
                            AlgebraicSimplex("south", ("x", "y")): -1})
    hom = HomologyResult(build_full_chain_complex(a.complex), RING_RAT)
    with pytest.raises(DiffusionError) as want:
        reference.class_witnesses(a, hom, z)
    with pytest.raises(DiffusionError) as got:
        toy_vanish(a.complex, a, z, Fraction(1, 4))
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness is not None


def _table_rows(rng, points, group, images):
    """The move rows of group on points, where images(g) lists the
    image of each point; a row leaves out fixed points one time in two."""
    drop = rng.random() < 0.5
    return {g: {x: y for x, y in zip(points, images(g))
                if not (drop and x == y)} for g in group.elements}


def _set_action_doc(rng):
    """A set-action document of table blocks of 1 to 4 points, and one
    time in two a table ambient action copying the first block's; the
    points are listed in a shuffled order, and a block of one point may
    name none."""
    blocks = []
    for b in range(rng.randint(1, 4)):
        m = rng.randint(1, 4)
        pts = ["b%dp%d" % (b, i) for i in range(m)]
        if m == 3 and rng.random() < 0.5:
            group = symmetric_group_3()
            moves = _table_rows(rng, pts, group, lambda g: [
                pts[int(c)] for c in g])
        else:
            group = cyclic_group(m * rng.randint(1, 2))
            moves = _table_rows(rng, pts, group, lambda g: [
                pts[(i + group.elements.index(g)) % m] for i in range(m)])
        rng.shuffle(pts)
        blocks.append({"points": pts, "group": group_to_doc(group),
                       "action": {"kind": "table", "moves": moves},
                       "horizon": rng.randint(0, 4)})
    doc = {"schema_version": 1, "blocks": blocks,
           "points": [x for b in blocks for x in b["points"]]}
    rng.shuffle(doc["points"])
    if rng.random() < 0.5:
        doc["group"] = blocks[0]["group"]
        doc["action"] = {"kind": "table",
                         "moves": copy.deepcopy(
                             blocks[0]["action"]["moves"])}
    return doc


def _tamper(rng, doc, how):
    """Break one table of doc in the named way."""
    tables = [b["action"]["moves"] for b in doc["blocks"]]
    groups = [b["group"] for b in doc["blocks"]]
    if "action" in doc:
        tables.append(doc["action"]["moves"])
        groups.append(doc["group"])
    i = rng.randrange(len(tables))
    moves, group = tables[i], group_from_doc(groups[i])
    own = doc["blocks"][i]["points"] if i < len(doc["blocks"]) \
        else doc["blocks"][0]["points"]
    named = sorted({x for row in moves.values() for x in (*row, *row.values())})
    g = rng.choice([h for h in group.elements if h != group.identity]
                   or [group.identity])
    x = rng.choice(named or own)
    y = rng.choice([p for p in own if p != x] or own)
    if how == "not bijective":
        moves[g][x] = moves[g].get(y, y)
    elif how == "into another block":
        moves[g][x] = rng.choice(doc["points"])
    elif how == "identity moves":
        moves[group.identity][x] = y
    elif how == "outside the enumeration":
        moves[g].update(rng.choice([{x: "out"}, {"out": x}]))
    elif how == "onto an unnamed point":
        unnamed = [p for p in doc["points"] if p not in named]
        moves[g][x] = rng.choice(unnamed or doc["points"])
    elif how == "no row, all rows empty":
        for h in moves:
            moves[h] = {}
        del moves[rng.choice(list(moves))]
    elif how == "over the closure cap":
        # the closure crosses |G| times the points once it holds over
        # (|G| - 1) times as many points outside them
        s = generating_set(group)[0]
        edge = (len(group) - 1) * len(doc["points"])
        chain = [x] + ["o%d" % k for k in range(
            max(1, rng.randint(edge - 2, edge + 2)))]
        moves[s].update(zip(chain, chain[1:]))
    elif how == "one product of a shared table":
        # every block whose group document equals this one shares its
        # group, so each of their labels must report the broken table
        before = copy.deepcopy(groups[i])
        g, h, gh = (rng.choice(group.elements) for _ in range(3))
        for other in groups:
            if other == before:
                other["table"][g][h] = gh


_TAMPERS = ("not bijective", "into another block", "identity moves",
            "outside the enumeration", "onto an unnamed point",
            "no row, all rows empty", "over the closure cap",
            "one product of a shared table")


def _outcome(check, doc):
    try:
        return check(set_action_from_doc(doc))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.randoms(use_true_random=False),
       st.sampled_from((None,) + _TAMPERS))
def test_validate_action_on_set_reports_what_checking_every_point_does(
        rng, how):
    doc = _set_action_doc(rng)
    if how is not None:
        _tamper(rng, doc, how)
    want = _outcome(reference.validate_action_on_set, doc)
    assert _outcome(validate_action_on_set, doc) == want
    if how is None:
        assert want == []


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_local_diffuse_on_move_tables_matches_convolving_every_point(rng):
    blocks = _block_docs(rng, rng.randint(1, 6))
    for b in blocks:  # rows that leave out fixed points, or name none
        if rng.random() < 0.3:
            del b["points"][1:]
            b["action"]["moves"] = {g: {} for g in b["action"]["moves"]}
    doc = {"schema_version": 1, "blocks": blocks,
           "points": [x for b in blocks for x in b["points"]]}
    # a dipole on each block from the threshold on, whose average is 0,
    # and a point mass, which the uniform measure smears, before it
    threshold = rng.randint(0, len(blocks))
    values = {}
    for s, b in enumerate(blocks):
        x, y = rng.sample(b["points"] * 2, 2)
        w = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        values[x] = values.get(x, 0) + w
        if s >= threshold:
            values[y] = values.get(y, 0) - w
    budgets = [Fraction(1, rng.randint(2, 16)) for _ in blocks]
    out = local_diffuse(set_action_from_doc(doc), SparseFunction(values),
                        budgets, threshold)
    everywhere = set_action_from_doc(doc)
    for b in everywhere.blocks:  # an oracle that names no points
        b.act = lambda g, x, act=b.act: act(g, x)
    assert out == local_diffuse(everywhere, SparseFunction(values), budgets,
                                threshold)
