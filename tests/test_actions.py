"""Simplicial group actions: validation, quotients, orbits, averaging."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (cone_action, is_nondegenerate,
                      random_zero_trivial_action, symmetric_group_3,
                      trivial_action, wheel_action)
from multicomplex import actions, formats
from multicomplex.actions import (
    act_on_chain,
    action_from_vertex_maps,
    average_cochain,
    orbits,
    quotient,
    validate_action,
)
from multicomplex.chains import (
    RING_INT,
    RING_RAT,
    AlgebraicSimplex,
    Chain,
    Cochain,
    HomologyResult,
    build_full_chain_complex,
    build_reduced_chain_complex,
)
from multicomplex.core import StructureError, simplicial_complex
from multicomplex.diffusion import ActionOnSet, validate_action_on_set
from multicomplex.groups import cyclic_group
from multicomplex.fixtures import (
    antipodal_action,
    cone_swap_action,
    double_edge_swap_action,
    seven_vertex_torus,
    triangle_symmetries,
)


def test_fixture_actions_validate():
    for a in (double_edge_swap_action(), cone_swap_action(),
              antipodal_action(), triangle_symmetries()):
        assert validate_action(a) == []


def test_zero_triviality_flags():
    for a in (double_edge_swap_action(), cone_swap_action()):
        quotient(a)
    for a in (antipodal_action(), triangle_symmetries()):
        with pytest.raises(StructureError, match="moves vertex"):
            quotient(a)


def test_edge_swap_quotient_is_a_segment():
    quot, proj = quotient(double_edge_swap_action())
    assert quot.validate() == []
    assert sorted(quot.simplex_ids) == ["north", "x", "y"]
    assert quot.dimension == 1
    assert quot.is_simplicial_complex()
    hom = HomologyResult(build_reduced_chain_complex(quot), RING_RAT)
    assert hom.structure(0) == (1, []) and hom.structure(1) == (0, [])
    assert proj.validate() == []
    assert is_nondegenerate(proj)
    assert proj.apply_simplex("south") == "north"


def test_cone_swap_quotient_is_a_solid_triangle():
    quot, proj = quotient(cone_swap_action())
    assert quot.validate() == []
    assert len(quot.simplex_ids) == 7
    assert quot.is_simplicial_complex()
    hom = HomologyResult(build_reduced_chain_complex(quot), RING_RAT)
    assert [hom.structure(n)[0] for n in (0, 1, 2)] == [1, 0, 0]


def test_antipodal_quotient_rejected_with_explanation():
    with pytest.raises(StructureError) as err:
        quotient(antipodal_action())
    assert "moves vertex" in str(err.value)


def test_quotient_projection_covers_every_simplex():
    a = cone_swap_action()
    quot, proj = quotient(a)
    assert {proj.apply_simplex(s) for s in a.complex.simplex_ids} == \
        set(quot.simplex_ids)


def test_orbits_of_the_double_edge():
    orbs = orbits(double_edge_swap_action(), 1)
    assert len(orbs) == 2
    assert all(len(orb) == 2 for orb in orbs)
    key = AlgebraicSimplex("north", ("x", "y"))
    (orb,) = [orb for orb in orbs if key in orb]
    assert AlgebraicSimplex("south", ("x", "y")) in orb
    # sorted tuples in order of least member
    assert orbs == tuple(sorted(tuple(sorted(orb)) for orb in orbs))


def test_orbits_of_the_triangle_symmetries():
    a = triangle_symmetries()
    for k in (1, 2):
        (orb,) = orbits(a, k)
        assert len(orb) == 6


def test_act_on_chain_is_linear_and_invertible():
    a = triangle_symmetries()
    cc = build_full_chain_complex(a.complex)
    c = Chain(1, RING_RAT, {AlgebraicSimplex("x,y", ("x", "y")): 2,
                            AlgebraicSimplex("y,z", ("y", "z")): -1})
    g = "xy"
    img = act_on_chain(a, g, c)
    assert img.l1_norm() == c.l1_norm()
    assert act_on_chain(a, g, img) == c  # the transposition is an involution
    assert cc.boundary_of(img) == act_on_chain(a, g, cc.boundary_of(c))


def test_average_cochain_is_projection_onto_invariants():
    a = double_edge_swap_action()
    phi = Cochain(1, RING_RAT, {AlgebraicSimplex("north", ("x", "y")): 1})
    avg = average_cochain(a, phi)
    assert avg.coefficient(AlgebraicSimplex("north", ("x", "y"))) == \
        Fraction(1, 2)
    assert avg.coefficient(AlgebraicSimplex("south", ("x", "y"))) == \
        Fraction(1, 2)
    assert avg.linf_norm() <= phi.linf_norm()
    assert average_cochain(a, avg) == avg


_FIXTURE_ACTIONS = (double_edge_swap_action, cone_swap_action,
                    antipodal_action, triangle_symmetries)


@st.composite
def _averaging_cases(draw):
    """An action (a fixture, a random vertex-fixing one, a dihedral one on
    a wheel or a cyclic one on a cone) and a chain or cochain on basis
    elements of one degree, over Z or Q."""
    a = draw(st.sampled_from(_FIXTURE_ACTIONS).map(lambda f: f()) |
             st.integers(0, 10**6).map(
                 lambda s: random_zero_trivial_action(random.Random(s))) |
             st.integers(3, 6).map(wheel_action) |
             st.integers(1, 4).map(cone_action))
    mc = a.complex
    k = draw(st.integers(0, mc.dimension))
    keys = [AlgebraicSimplex(sid, tup)
            for sid in sorted(mc.simplices_of_dimension(k))
            for tup in permutations(sorted(mc.vertex_set(sid)))]
    ring = draw(st.sampled_from((RING_INT, RING_RAT)))
    dens = st.just(1) if ring == RING_INT else st.integers(1, 6)
    terms = draw(st.lists(st.tuples(st.sampled_from(keys),
                                    st.integers(-4, 4), dens), max_size=8))
    kind = draw(st.sampled_from((Chain, Cochain)))
    return a, kind(k, ring, [(key, Fraction(n, d)) for key, n, d in terms])


@given(_averaging_cases())
def test_average_matches_the_reference_and_projects_onto_invariants(case):
    a, x = case
    avg = average_cochain(a, x)
    assert type(avg) is type(x)
    assert (avg.degree, avg.ring) == (x.degree, RING_RAT)
    assert avg.items() == reference.average_cochain(a, x).items()
    for g in a.group.elements:
        assert act_on_chain(a, g, avg).items() == avg.items()
    assert average_cochain(a, avg) == avg
    for orb in orbits(a, x.degree):  # the total on every orbit is kept
        assert sum(avg.coefficient(key) for key in orb) == \
            sum(x.coefficient(key) for key in orb)


def test_the_average_moves_each_orbit_met_once(monkeypatch):
    """Averaging the spokes of the 30-spoke wheel under its dihedral
    group of order 60 walks the group once per orbit met: 120 moves for
    the two orbits of ordered spokes, not one per element and term."""
    a = wheel_action(30)
    spokes = [AlgebraicSimplex(sid, vs)
              for sid in sorted(a.complex.simplices_of_dimension(1))
              if "c" in a.complex.vertex_set(sid)
              for vs in permutations(sorted(a.complex.vertex_set(sid)))]
    phi = Cochain(1, RING_RAT, {key: i for i, key in enumerate(spokes, 1)})
    met = {orb for orb in orbits(a, 1) if not set(orb).isdisjoint(spokes)}
    calls = []
    moved = actions._moved
    monkeypatch.setattr(actions, "_moved",
                        lambda m, key: calls.append(key) or moved(m, key))
    avg = average_cochain(a, phi)
    assert len(spokes) == 60 and len(met) == 2
    assert len(calls) <= len(a.group) * len(met) == 120
    assert avg.items() == reference.average_cochain(a, phi).items()


def _quotient_betti(a):
    quot, _ = quotient(a)
    hom = HomologyResult(build_reduced_chain_complex(quot), RING_RAT)
    return {n: hom.structure(n)[0] for n in range(quot.dimension + 1)}


def test_invariant_cochain_dimensions_match_quotient_homology():
    for a in (double_edge_swap_action(), cone_swap_action()):
        assert reference.invariant_cochain_cohomology(a) == \
            _quotient_betti(a)


def test_trivial_action_reproduces_plain_cohomology():
    mc = seven_vertex_torus()
    dims = reference.invariant_cochain_cohomology(trivial_action(mc))
    assert dims == {0: 1, 1: 2, 2: 1}


def test_action_from_vertex_maps_builds_symmetries():
    mc = simplicial_complex([("x", "y", "z")])
    a = action_from_vertex_maps(mc, {
        "e": {"x": "x", "y": "y", "z": "z"},
        "r": {"x": "y", "y": "z", "z": "x"},
        "rr": {"x": "z", "y": "x", "z": "y"},
    })
    assert validate_action(a) == []
    assert len(orbits(a, 1)) == 2  # two chiralities of the edges


def test_action_from_vertex_maps_rejects_parallel_simplices():
    from multicomplex.fixtures import double_edge
    with pytest.raises(StructureError):
        action_from_vertex_maps(double_edge(), {"e": {"x": "x", "y": "y"}})


def test_random_zero_trivial_actions_validate_and_quotient():
    rng = random.Random(41)
    for _ in range(10):
        a = random_zero_trivial_action(rng)
        assert validate_action(a) == []
        quot, proj = quotient(a)
        assert quot.validate() == []
        assert proj.validate() == []
        assert reference.invariant_cochain_cohomology(a) == \
            _quotient_betti(a)


def _s3_on_the_triangle():
    """symmetric_group_3, each element permuting the vertices 0, 1, 2 of
    a solid triangle as its name says."""
    mc = simplicial_complex([("0", "1", "2")])
    return action_from_vertex_maps(mc, {
        g: {str(i): g[i] for i in range(3)}
        for g in symmetric_group_3().elements})


_TABLE_ACTIONS = [
    lambda data: random_zero_trivial_action(
        random.Random(data.draw(st.integers(0, 10**6)))),
    lambda data: wheel_action(data.draw(st.integers(3, 5))),
    lambda data: cone_action(data.draw(st.integers(2, 5))),
    lambda data: _s3_on_the_triangle(),
]


@settings(max_examples=200)
@given(st.data())
def test_the_generator_checks_fail_exactly_when_the_exhaustive_ones_do(data):
    """One entry of a table action is changed: a product, a vertex or
    simplex image (or its removal), or up to three moves of the same maps
    given as a set action; or nothing is."""
    a = data.draw(st.sampled_from(_TABLE_ACTIONS))(data)
    mc, group = a.complex, a.group
    doc = formats.action_to_doc(a)
    g = data.draw(st.sampled_from(group.elements))
    kind = data.draw(st.sampled_from(
        ["product", "vertex", "simplex", "undefined", "move", "none"]))
    if kind == "product":
        h = data.draw(st.sampled_from(group.elements))
        doc["table"][g][h] = data.draw(st.sampled_from(group.elements))
    elif kind in ("vertex", "simplex"):
        ids = mc.vertices if kind == "vertex" else mc.simplex_ids
        doc["maps"][g][kind + "_map"][data.draw(st.sampled_from(ids))] = \
            data.draw(st.sampled_from(ids))
    elif kind == "undefined":
        field = data.draw(st.sampled_from(["vertex_map", "simplex_map"]))
        del doc["maps"][g][field][data.draw(st.sampled_from(
            sorted(doc["maps"][g][field])))]
    if kind != "move":
        b = formats.action_from_doc(doc, mc)
        assert bool(validate_action(b)) == bool(reference.validate_action(b))
        return
    # the simplex maps as a set action on some of the simplices; up to
    # three moves change anywhere, and a point may move off the simplices
    # and on from there
    ids = list(mc.simplex_ids)
    points = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                unique=True))
    moves = {h: dict(a.map_of(h).simplex_map) for h in group.elements}
    off = ids + ["elsewhere", "beyond"]
    for _ in range(data.draw(st.integers(1, 3))):
        h = data.draw(st.sampled_from(group.elements))
        moves[h][data.draw(st.sampled_from(off))] = data.draw(
            st.sampled_from(off))
    act = lambda h, x: moves[h].get(x, x)  # noqa: E731
    problems = validate_action_on_set(ActionOnSet(group, points, act))
    assert bool(problems) == bool(reference.composition_problems(
        group, act, points))


def test_a_set_action_is_checked_where_its_generators_carry_the_points():
    group = cyclic_group(3)
    # r1 turns x, y, z, so every check with the generator r1 at x passes,
    # yet r2 after r2 sends x to w, not to y; the checks at y and z find
    # it
    moves = {"r0": {}, "r1": {"x": "y", "y": "z", "z": "x"},
             "r2": {"x": "z", "y": "x", "z": "w"}}
    act = lambda g, x: moves[g].get(x, x)  # noqa: E731
    assert reference.composition_problems(group, act, ["x"])
    assert validate_action_on_set(ActionOnSet(group, ["x"], act)) == [
        "ambient action: composition fails at ('r1', 'r1', 'z')",
        "ambient action: composition fails at ('r2', 'r1', 'y')"]
    # r1 carries x to y, y to z and z to w: an orbit of four points is
    # more than Z/3 makes of one
    moves["r1"]["z"] = "w"
    assert reference.composition_problems(group, act, ["x"])
    assert validate_action_on_set(ActionOnSet(group, ["x"], act)) == [
        "ambient action: the generators carry the points to over 3 "
        "points, more than any action of the group reaches"]
