"""Covers, nerves, adapted colorings, and repeated-color vanishing."""

import random

import pytest

from multicomplex.actions import action_from_vertex_maps
from multicomplex.chains import AlgebraicSimplex, Cochain, RING_RAT
from multicomplex.core import StructureError, UnknownIdError, simplicial_complex
from multicomplex.covers import (
    Coloring,
    Cover,
    check_repeated_color_vanishing,
    coloring_adapted,
    multiplicity,
    nerve,
)
from multicomplex.fixtures import double_edge


def _hexagon_arcs():
    # three arcs on a six-vertex circle: pairwise meets are single
    # vertices, the triple meet is empty
    return Cover({
        "a": ["0", "1", "2"],
        "b": ["2", "3", "4"],
        "c": ["4", "5", "0"],
    })


def test_cover_basics():
    c = Cover({"a": ["x", "y"], "b": ["y"]}, amenable={"a": True})
    assert c.indices() == ["a", "b"]
    assert c.member("a") == frozenset({"x", "y"})
    assert frozenset().union(*map(c.member, c.indices())) == {"x", "y"}
    assert c.amenable == {"a": True}


def test_cover_rejects_colliding_indices():
    with pytest.raises(StructureError, match="collide"):
        Cover({0: ["x"], "0": ["y"]})


def test_cover_rejects_flag_for_unknown_index():
    with pytest.raises(UnknownIdError):
        Cover({"a": ["x"]}, amenable={"b": True})


def test_cover_member_lookup():
    with pytest.raises(UnknownIdError):
        Cover({"a": ["x"]}).member("z")


def test_nerve_of_a_single_set_is_a_point():
    n = nerve(Cover({"u": ["x", "y", "z"]}))
    assert list(n.vertices) == ["u"]
    assert n.dimension == 0


def test_nerve_of_the_hexagon_arcs_is_a_triangle_boundary():
    n = nerve(_hexagon_arcs())
    assert sorted(n.vertices) == ["a", "b", "c"]
    assert n.dimension == 1
    assert len(n.simplices_of_dimension(1)) == 3


def test_nerve_of_nested_sets_is_a_segment():
    n = nerve(Cover({"1": ["p"], "2": ["p", "q"]}))
    assert n.dimension == 1
    assert len(n.simplices_of_dimension(1)) == 1


def test_nerve_ignores_empty_members():
    n = nerve(Cover({"a": ["x"], "e": []}))
    assert list(n.vertices) == ["a"]


def test_nerve_truncates_at_max_dim():
    c = Cover({"a": ["p", "x"], "b": ["p", "y"], "c": ["p", "z"]})
    assert nerve(c).dimension == 2
    cut = nerve(c, max_dim=1)
    assert cut.dimension == 1
    assert len(cut.simplices_of_dimension(1)) == 3


def test_multiplicity_of_a_disjoint_cover_is_one():
    assert multiplicity(Cover({"a": ["x"], "b": ["y"]})) == 1


def test_multiplicity_of_the_hexagon_arcs_is_two():
    assert multiplicity(_hexagon_arcs()) == 2


def test_multiplicity_of_nothing_is_zero():
    assert multiplicity(Cover({})) == 0
    assert nerve(Cover({})).dimension == -1


def _random_cover(rng):
    pool = [str(i) for i in range(rng.randint(1, 8))]
    sets = {}
    for j in range(rng.randint(1, 6)):
        sets[str(j)] = rng.sample(pool, rng.randint(0, len(pool)))
    return Cover(sets)


def test_multiplicity_is_one_plus_nerve_dimension():
    rng = random.Random(20260814)
    for _ in range(60):
        c = _random_cover(rng)
        assert multiplicity(c) == 1 + nerve(c).dimension


def test_shrinking_members_never_adds_nerve_simplices():
    rng = random.Random(7)
    for _ in range(40):
        c = _random_cover(rng)
        shrunk = Cover({j: rng.sample(sorted(c.member(j)),
                                      rng.randint(0, len(c.member(j))))
                        for j in c.indices()})
        big = nerve(c)
        small = nerve(shrunk)
        before = {big.vertex_set(s) for s in big.simplex_ids}
        after = {small.vertex_set(s) for s in small.simplex_ids}
        assert after <= before


def test_coloring_adapted_by_closed_stars():
    host = simplicial_complex([("a", "b"), ("c", "d")])
    cover = Cover({"0": ["a", "b"], "1": ["c", "d"]})
    col = coloring_adapted(host, cover)
    assert col.assignment == {"a": "0", "b": "0", "c": "1", "d": "1"}


def test_coloring_adapted_prefers_the_least_index():
    host = simplicial_complex([("x", "y", "z")])
    cover = Cover({"0": ["x", "y", "z"], "1": ["x", "y", "z"]})
    col = coloring_adapted(host, cover)
    assert set(col.assignment.values()) == {"0"}


def test_coloring_adapted_rejects_a_coarse_cover():
    # the closed star of b is the whole path, which fits in neither half
    host = simplicial_complex([("a", "b"), ("b", "c")])
    cover = Cover({"0": ["a", "b"], "1": ["b", "c"]})
    with pytest.raises(StructureError) as err:
        coloring_adapted(host, cover)
    assert "'b'" in str(err.value)
    assert "too coarse" in str(err.value)


def test_coloring_adapted_needs_a_simplicial_complex():
    with pytest.raises(StructureError, match="simplicial complex"):
        coloring_adapted(double_edge(), Cover({"0": ["x", "y"]}))


def test_coloring_lookup_and_classes():
    col = Coloring({"x": "0", "y": "0", "z": "1"})
    assert col.of("x") == "0"
    assert col.classes() == {"0": ["x", "y"], "1": ["z"]}
    with pytest.raises(UnknownIdError):
        col.of("w")


def _triangle_swap_action():
    mc = simplicial_complex([("x", "y", "z")])
    return action_from_vertex_maps(mc, {
        "e": {"x": "x", "y": "y", "z": "z"},
        "g": {"x": "y", "y": "x", "z": "z"},
    })


def _swap_invariant_edge_cochain():
    # alternating, swap-invariant, and nonzero away from the x-y edge
    return Cochain(1, RING_RAT, {
        AlgebraicSimplex("x,z", ("x", "z")): 1,
        AlgebraicSimplex("x,z", ("z", "x")): -1,
        AlgebraicSimplex("y,z", ("y", "z")): 1,
        AlgebraicSimplex("y,z", ("z", "y")): -1,
    })


def test_vanishing_verified_on_a_witnessed_simplex():
    a = _triangle_swap_action()
    col = Coloring({"x": "L", "y": "L", "z": "R"})
    phi = _swap_invariant_edge_cochain()
    report = check_repeated_color_vanishing(
        phi, a, col, {"x,y": ("g", "x", "y")})
    assert report.verified == ["x,y"]
    assert report.missing_witnesses == []
    assert sorted(report.unconstrained) == ["x,z", "y,z"]
    assert report.complete


def test_vanishing_reports_missing_witnesses():
    a = _triangle_swap_action()
    col = Coloring({"x": "L", "y": "L", "z": "R"})
    report = check_repeated_color_vanishing(
        _swap_invariant_edge_cochain(), a, col, {})
    assert report.verified == []
    assert report.missing_witnesses == ["x,y"]
    assert not report.complete


def test_vanishing_requires_an_alternating_cochain():
    a = _triangle_swap_action()
    col = Coloring({"x": "L", "y": "L", "z": "R"})
    phi = Cochain(1, RING_RAT, {AlgebraicSimplex("x,y", ("x", "y")): 1})
    with pytest.raises(StructureError, match="not alternating"):
        check_repeated_color_vanishing(phi, a, col, {})


def test_vanishing_requires_an_invariant_cochain():
    a = _triangle_swap_action()
    col = Coloring({"x": "L", "y": "L", "z": "R"})
    # alternating, but the swap carries its support from x-z to y-z
    phi = Cochain(1, RING_RAT, {
        AlgebraicSimplex("x,z", ("x", "z")): 1,
        AlgebraicSimplex("x,z", ("z", "x")): -1,
    })
    with pytest.raises(StructureError, match="not invariant"):
        check_repeated_color_vanishing(phi, a, col, {})


def test_vanishing_witness_must_fix_the_simplex():
    a = _triangle_swap_action()
    col = Coloring({"x": "0", "y": "0", "z": "0"})
    phi = Cochain(1, RING_RAT, {})
    with pytest.raises(StructureError, match="does not fix"):
        check_repeated_color_vanishing(
            phi, a, col, {"x,z": ("g", "x", "z")})


def test_vanishing_witness_must_transpose_the_named_pair():
    a = _triangle_swap_action()
    col = Coloring({"x": "0", "y": "0", "z": "0"})
    phi = Cochain(1, RING_RAT, {})
    with pytest.raises(StructureError, match="does not transpose"):
        check_repeated_color_vanishing(
            phi, a, col, {"x,y": ("e", "x", "y")})


def test_vanishing_witness_must_name_vertices_of_the_simplex():
    a = _triangle_swap_action()
    col = Coloring({"x": "0", "y": "0", "z": "0"})
    phi = Cochain(1, RING_RAT, {})
    with pytest.raises(StructureError, match="not two distinct vertices"):
        check_repeated_color_vanishing(
            phi, a, col, {"x,y": ("g", "x", "z")})


def test_vanishing_witness_must_fix_the_remaining_vertices():
    mc = simplicial_complex([("w", "x", "y", "z")])
    a = action_from_vertex_maps(mc, {
        "e": {v: v for v in "wxyz"},
        "g": {"w": "z", "z": "w", "x": "y", "y": "x"},
    })
    col = Coloring({"w": "0", "x": "1", "y": "1", "z": "2"})
    phi = Cochain(3, RING_RAT, {})
    with pytest.raises(StructureError, match="moves the third vertex"):
        check_repeated_color_vanishing(
            phi, a, col, {"w,x,y,z": ("g", "x", "y")})


def test_vanishing_witness_must_transpose_a_same_colored_pair():
    a = _triangle_swap_action()
    # the repeated pair is x, z; the witness swaps the mixed pair x, y
    col = Coloring({"x": "0", "y": "1", "z": "0"})
    phi = Cochain(2, RING_RAT, {})
    with pytest.raises(StructureError, match="different colors"):
        check_repeated_color_vanishing(
            phi, a, col, {"x,y,z": ("g", "x", "y")})
