"""Multicomplex structure, faces, maps, products."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicomplex
import reference
from conftest import (compatible_simplices, cone_action, euler_characteristic,
                      facet_closure, is_nondegenerate, random_multicomplex,
                      wheel_action)
from multicomplex.chains import (build_full_chain_complex,
                                 build_reduced_chain_complex,
                                 build_relative_complex)
from multicomplex.core import (Multicomplex, MulticomplexError,
                               SimplicialMap, StructureError,
                               UnknownIdError, compose_maps, identity_map,
                               product_with_interval, simplicial_complex,
                               special_sphere)
from multicomplex.fixtures import (cone_over_double_edge, double_edge,
                                   triangle_boundary)


def test_triangle_is_simplicial():
    mc = triangle_boundary()
    assert mc.validate() == []
    assert mc.is_simplicial_complex()
    assert sorted(mc.vertices) == ["x", "y", "z"]
    assert mc.dimension == 1
    assert euler_characteristic(mc) == 0
    assert mc.drop_map("x,y") == {"x": "y", "y": "x"}


def test_double_edge_structure():
    mc = double_edge()
    assert mc.validate() == []
    assert not mc.is_simplicial_complex()
    assert mc.vertex_set("north") == mc.vertex_set("south")
    assert compatible_simplices(mc, "north") == ("north", "south")
    assert euler_characteristic(mc) == 0


def test_special_spheres():
    s2 = special_sphere(2)
    assert s2.validate() == []
    assert s2.dimension == 2
    assert euler_characteristic(s2) == 2
    assert len(s2.simplices_of_dimension(2)) == 2
    with pytest.raises(StructureError):
        special_sphere(0)
    labelled = special_sphere(1, labels=("p", "q"))
    assert sorted(labelled.vertices) == ["p", "q"]


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1,
                         max_size=5), max_size=8),
       st.lists(st.sampled_from("abcdefg"), max_size=3))
def test_simplicial_complex_matches_the_reference(faces, vertices):
    """Skipping a face already listed as a subset of a larger one builds
    the complex that listing every subset of every face builds."""
    mc = simplicial_complex(faces, vertices)
    ref = reference.simplicial_complex(faces, vertices)
    assert mc == ref and mc.simplex_ids == ref.simplex_ids


def test_every_vertex_gets_one_zero_simplex():
    # a second 0-simplex over the same vertex is reported
    mc = Multicomplex(["v"], [("a", frozenset(["v"]), {}),
                              ("b", frozenset(["v"]), {})])
    problems = mc.validate()
    assert any("zero-simplices" in p for p in problems)


def test_missing_facet_reference_rejected():
    with pytest.raises((StructureError, UnknownIdError)):
        Multicomplex(["x", "y"], [
            ("x", frozenset(["x"]), {}),
            ("y", frozenset(["y"]), {}),
            ("e", frozenset(["x", "y"]),
             {frozenset(["x"]): "x", frozenset(["y"]): "nope"}),
        ])


def test_comma_in_vertex_id_rejected():
    with pytest.raises(UnknownIdError):
        Multicomplex(["a,b"], [("a,b", frozenset(["a,b"]), {})])


def test_wrong_facet_span_reported():
    mc = Multicomplex(["x", "y"], [
        ("x", frozenset(["x"]), {}),
        ("y", frozenset(["y"]), {}),
        ("e", frozenset(["x", "y"]),
         {frozenset(["x"]): "y", frozenset(["y"]): "x"}),
    ])
    problems = mc.validate()
    assert problems
    assert any("spans" in p for p in problems)


def _tetra_with_edge_mismatch(consistent: bool):
    """A 3-simplex whose two triangle facets over {x,y,*} either agree
    (consistent) or disagree (broken) on which parallel x-y edge they
    use; disagreement breaks two-step face composition."""
    verts = ["w", "x", "y", "z"]

    def edge(name, a, b):
        return (name, frozenset([a, b]), {frozenset([a]): a,
                                          frozenset([b]): b})

    def tri(name, a, b, c, ab, ac, bc):
        return (name, frozenset([a, b, c]), {frozenset([a, b]): ab,
                                             frozenset([a, c]): ac,
                                             frozenset([b, c]): bc})

    triples = [(v, frozenset([v]), {}) for v in verts]
    triples += [edge("e1", "x", "y"), edge("e2", "x", "y"),
                edge("xz", "x", "z"), edge("yz", "y", "z"),
                edge("xw", "x", "w"), edge("yw", "y", "w"),
                edge("zw", "z", "w")]
    second = "e1" if consistent else "e2"
    triples += [tri("txyz", "x", "y", "z", "e1", "xz", "yz"),
                tri("txyw", "x", "y", "w", second, "xw", "yw"),
                tri("txzw", "x", "z", "w", "xz", "xw", "zw"),
                tri("tyzw", "y", "z", "w", "yz", "yw", "zw"),
                ("T", frozenset(verts),
                 {frozenset(["x", "y", "z"]): "txyz",
                  frozenset(["x", "y", "w"]): "txyw",
                  frozenset(["x", "z", "w"]): "txzw",
                  frozenset(["y", "z", "w"]): "tyzw"})]
    return Multicomplex(verts, triples)


def test_two_step_composition_violation_reported():
    assert _tetra_with_edge_mismatch(consistent=True).validate() == []
    broken = _tetra_with_edge_mismatch(consistent=False)
    problems = broken.validate()
    assert problems
    assert any("compos" in p or "disagree" in p or "face" in p
               for p in problems)


def _edge(facets, extra=()):
    """The edge e over {x, y}; facets keys comma-joined vertex ids."""
    return Multicomplex(["x", "y"], [
        ("x", frozenset(["x"]), {}), ("y", frozenset(["y"]), {}),
        ("e", frozenset(["x", "y"]),
         {frozenset(b.split(",")): f for b, f in facets.items()}),
        *extra])


@pytest.mark.parametrize("mc,problems", [
    (Multicomplex(["u", "v", "w"], [("a", frozenset(["v"]), {}),
                                    ("b", frozenset(["v"]), {}),
                                    ("w", frozenset(["w"]), {})]),
     ["vertex 'u' has 0 zero-simplices (expected exactly 1)",
      "vertex 'v' has 2 zero-simplices (expected exactly 1)"]),
    (_edge({"x": "x", "y": "y"}, [("z", frozenset(), {})]),
     ["simplex 'z' has an empty vertex set"]),
    (_edge({"x": "x"}), ["simplex 'e' is missing its facet over {y}"]),
    (_edge({"x": "x", "y": "y", "x,y": "e"}),
     ["simplex 'e' has a spurious facet entry for {x,y}"]),
    (_edge({"x": "y", "y": "y"}),
     ["facet of 'e' over {x} is 'y', which spans {y} instead"]),
    (_tetra_with_edge_mismatch(consistent=False),
     ["composition mismatch at 'T': dropping 'w' then 'z' gives 'e1' but "
      "dropping 'z' then 'w' gives 'e2'"]),
], ids=["zero-simplices", "empty", "missing", "spurious", "wrong-vertices",
        "composition"])
def test_validate_names_each_problem(mc, problems):
    assert mc.validate() == problems
    assert reference.validate(mc) == problems


def _tampered(rng: random.Random, mc: Multicomplex) -> Multicomplex:
    """mc with a few random defects: a facet entry dropped, added or
    pointed elsewhere, a parallel copy of a face put under one coface, an
    extra or empty zero-simplex, or a vertex without its zero-simplex."""
    verts = list(mc.vertices)
    triples = [(sid, mc.vertex_set(sid), mc.facets(sid))
               for sid in mc.simplex_ids]
    for i in range(rng.randint(1, 3)):
        sid, vset, facets = rng.choice(triples)
        kind = rng.randrange(6)
        if kind == 0 and facets:
            del facets[rng.choice(sorted(facets, key=sorted))]
        elif kind == 1:
            facets[rng.choice(triples)[1]] = rng.choice(triples)[0]
        elif kind == 2 and facets:
            facets[rng.choice(sorted(facets, key=sorted))] = \
                rng.choice(triples)[0]
        elif kind == 3:
            cofaces = [f for _, _, f in triples if sid in f.values()]
            copy = "%s#%d" % (sid, i)
            triples.append((copy, vset, dict(facets)))
            if cofaces:
                f = rng.choice(cofaces)
                f[next(b for b in f if f[b] == sid)] = copy
        elif kind == 4:
            triples.append(("extra%d" % i, frozenset(rng.sample(
                verts, rng.randint(0, 1))), {}))
        else:
            verts.append("lonely%d" % i)
    return Multicomplex(verts, triples)


@given(st.integers(0, 10**6))
def test_validate_matches_the_reference_on_tampered_complexes(seed):
    rng = random.Random(seed)
    mc = _tampered(rng, random_multicomplex(rng))
    assert mc.validate() == reference.validate(mc)


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_builders_read_facets_as_validate_does(seed):
    """Each chain-complex builder and the product either succeed, when
    validate finds no fault in the facets of a simplex they read, or
    raise the first fault validate finds in one of them."""
    rng = random.Random(seed)
    mc = _tampered(rng, random_multicomplex(rng))
    sub = facet_closure(mc, rng.sample(mc.simplex_ids, 2))
    builds = [
        (build_full_chain_complex, mc.simplex_ids),
        (build_reduced_chain_complex, mc.simplex_ids),
        (lambda m: build_relative_complex(m, sub),
         [sid for sid in mc.simplex_ids if sid not in sub]),
        (product_with_interval, mc.simplex_ids),
    ]
    problems = reference.validate(mc)
    faults = {sid: [p for p in problems if p.startswith(
        ("simplex %r " % sid, "facet of %r " % sid))] for sid in mc.simplex_ids}
    for build, read in builds:
        firsts = [faults[sid][0] for sid in read if faults[sid]]
        try:
            build(mc)
        except StructureError as exc:
            assert str(exc) in firsts
        else:
            assert firsts == []


def _with_fault(rng: random.Random, triples: list, fault: str) -> list:
    """triples with one facet entry of one simplex dropped, added under a
    key that omits no single vertex, pointed at a simplex over other
    vertices, or pointed at an id that names no simplex."""
    triples = [(sid, vset, dict(facets)) for sid, vset, facets in triples]
    sid, vset, facets = rng.choice([t for t in triples if t[2]])
    key = rng.choice(sorted(facets, key=sorted))
    if fault == "dropped":
        del facets[key]
    elif fault == "spurious":
        spans = [t[1] for t in triples if len(t[1]) != len(vset) - 1]
        facets[rng.choice(spans)] = rng.choice(triples)[0]
    elif fault == "wrong-span":
        facets[key] = rng.choice([t[0] for t in triples if t[1] != key])
    else:
        facets[key] = "nowhere"
    return triples


def _read_back(verts, triples):
    """The records, problems and drop maps (or the first problem of each)
    of the complex the triples give, or the text of its UnknownIdError."""
    try:
        mc = Multicomplex(verts, triples)
    except UnknownIdError as exc:
        return str(exc)
    drops = []
    for sid in mc.simplex_ids:
        try:
            drops.append(mc.drop_map(sid))
        except StructureError as exc:
            drops.append(str(exc))
    return list(mc.records()), mc.validate(), drops


@pytest.mark.parametrize("fault", [None, "dropped", "spurious", "wrong-span",
                                   "unknown-id"])
@given(st.integers(0, 10**6))
def test_a_facet_map_reads_alike_however_it_is_listed(fault, seed):
    """The constructor reads a facet map the same whether it is listed
    from the facet that omits the last vertex, reversed, shuffled, keyed
    by sorted tuples or given as a list of pairs, with or without a
    fault."""
    rng = random.Random(seed)
    mc = random_multicomplex(rng)
    triples = [(sid, mc.vertex_set(sid), mc.facets(sid))
               for sid in mc.simplex_ids]
    if fault:
        triples = _with_fault(rng, triples, fault)

    def shuffled(facets):
        items = list(facets.items())
        rng.shuffle(items)
        return dict(items)

    listings = [dict, lambda f: dict(reversed(f.items())), shuffled,
                lambda f: {tuple(sorted(b)): fid for b, fid in f.items()},
                lambda f: list(f.items())]
    outcomes = [_read_back(mc.vertices, [(sid, vset, listing(facets))
                                         for sid, vset, facets in triples])
                for listing in listings]
    assert outcomes[1:] == outcomes[:1] * 4
    if fault == "unknown-id":
        assert "names unknown facet 'nowhere'" in outcomes[0]
    else:
        assert (outcomes[0][1] == []) == (fault is None)


_HASH_ORDER_CASES = """
from multicomplex.actions import action_from_vertex_maps
from multicomplex.chains import RING_RAT, Cochain, build_relative_complex
from multicomplex.core import Multicomplex, simplicial_complex
from multicomplex.covers import Coloring, check_repeated_color_vanishing

def text(run):
    try:
        run()
    except Exception as exc:
        print(exc)

text(lambda: Multicomplex("ab", [("s", "pqr", {})]))
cycle = Multicomplex("abcd", [(v, v, {}) for v in "abcd"] + [
    ("e%d" % i, e, {frozenset(v): v for v in e})
    for i, e in enumerate(["ab", "bc", "cd", "ad"])])
text(lambda: build_relative_complex(cycle, ["e0", "e1", "e2", "e3"]))
swap = action_from_vertex_maps(simplicial_complex(["abcd"]), {
    "1": {v: v for v in "abcd"}, "g": dict(zip("abcd", "badc"))})
text(lambda: check_repeated_color_vanishing(
    Cochain(3, RING_RAT), swap, Coloring(dict(zip("abcd", "0012"))),
    {"a,b,c,d": ("g", "a", "b")}))
"""


def test_error_texts_do_not_depend_on_the_hash_seed():
    """An unknown vertex, an unclosed subcomplex and a witness that moves
    a third vertex are each named by the least id, under any seed."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(multicomplex.__file__)))
    texts = {subprocess.run(
        [sys.executable, "-c", _HASH_ORDER_CASES], check=True,
        capture_output=True, text=True, timeout=60,
        env=dict(env, PYTHONHASHSEED=str(seed))).stdout
        for seed in range(6)}
    assert texts == {
        "simplex 's' uses unknown vertex 'p'\n"
        "subcomplex ids are not facet-closed: 'e0' needs 'a'\n"
        "witness 'g' for 'a,b,c,d' moves the third vertex 'c', so the sign "
        "argument does not apply\n"}


def test_facet_closure_and_skeleton():
    mc = cone_over_double_edge()
    closed = facet_closure(mc, ["tn"])
    assert "north" in closed and "cx" in closed and "ts" not in closed
    mc.check_facet_closed(closed)
    with pytest.raises(StructureError):
        mc.check_facet_closed(["tn"])
    sk = mc.skeleton(1)
    assert sk.dimension == 1
    assert set(sk.simplex_ids) == {
        s for s in mc.simplex_ids if mc.dimension_of(s) <= 1}


def test_simplicial_map_validate_and_compose():
    mc = triangle_boundary()
    ident = identity_map(mc)
    assert ident.validate() == []
    assert is_nondegenerate(ident)
    rot = {"x": "y", "y": "z", "z": "x"}
    smap = {}
    for sid in mc.simplex_ids:
        target = frozenset(rot[v] for v in mc.vertex_set(sid))
        smap[sid] = ",".join(sorted(target))
    rotation = SimplicialMap(mc, mc, rot, smap)
    assert rotation.validate() == []
    twice = compose_maps(rotation, rotation)
    assert twice.apply_vertex("x") == "z"
    assert twice.validate() == []
    # a map that breaks a facet square is reported
    bad = SimplicialMap(mc, mc, dict(rot), dict(smap))
    bad.simplex_map["x,y"] = "x,y"
    assert bad.validate()



def _map_outcome(validate, f):
    """The problems validate finds in f, or the error it raises."""
    try:
        return validate(f)
    except MulticomplexError as exc:
        return type(exc).__name__, str(exc)


def _corrupted(rng: random.Random, f: SimplicialMap) -> SimplicialMap:
    """f with a few vertex and simplex images moved or dropped."""
    verts, sids = list(f.target.vertices), list(f.target.simplex_ids)
    vm, sm = dict(f.vertex_map), dict(f.simplex_map)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            vm[rng.choice(sorted(vm))] = rng.choice(verts)
        elif kind == 1:
            sm[rng.choice(sorted(sm))] = rng.choice(sids)
        elif kind == 2:
            # the simplex moves to another one over the same image
            sid = rng.choice(sorted(sm))
            image = frozenset(vm.get(v) for v in f.source.vertex_set(sid))
            sm[sid] = rng.choice(f.target.simplices_over(image) or sids)
        elif kind == 3 and rng.random() < 0.3:
            del vm[rng.choice(sorted(vm))]
        elif rng.random() < 0.3:
            del sm[rng.choice(sorted(sm))]
    return SimplicialMap(f.source, f.target, vm, sm)


@given(st.integers(0, 10**6))
def test_map_validate_matches_the_reference_on_corrupted_maps(seed):
    rng = random.Random(seed)
    a = wheel_action(rng.randint(3, 7)) if rng.random() < 0.5 else \
        cone_action(rng.randint(1, 4))
    f = a.map_of(rng.choice(a.group.elements))
    assert f.validate() == reference.map_problems(f) == []
    bad = _corrupted(rng, f)
    assert bad.validate() == reference.map_problems(bad)


@given(st.integers(0, 10**6))
def test_map_validate_matches_the_reference_on_tampered_complexes(seed):
    # a random vertex map on a tampered complex, each simplex sent to a
    # simplex over its image where there is one: the facets read may then
    # be missing, spurious or over the wrong vertices
    rng = random.Random(seed)
    mc = _tampered(rng, random_multicomplex(rng))
    verts, sids = list(mc.vertices), list(mc.simplex_ids)
    vm = {v: v if rng.random() < 0.7 else rng.choice(verts) for v in verts}
    sm = {}
    for sid in sids:
        image = frozenset(vm[v] for v in mc.vertex_set(sid))
        sm[sid] = rng.choice(mc.simplices_over(image) or sids)
    f = SimplicialMap(mc, mc, vm, sm)
    assert _map_outcome(SimplicialMap.validate, f) == \
        _map_outcome(reference.map_problems, f)


def test_map_validate_raises_a_facet_entry_that_skips_a_level():
    # the entry over {x} in the facet map of t skips a level, which
    # validate lists as spurious; the map check raises it
    triples = [(v, v, {}) for v in "xyz"] + [("x2", "x", {})]
    triples += [(a + b, a + b, {frozenset(a): a, frozenset(b): b})
                for a, b in ("xy", "xz", "yz")]
    triples.append(("t", "xyz", {frozenset("xy"): "xy", frozenset("xz"): "xz",
                                 frozenset("yz"): "yz", frozenset("x"): "x2"}))
    f = identity_map(Multicomplex("xyz", triples))
    error = ("StructureError",
             "simplex 't' has a spurious facet entry for {x}")
    assert _map_outcome(SimplicialMap.validate, f) == \
        _map_outcome(reference.map_problems, f) == error


def test_collapse_map_is_degenerate():
    mc = triangle_boundary()
    vm = {"x": "x", "y": "x", "z": "z"}
    sm = {}
    for sid in mc.simplex_ids:
        target = frozenset(vm[v] for v in mc.vertex_set(sid))
        sm[sid] = ",".join(sorted(target))
    m = SimplicialMap(mc, mc, vm, sm)
    assert m.validate() == []
    assert not is_nondegenerate(m)


def test_product_with_interval():
    for base in (triangle_boundary(), double_edge()):
        prod = product_with_interval(base)
        mc = prod.complex
        assert mc.validate() == []
        assert mc.dimension == base.dimension + 1
        assert euler_characteristic(mc) == euler_characteristic(base)
        assert prod.bottom.validate() == []
        assert prod.top.validate() == []
        assert is_nondegenerate(prod.bottom)
        assert is_nondegenerate(prod.top)


def test_structural_equality():
    assert triangle_boundary() == triangle_boundary()
    assert triangle_boundary() != double_edge()


def test_random_multicomplexes_are_valid():
    rng = random.Random(5)
    for _ in range(25):
        mc = random_multicomplex(rng)
        assert mc.validate() == []
        assert mc.dimension <= 4
        assert len(mc.simplex_ids) <= 200
