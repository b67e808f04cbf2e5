"""End-to-end runs of the command line through main(argv).

Inputs are written to tmp_path as canonical JSON; structured stdout is
parsed back and checked, summaries land on stderr unless --output
summary redirects them.
"""

import gc
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from conftest import cone_action, trivial_action, within
from multicomplex import formats
from multicomplex.chains import (
    AlgebraicSimplex,
    Chain,
    Cochain,
    RING_INT,
    MAX_FULL_ORDERINGS,
    RING_RAT,
    build_reduced_chain_complex,
    fundamental_cycle,
)
from multicomplex.cli import main
from multicomplex.covers import Cover
from multicomplex.core import Multicomplex, simplicial_complex, special_sphere
from multicomplex.fixtures import (
    antipodal_action,
    cone_over_double_edge,
    cone_swap_action,
    double_edge,
    double_edge_swap_action,
    seven_vertex_torus,
    tetrahedron_boundary,
    triangle_boundary,
)
from multicomplex.groups import cyclic_group


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(formats.canonical_dumps(doc), encoding="utf-8")
    return str(path)


def _write_mc(tmp_path, name, mc):
    return _write(tmp_path, name, formats.multicomplex_to_doc(mc))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    return code, json.loads(out), err


def test_validate_accepts_a_clean_complex(tmp_path, capsys):
    path = _write_mc(tmp_path, "mc.json", triangle_boundary())
    code, doc, err = _run_json(capsys, ["validate", path])
    assert code == 0
    assert doc["ok"] is True
    assert doc["problems"] == []
    assert "valid multicomplex" in err


def test_validate_reports_problems_with_exit_one(tmp_path, capsys):
    broken = {"schema_version": formats.SCHEMA_VERSION,
              "vertices": ["x", "y"],
              "simplices": [{"id": "x", "vertices": ["x"], "facets": {}}]}
    path = _write(tmp_path, "mc.json", broken)
    code, doc, err = _run_json(capsys, ["validate", path])
    assert code == 1
    assert doc["ok"] is False
    assert any("zero-simplices" in p for p in doc["problems"])
    assert "INVALID" in err


def _triangle_doc(t_facets):
    """The triangle t over a, b, c, with the facet map of t given."""
    faces = [(v, [v], {}) for v in "abc"]
    faces += [(u + w, [u, w], {u: u, w: w}) for u, w in ("ab", "ac", "bc")]
    faces.append(("t", ["a", "b", "c"], t_facets))
    return {"schema_version": formats.SCHEMA_VERSION,
            "vertices": ["a", "b", "c"],
            "simplices": [{"id": sid, "vertices": vs, "facets": facets}
                          for sid, vs, facets in faces]}


@pytest.mark.parametrize("t_facets, code, problems", [
    ({"a,b": "ab", "c,a": "ac", "b,c": "bc"}, 0, []),
    ({"a,b": "ab", "a,c": "ac", "b,c": "bc", "c,b": "bc"}, 0, []),
    ({"a,b": "ab", "a,c": "ac", "a,a": "bc"}, 1,
     ["simplex 't' is missing its facet over {b,c}",
      "simplex 't' has a spurious facet entry for {a}"]),
    ({"a,b": "ab", "a,c": "ac", "b,c": "bc", "": "a"}, 1,
     ["simplex 't' has a spurious facet entry for {}"]),
    ({"a,b": "ab", "a,c": "ac", "b,z": "bc"}, 1,
     ["simplex 't' is missing its facet over {b,c}",
      "simplex 't' has a spurious facet entry for {b,z}"]),
], ids=["unsorted-key", "both-orders", "repeated-vertex", "empty-key",
        "unknown-vertex"])
def test_validate_reads_a_facet_key_as_the_set_it_names(tmp_path, capsys,
                                                        t_facets, code,
                                                        problems):
    """A facet key names the set of its comma-separated pieces: their
    order and repeats do not matter, and a key that names no set of the
    simplex's vertices less one is spurious."""
    path = _write(tmp_path, "mc.json", _triangle_doc(t_facets))
    got, doc, err = _run_json(capsys, ["validate", path])
    assert (got, doc["problems"]) == (code, problems)


@pytest.mark.parametrize("field, value", [
    ("vertices", [1, "b"]),
    ("vertices", [["a"], "b"]),
    ("facets", {"a": "a", "b": 3}),
], ids=["number-vertex", "list-vertex", "number-facet"])
def test_validate_refuses_ids_that_are_not_strings(tmp_path, capsys, field,
                                                   value):
    doc = _triangle_doc({"a,b": "ab", "a,c": "ac", "b,c": "bc"})
    edge = next(s for s in doc["simplices"] if s["id"] == "ab")
    edge[field] = value
    path = _write(tmp_path, "mc.json", doc)
    assert _run(capsys, ["validate", path]) == (
        2, "", "error: simplex vertex and facet ids must be strings\n")


def test_unreadable_input_exits_two(tmp_path, capsys):
    code, out, err = _run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ not json", encoding="utf-8")
    code, out, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "error:" in err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""
    assert "error: not valid JSON: nested too deeply" in err


def _validate_error(tmp_path, capsys, doc):
    code, out, err = _run(capsys, ["validate", _write(tmp_path, "mc.json",
                                                      doc)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    return err


def test_non_array_vertices_exit_two(tmp_path, capsys):
    err = _validate_error(tmp_path, capsys, {
        "schema_version": formats.SCHEMA_VERSION, "vertices": 5,
        "simplices": []})
    assert err.startswith("error: field 'vertices' must be a JSON array")


def test_non_object_facets_exit_two(tmp_path, capsys):
    err = _validate_error(tmp_path, capsys, {
        "schema_version": formats.SCHEMA_VERSION, "vertices": ["x"],
        "simplices": [{"id": "x", "vertices": ["x"], "facets": []}]})
    assert err.startswith("error: field 'facets' must be a JSON object")


def test_sphere_and_skeleton(tmp_path, capsys):
    code, doc, err = _run_json(capsys, ["sphere", "--dim", "1",
                                        "--labels", "a,b"])
    assert code == 0
    mc = formats.multicomplex_from_doc(doc)
    assert sorted(mc.vertices) == ["a", "b"]
    assert len(mc.simplex_ids) == 4

    path = _write_mc(tmp_path, "tetra.json", tetrahedron_boundary())
    code, doc, err = _run_json(capsys, ["skeleton", path, "--dim", "1"])
    assert code == 0
    sk = formats.multicomplex_from_doc(doc)
    assert sk.dimension == 1
    assert len(sk.simplex_ids) == 10


def test_product_emits_complex_and_cap_maps(tmp_path, capsys):
    path = _write_mc(tmp_path, "edge.json", double_edge())
    code, doc, err = _run_json(capsys, ["product", path])
    assert code == 0
    prod = formats.multicomplex_from_doc(doc["complex"])
    assert prod.validate() == []
    assert set(doc["bottom"]["vertex_map"]) == {"x", "y"}
    assert doc["bottom"]["vertex_map"]["x"] == "x@0"
    assert doc["top"]["vertex_map"]["x"] == "x@1"


def test_homology_of_the_torus(tmp_path, capsys):
    path = _write_mc(tmp_path, "torus.json", seven_vertex_torus())
    code, doc, err = _run_json(capsys, ["homology", path])
    assert code == 0
    assert doc["variant"] == "reduced"
    betti = [doc["structure"][str(n)]["betti"] for n in range(3)]
    assert betti == [1, 2, 1]
    assert "betti 1,2,1" in err


def test_homology_integral_variant(tmp_path, capsys):
    path = _write_mc(tmp_path, "torus.json", seven_vertex_torus())
    code, doc, err = _run_json(capsys, ["homology", path, "--ring", "z",
                                        "--variant", "full"])
    assert code == 0
    assert doc["ring"] == RING_INT
    assert doc["structure"]["1"]["betti"] == 2
    assert doc["structure"]["1"]["torsion"] == []


def test_homology_relative_variant(tmp_path, capsys):
    path = _write_mc(tmp_path, "circle.json", special_sphere(1))
    code, doc, err = _run_json(capsys, ["homology", path,
                                        "--variant", "relative",
                                        "--subcomplex", "north,v0,v1"])
    assert code == 0
    assert doc["structure"]["0"]["betti"] == 0
    assert doc["structure"]["1"]["betti"] == 1


def test_homology_relative_needs_a_subcomplex(tmp_path, capsys):
    path = _write_mc(tmp_path, "circle.json", special_sphere(1))
    code, out, err = _run(capsys, ["homology", path, "--variant", "relative"])
    assert code == 2
    assert "--subcomplex" in err


@pytest.mark.parametrize("subcomplex, first", [
    ("x,y", "x,y"), ("x,y,x,y", "x,y"), ("z,x,y", "x,y"), ("x,z,y", "x,z")])
def test_homology_relative_refuses_a_subcomplex_id_with_a_comma(
        tmp_path, capsys, subcomplex, first):
    """--subcomplex splits on commas, so on the triangle boundary x,y
    would name the vertices x and y (betti 0,2), not the edge x,y (betti
    0,1); a run of pieces that joins into an id is refused."""
    path = _write_mc(tmp_path, "triangle.json", triangle_boundary())
    code, out, err = _run(capsys, ["homology", path, "--variant",
                                   "relative", "--subcomplex", subcomplex])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: --subcomplex splits on commas, so it cannot name the "
        "simplex %r, whose id contains a comma" % first]


def test_homology_relative_takes_pieces_that_join_into_no_id(tmp_path,
                                                            capsys):
    path = _write_mc(tmp_path, "triangle.json", triangle_boundary())
    code, doc, err = _run_json(capsys, ["homology", path, "--variant",
                                        "relative", "--subcomplex", "y,x"])
    assert code == 0
    assert [doc["structure"][n]["betti"] for n in "01"] == [0, 2]


def test_seminorm_dual_and_integral_search(tmp_path, capsys):
    mc = triangle_boundary()
    cpath = _write_mc(tmp_path, "circle.json", mc)
    z = fundamental_cycle(mc, build_reduced_chain_complex(mc))
    zpath = _write(tmp_path, "cycle.json", formats.chain_to_doc(z))

    code, doc, err = _run_json(capsys, ["seminorm", zpath,
                                        "--complex", cpath])
    assert code == 0
    assert doc["value"] == "3"
    rep = formats.chain_from_doc(doc["optimal_representative"])
    assert rep.l1_norm() == 3

    code, doc, err = _run_json(capsys, ["dual", zpath, "--complex", cpath])
    assert code == 0
    assert doc["gap_zero"] is True
    phi = formats.cochain_from_doc(doc["dual_certificate"])
    assert phi.linf_norm() <= 1

    code, doc, err = _run_json(capsys, ["int-seminorm", zpath,
                                        "--complex", cpath, "--bound", "2"])
    assert code == 0
    assert doc["best"] == "3"
    assert doc["status"] == "exact"
    assert doc["certified"] is True


@pytest.mark.parametrize("option", ["--bound", "--support-bound"])
def test_int_seminorm_refuses_a_negative_bound(tmp_path, capsys, option):
    mc = triangle_boundary()
    cpath = _write_mc(tmp_path, "circle.json", mc)
    z = fundamental_cycle(mc, build_reduced_chain_complex(mc))
    zpath = _write(tmp_path, "cycle.json", formats.chain_to_doc(z))
    code, out, err = _run(capsys, ["int-seminorm", zpath, "--complex", cpath,
                                   "--bound", "2", option, "-1"])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: %s bound must be >= 0" % (
        "coefficient" if option == "--bound" else "support")]


def test_int_seminorm_searches_past_the_recursion_limit(tmp_path, capsys):
    # one search level per triangle: 1,152 on the 24 x 24 grid torus
    n = 24

    def v(i, j):
        return "v%d_%d" % (i % n, j % n)
    faces = [f for i in range(n) for j in range(n)
             for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                       (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    meridian = {}
    for i in range(n):
        edge = tuple(sorted((v(i, 0), v(i + 1, 0))))
        meridian[AlgebraicSimplex(",".join(edge), edge)] = \
            1 if edge[0] == v(i, 0) else -1
    cpath = _write_mc(tmp_path, "torus.json", simplicial_complex(faces))
    zpath = _write(tmp_path, "meridian.json",
                   formats.chain_to_doc(Chain(1, RING_INT, meridian)))
    code, doc, err = _run_json(capsys, ["int-seminorm", zpath, "--complex",
                                        cpath, "--bound", "1",
                                        "--support-bound", "0"])
    assert code == 0
    assert doc["best"] == "24"
    assert doc["status"] == "unknown"
    assert doc["certified"] is False


def test_int_seminorm_ends_at_the_lp_bound(tmp_path, capsys):
    # a meridian plus two triangle boundaries on the 6 x 6 grid torus:
    # searching the whole box took seconds, the LP bound 6 ends it
    n = 6

    def v(i, j):
        return "v%d_%d" % (i % n, j % n)
    faces = [f for i in range(n) for j in range(n)
             for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                       (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    terms = {}
    loops = [[v(i, 0) for i in range(n)],
             [v(0, 0), v(1, 0), v(1, 1)], [v(2, 2), v(2, 3), v(3, 3)]]
    for loop in loops:
        for x, y in zip(loop, loop[1:] + loop[:1]):
            edge = tuple(sorted((x, y)))
            key = AlgebraicSimplex(",".join(edge), edge)
            terms[key] = terms.get(key, 0) + (1 if edge[0] == x else -1)
    cpath = _write_mc(tmp_path, "torus.json", simplicial_complex(faces))
    zpath = _write(tmp_path, "cycle.json", formats.chain_to_doc(
        Chain(1, RING_INT, {k: c for k, c in terms.items() if c})))
    code, doc, err = _run_json(capsys, ["int-seminorm", zpath, "--complex",
                                        cpath, "--bound", "1"])
    assert code == 0
    assert doc["best"] == "6"
    assert doc["status"] == "exact"
    assert doc["certified"] is True
    rep = formats.chain_from_doc(doc["representative"])
    assert rep.l1_norm() == 6


def test_simplex_failure_exits_three(tmp_path, capsys, monkeypatch):
    from multicomplex import exactlp
    solve = exactlp.solve
    # the real solver, stopped before its first pivot
    monkeypatch.setattr(exactlp, "solve",
                        lambda *args: solve(*args, max_iterations=0))
    mc = triangle_boundary()
    cpath = _write_mc(tmp_path, "circle.json", mc)
    zpath = _write(tmp_path, "cycle.json",
                   formats.chain_to_doc(fundamental_cycle(
                       mc, build_reduced_chain_complex(mc))))
    code, out, err = _run(capsys, ["seminorm", zpath, "--complex", cpath])
    assert code == 3
    assert out == ""
    assert "internal invariant breach: iteration limit exceeded" in err


def test_volume_of_the_tetrahedron_boundary(tmp_path, capsys):
    path = _write_mc(tmp_path, "sphere.json", tetrahedron_boundary())
    code, doc, err = _run_json(capsys, ["volume", path])
    assert code == 0
    assert doc["value"] == "4"
    assert "simplicial volume: 4" in err


def _lp_inputs(case):
    """(complex, cycle or None) of one pinned seminorm input: the 3 x 3
    grid torus with a meridian plus two triangle boundaries, the
    7-vertex torus with twice a path through all its vertices, or the
    3-sphere with a loop around one of its triangles."""
    def loop(terms, path, coef):
        for x, y in zip(path, path[1:] + path[:1]):
            edge = tuple(sorted((x, y)))
            key = AlgebraicSimplex(",".join(edge), edge)
            terms[key] = terms.get(key, 0) + (coef if edge[0] == x
                                              else -coef)
        return terms

    def v(i, j):
        return "v%d_%d" % (i % 3, j % 3)
    if case == "grid3":
        faces = [f for i in range(3) for j in range(3)
                 for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                           (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
        terms = loop({}, [v(i, 0) for i in range(3)], 1)
        loop(terms, [v(0, 1), v(1, 1), v(1, 2)], 1)
        loop(terms, [v(0, 0), v(0, 1), v(1, 1)], -2)
        return simplicial_complex(faces), Chain(
            1, RING_INT, {k: c for k, c in terms.items() if c})
    if case == "torus7":
        return seven_vertex_torus(), Chain(
            1, RING_INT, loop({}, [str(3 * i % 7) for i in range(7)], 2))
    return special_sphere(3), Chain(1, RING_INT,
                                    loop({}, ["v2", "v0", "v3"], 1))


@pytest.mark.parametrize("command, case, options, digest, summary", [
    ("seminorm", "grid3", [],
     "4da5e3387ae17dd3cb29d814eff252cb07b1fae72e67dc3a7c907fde2533a9ec",
     "l1 seminorm of the class: 3"),
    ("seminorm", "torus7", ["--variant", "full"],
     "7e088caac43304d2033114f8119ecb6522401954c82e9e900fc0e7661d719c17",
     "l1 seminorm of the class: 14"),
    ("seminorm", "sphere3", ["--variant", "full"],
     "e107589c0e3b1ea1e651289098646043758d4b911cba1fe3b1a0fd56567fe60f",
     "l1 seminorm of the class: 0"),
    ("dual", "torus7", [],
     "1710940411496905879fde841a5d2470de74a16c7468397479b956675a757b28",
     "duality gap zero: True (value 14)"),
    ("dual", "sphere3", ["--variant", "full"],
     "b1619bf770717bb513ebe58afa2b49daddf6b8c02944e5b325f36f93c882ddf3",
     "duality gap zero: True (value 0)"),
    ("int-seminorm", "grid3", ["--bound", "1"],
     "3d9f7d4bc53942b5d88cec0dc65f6c11ed45f033537ab4dfd3d732e63052a748",
     "integral seminorm: 3 (exact)"),
    ("volume", "torus7", [],
     "8c77fbd13447a212fff7caedbf26b07bec2dbb6ee1ef483dadc4c9b761b7df48",
     "simplicial volume: 14"),
    ("volume", "sphere3", [],
     "ee87929befb793df9110d8c787c25c8d1d71f89b4ebd7c1eabbe130c587bbb05",
     "simplicial volume: 2")])
def test_seminorm_commands_print_their_pinned_bytes(tmp_path, capsys,
                                                    command, case, options,
                                                    digest, summary):
    # the value, representative and dual certificate, byte for byte, by
    # their sha256
    mc, z = _lp_inputs(case)
    cpath = _write_mc(tmp_path, "mc.json", mc)
    argv = [command, cpath] if command == "volume" else [
        command, _write(tmp_path, "z.json", formats.chain_to_doc(z)),
        "--complex", cpath, *options]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, summary + "\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_volume_rejects_an_impure_complex(tmp_path, capsys):
    mc = simplicial_complex([("x", "y", "z")], vertices=["w"])
    path = _write_mc(tmp_path, "impure.json", mc)
    code, out, err = _run(capsys, ["volume", path])
    assert code == 1
    assert "error:" in err


def test_volume_names_a_missing_facet_before_impurity(tmp_path, capsys):
    # the one reduced complex is built before the purity check, so a
    # complex that is impure and misses a facet is refused for the facet
    doc = formats.multicomplex_to_doc(
        simplicial_complex([("x", "y", "z")], vertices=["w"]))
    for s in doc["simplices"]:
        if s["id"] == "x,z":
            del s["facets"]["z"]
    code, out, err = _run(capsys, ["volume", _write(tmp_path, "mc.json",
                                                    doc)])
    assert (code, out) == (1, "")
    assert err == "error: simplex 'x,z' is missing its facet over {z}\n"


def test_quotient_of_the_double_edge(tmp_path, capsys):
    cpath = _write_mc(tmp_path, "edge.json", double_edge())
    apath = _write(tmp_path, "swap.json",
                   formats.action_to_doc(double_edge_swap_action()))
    code, doc, err = _run_json(capsys, ["quotient", apath,
                                        "--complex", cpath])
    assert code == 0
    q = formats.multicomplex_from_doc(doc["complex"])
    assert len(q.simplex_ids) == 3
    assert doc["projection"]["simplex_map"]["south"] == "north"


def test_quotient_rejects_a_vertex_moving_action(tmp_path, capsys):
    cpath = _write_mc(tmp_path, "edge.json", double_edge())
    apath = _write(tmp_path, "antipodal.json",
                   formats.action_to_doc(antipodal_action()))
    code, out, err = _run(capsys, ["quotient", apath, "--complex", cpath])
    assert code == 1
    assert "moves vertex" in err


def test_orbits_of_the_double_edge_swap(tmp_path, capsys):
    cpath = _write_mc(tmp_path, "edge.json", double_edge())
    apath = _write(tmp_path, "swap.json",
                   formats.action_to_doc(double_edge_swap_action()))
    code, doc, err = _run_json(capsys, ["orbits", apath, "--complex", cpath,
                                        "--degree", "1"])
    assert code == 0
    assert len(doc["orbits"]) == 2
    for orb in doc["orbits"]:
        assert {e["simplex"] for e in orb} == {"north", "south"}


def test_full_homology_past_the_ordering_limit_exits_one_at_once(tmp_path,
                                                                  capsys):
    """The 9-simplex with all its faces has 1,023 simplices and
    sum_k C(10, k+1) (k+1)! = 9,864,100 orderings, over MAX_FULL_ORDERINGS;
    the reduced complex lists one tuple per simplex."""
    mc = simplicial_complex([tuple("v%d" % i for i in range(10))])
    cpath = _write_mc(tmp_path, "simplex.json", mc)
    with within(5):
        code, out, err = _run(capsys, ["homology", cpath, "--variant", "full",
                                       "--ring", "q"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: the full chain complex of 1023 simplex(es) in degrees 0..9 "
        "would list at least 9864100 orderings, over the limit of 131072"]
    with within(5):
        code, doc, err = _run_json(capsys, ["homology", cpath, "--variant",
                                            "reduced", "--ring", "q"])
    assert code == 0
    assert [doc["structure"][str(k)]["betti"] for k in range(10)] == [
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_full_homology_just_past_its_limit_exits_one_at_once(tmp_path,
                                                             capsys):
    """The 7-simplex with all its faces has 255 simplices and 109,600
    orderings; five parallel copies of one of its 6-faces, of 5,040
    orderings each, take it past MAX_FULL_ORDERINGS, and four would not."""
    mc = simplicial_complex([tuple("v%d" % i for i in range(8))])
    face = "v0,v1,v2,v3,v4,v5,v6"
    copies = [("%s~%d" % (face, i), mc.vertex_set(face), mc.facets(face))
              for i in range(5)]
    mc = Multicomplex(mc.vertices, [(s, mc.vertex_set(s), mc.facets(s))
                                    for s in mc.simplex_ids] + copies)
    assert 109600 + 4 * 5040 <= MAX_FULL_ORDERINGS < 109600 + 5 * 5040
    cpath = _write_mc(tmp_path, "simplex.json", mc)
    with within(1):
        code, out, err = _run(capsys, ["homology", cpath, "--variant", "full",
                                       "--ring", "q"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: the full chain complex of 260 simplex(es) in degrees 0..7 "
        "would list at least 134800 orderings, over the limit of 131072"]


def test_orbits_past_the_ordering_limit_exits_one_at_once(tmp_path, capsys):
    """The 9-simplex has 10! = 3,628,800 orderings, over MAX_ORDERINGS;
    a degree it has no simplex of lists none."""
    mc = simplicial_complex([tuple("v%d" % i for i in range(10))])
    cpath = _write_mc(tmp_path, "simplex.json", mc)
    apath = _write(tmp_path, "trivial.json",
                   formats.action_to_doc(trivial_action(mc)))
    with within(5):
        code, out, err = _run(capsys, ["orbits", apath, "--complex", cpath,
                                       "--degree", "9"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: the orbits of 1 simplex(es) of degree 9 would list 1 x 10! "
        "orderings, over the limit of 1000000"]
    with within(5):
        code, doc, err = _run_json(capsys, [
            "orbits", apath, "--complex", cpath, "--degree", str(2 ** 70)])
    assert (code, doc["orbits"]) == (0, [])


def test_sphere_past_the_simplex_limit_exits_one_at_once(capsys):
    """The special 40-sphere has 2^41 simplices, over MAX_SIMPLICES."""
    with within(1):
        code, out, err = _run(capsys, ["sphere", "--dim", "40"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: the special 40-sphere would have 2^41 simplices, over the "
        "limit of 32768"]


def test_nerve_past_the_simplex_limit_exits_one_at_once(tmp_path, capsys):
    """40 members through one point span 2^40 - 1 faces, over
    MAX_SIMPLICES; the count stops once it passes the limit."""
    cover = Cover({"m%02d" % j: ["p", "q%d" % j] for j in range(40)})
    path = _write(tmp_path, "cover.json", formats.cover_to_doc(cover))
    with within(1):
        code, out, err = _run(capsys, ["nerve", path])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: the nerve of 40 members would have at least 32769 faces, "
        "over the limit of 32768"]


@pytest.mark.parametrize("cap", ["-1", "-2"])
def test_nerve_refuses_a_negative_dimension_cap(tmp_path, capsys, cap):
    """Three members through one point span a 2-simplex; a negative cap
    is refused, not read as no cap."""
    cover = Cover({j: ["p", "q" + j] for j in "abc"})
    path = _write(tmp_path, "cover.json", formats.cover_to_doc(cover))
    code, out, err = _run(capsys, ["nerve", path, "--max-dim", cap])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: nerve dimension cap must be >= 0"]


def test_average_smears_a_cochain_over_the_swap(tmp_path, capsys):
    cpath = _write_mc(tmp_path, "cone.json", cone_over_double_edge())
    apath = _write(tmp_path, "swap.json",
                   formats.action_to_doc(cone_swap_action()))
    phi = Cochain(1, RING_RAT, {AlgebraicSimplex("north", ("x", "y")): 1})
    ppath = _write(tmp_path, "phi.json", formats.cochain_to_doc(phi))
    code, doc, err = _run_json(capsys, ["average", apath, "--complex", cpath,
                                        "--cochain", ppath])
    assert code == 0
    avg = formats.cochain_from_doc(doc)
    assert avg.coefficient(AlgebraicSimplex("north", ("x", "y"))) == \
        Fraction(1, 2)
    assert avg.coefficient(AlgebraicSimplex("south", ("x", "y"))) == \
        Fraction(1, 2)


@pytest.mark.parametrize("command,terms,key", [
    ("average", {("x", "c"): 1}, "(north;x,c)"),
    ("average", {("x", "x"): 1}, "(north;x,x)"),
    ("vanish-check", {("x", "c"): 1, ("c", "x"): -1}, "(north;c,x)"),
    # not alternating either: the basis check must come first
    ("vanish-check", {("x", "c"): 1}, "(north;x,c)"),
    ("vanish-check", {("x", "x"): 1}, "(north;x,x)"),
], ids=["average-foreign-vertex", "average-repeated-vertex",
        "vanish-check-foreign-vertex", "vanish-check-foreign-vertex-alone",
        "vanish-check-repeated-vertex"])
def test_a_term_off_its_simplex_is_no_basis_element(tmp_path, capsys,
                                                    command, terms, key):
    """A term whose vertices are not an ordering of its simplex's vertex
    set is rejected before averaging, as toy-vanish rejects it, and
    vanish-check rejects it before it checks alternation."""
    cpath = _write_mc(tmp_path, "cone.json", cone_over_double_edge())
    apath = _write(tmp_path, "swap.json",
                   formats.action_to_doc(cone_swap_action()))
    phi = Cochain(1, RING_RAT, {AlgebraicSimplex("north", vs): v
                                for vs, v in terms.items()})
    ppath = _write(tmp_path, "phi.json", formats.cochain_to_doc(phi))
    if command == "average":
        argv = ["average", apath, "--complex", cpath, "--cochain", ppath]
    else:
        kpath = _write(tmp_path, "coloring.json", {
            "schema_version": formats.SCHEMA_VERSION,
            "assignment": {"c": "0", "x": "0", "y": "0"}})
        wpath = _write(tmp_path, "witnesses.json", {
            "schema_version": formats.SCHEMA_VERSION, "witnesses": {}})
        argv = ["vanish-check", ppath, "--complex", cpath, "--action", apath,
                "--coloring", kpath, "--witnesses", wpath]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s is not a degree-1 basis element\n" % key


def test_diffuse_certifies_the_l1_bound(tmp_path, capsys):
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["0", "1", "2", "3"],
              "group": {"kind": "free_abelian", "rank": 1},
              "action": {"kind": "translation"}}
    apath = _write(tmp_path, "action.json", action)
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"0": "1", "3": "-1"}}
    fpath = _write(tmp_path, "f.json", f)
    code, doc, err = _run_json(capsys, ["diffuse", fpath, "--action", apath,
                                        "--epsilon", "1/2"])
    assert code == 0
    assert Fraction(doc["norm"]) <= Fraction(doc["certified_bound"])
    assert Fraction(doc["certified_bound"]) == Fraction(1, 2)
    total = sum(Fraction(v) for v in doc["result"]["values"].values())
    assert total == 0


@pytest.mark.parametrize("rank, side, values, digest, norm", [
    (1, 48, {"3": "1", "13": "-1"},
     "6c35c388973823e18dc83cc969bb504024e008347c2aa6d6a1d64c09e1cbe402",
     "20/321"),
    (2, 10, {"4,4": "1", "4,5": "-1"},
     "c0f2d544c947457dcf729d704bde86a668effba75f2932db80fdf68231545c3a",
     "2/33"),
    (2, 10, {"2,3": "1", "3,4": "-1"},
     "b0253f433690cca39f71f62ac5143d441bd74fb25e2a8058e3b5fc8b83e3b541",
     "258/4225")])
def test_diffuse_prints_its_pinned_bytes(tmp_path, capsys, rank, side,
                                         values, digest, norm):
    # a dipole on a Z line and at l1 distances 1 and 2 in Z^2, epsilon
    # 1/8: the measure and the result, byte for byte, by their sha256
    points = [",".join(map(str, p))
              for p in itertools.product(range(side), repeat=rank)]
    action = {"schema_version": formats.SCHEMA_VERSION, "points": points,
              "group": {"kind": "free_abelian", "rank": rank},
              "action": {"kind": "translation"}}
    f = {"schema_version": formats.SCHEMA_VERSION, "values": values}
    code, out, err = _run(capsys, [
        "diffuse", _write(tmp_path, "f.json", f),
        "--action", _write(tmp_path, "action.json", action),
        "--epsilon", "1/8"])
    assert code == 0
    assert err == "diffused: |f'|_1 = %s <= 1/8\n" % norm
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_an_oversized_folner_box_exits_one_with_its_size(tmp_path, capsys):
    # a Z^2 dipole at distance 10 needs |phi|_1 = 10 and epsilon/|f|_1 =
    # 1/20000, so a box of side 400,001: refused before any atom is built
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["%d,0" % i for i in range(11)],
              "group": {"kind": "free_abelian", "rank": 2},
              "action": {"kind": "translation"}}
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"0,0": "1", "10,0": "-1"}}
    code, out, err = _run(capsys, [
        "diffuse", _write(tmp_path, "f.json", f),
        "--action", _write(tmp_path, "action.json", action),
        "--epsilon", "1/10000"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the Folner box of side 400001 in Z^2 "
                          "would have 160000800001 atoms")


@pytest.mark.parametrize("rank", [2 ** 70, 708])
def test_a_free_abelian_rank_past_the_limit_exits_one(tmp_path, capsys,
                                                      rank):
    # the generating set of Z^rank holds 2*rank^2 integers; 2^70 used to
    # overflow building the identity, and a rank near 10^5 would fill
    # memory with generators before anything else ran
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["0", "1"],
              "group": {"kind": "free_abelian", "rank": rank},
              "action": {"kind": "translation"}}
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"0": "1", "1": "-1"}}
    code, out, err = _run(capsys, [
        "diffuse", _write(tmp_path, "f.json", f),
        "--action", _write(tmp_path, "action.json", action),
        "--epsilon", "1/2"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: free abelian rank %d is too large: its generating set "
        "would hold %d integers, over the limit of 1000000"
        % (rank, 2 * rank * rank)]


def _block_doc(points, n):
    group = cyclic_group(n)
    moves = {}
    for j, g in enumerate(group.elements):
        moves[g] = {points[i]: points[(i + j) % n] for i in range(n)}
    return {"points": list(points),
            "group": formats.group_to_doc(group),
            "action": {"kind": "table", "moves": moves},
            "horizon": 1}


def test_local_diffuse_reports_per_block_budgets(tmp_path, capsys):
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["a0", "a1", "a2", "a3", "b0", "b1", "b2"],
              "blocks": [_block_doc(("a0", "a1", "a2", "a3"), 4),
                         _block_doc(("b0", "b1", "b2"), 3)]}
    apath = _write(tmp_path, "action.json", action)
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"a0": "1", "a2": "-1", "b0": "1/2", "b1": "-1/2"}}
    fpath = _write(tmp_path, "f.json", f)
    code, doc, err = _run_json(capsys, ["local-diffuse", fpath,
                                        "--action", apath,
                                        "--epsilons", "1/8,1/8",
                                        "--threshold", "0"])
    assert code == 0
    assert len(doc["blocks"]) == 2
    for entry in doc["blocks"]:
        assert Fraction(entry["sum"]) == 0
        assert Fraction(entry["norm"]) <= Fraction(1, 8)


def test_local_diffuse_rejects_a_subgroup_that_carries_a_point_off(
        tmp_path, capsys):
    # Z/3 turns the block p0, p1, p2 and fixes q0 under r1, but r2
    # carries q0 of block 1 to q1 of block 2
    block = _block_doc(("p0", "p1", "p2"), 3)
    block["action"]["moves"]["r2"].update(q0="q1", q1="q0")
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["p0", "p1", "p2", "q0", "q1"],
              "blocks": [block, _block_doc(("q0",), 1),
                         _block_doc(("q1",), 1)]}
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"p0": "1", "p1": "-1", "q0": "1", "q1": "-1"}}
    code, out, err = _run(capsys, [
        "local-diffuse", _write(tmp_path, "f.json", f),
        "--action", _write(tmp_path, "action.json", action),
        "--epsilons", "1/8,1,1", "--threshold", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid orbit structure: ")
    assert "block 0" in err.splitlines()[0]


def test_local_diffuse_rejects_an_ambient_table_that_names_no_point(
        tmp_path, capsys):
    # Z/2 has no row for r1, which must fail even where the rows it has
    # name no point to check
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["p0", "p1"],
              "blocks": [_block_doc(("p0", "p1"), 2)],
              "group": formats.group_to_doc(cyclic_group(2)),
              "action": {"kind": "table", "moves": {"r0": {}}}}
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"p0": "1", "p1": "-1"}}
    code, out, err = _run(capsys, [
        "local-diffuse", _write(tmp_path, "f.json", f),
        "--action", _write(tmp_path, "action.json", action),
        "--epsilons", "1/8", "--threshold", "0"])
    assert (code, out, err) == (
        2, "", "error: no move table for element 'r1'\n")


def test_toy_vanish_kills_the_cone_cycle(tmp_path, capsys):
    cpath = _write_mc(tmp_path, "cone.json", cone_over_double_edge())
    apath = _write(tmp_path, "swap.json",
                   formats.action_to_doc(cone_swap_action()))
    z = {"schema_version": formats.SCHEMA_VERSION, "degree": 1,
         "ring": RING_INT,
         "terms": [{"simplex": "north", "vertices": ["x", "y"],
                    "coeff": "1"},
                   {"simplex": "south", "vertices": ["x", "y"],
                    "coeff": "-1"}]}
    zpath = _write(tmp_path, "z.json", z)
    code, doc, err = _run_json(capsys, ["toy-vanish", zpath,
                                        "--complex", cpath,
                                        "--action", apath,
                                        "--epsilon", "1/100"])
    assert code == 0
    assert doc["norm"] == "0"
    assert set(doc["certificate"]["witnesses"]) == {"e", "g"}


def test_toy_vanish_on_a_cycle_its_alternation_kills_exits_one(tmp_path,
                                                               capsys):
    """Every ordering of both edges of the double edge is a cycle that
    bounds nothing, and its alternation is zero."""
    cpath = _write_mc(tmp_path, "edge.json", double_edge())
    apath = _write(tmp_path, "flip.json",
                   formats.action_to_doc(antipodal_action()))
    z = Chain(1, RING_INT, {AlgebraicSimplex(s, vs): 1
                            for s in ("north", "south")
                            for vs in (("x", "y"), ("y", "x"))})
    zpath = _write(tmp_path, "z.json", formats.chain_to_doc(z))
    code, out, err = _run(capsys, ["toy-vanish", zpath, "--complex", cpath,
                                   "--action", apath, "--epsilon", "1/4"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: the alternation of z is not homologous to z, so averaging "
        "it cannot keep the class of z"]


def _arcs_doc():
    cover = Cover({"a": ["0", "1", "2"], "b": ["2", "3", "4"],
                   "c": ["4", "5", "0"]}, amenable={"a": True})
    return formats.cover_to_doc(cover)


def test_nerve_and_multiplicity(tmp_path, capsys):
    path = _write(tmp_path, "cover.json", _arcs_doc())
    code, doc, err = _run_json(capsys, ["nerve", path])
    assert code == 0
    n = formats.multicomplex_from_doc(doc)
    assert sorted(n.vertices) == ["a", "b", "c"]
    assert n.dimension == 1

    code, doc, err = _run_json(capsys, ["mult", path])
    assert code == 0
    assert doc["multiplicity"] == 2
    assert doc["amenable"] == {"a": True, "b": False, "c": False}


def test_coloring_and_its_coarse_failure(tmp_path, capsys):
    host = simplicial_complex([("a", "b"), ("c", "d")])
    hpath = _write_mc(tmp_path, "host.json", host)
    cover = Cover({"0": ["a", "b"], "1": ["c", "d"]})
    cpath = _write(tmp_path, "cover.json", formats.cover_to_doc(cover))
    code, doc, err = _run_json(capsys, ["coloring", cpath,
                                        "--complex", hpath])
    assert code == 0
    assert doc["assignment"] == {"a": "0", "b": "0", "c": "1", "d": "1"}

    coarse = Cover({"0": ["a", "b"]})
    cpath = _write(tmp_path, "coarse.json", formats.cover_to_doc(coarse))
    code, out, err = _run(capsys, ["coloring", cpath, "--complex", hpath])
    assert code == 1
    assert "too coarse" in err


def test_vanish_check_reports_the_witnessed_simplex(tmp_path, capsys):
    mc = simplicial_complex([("x", "y", "z")])
    cpath = _write_mc(tmp_path, "triangle.json", mc)
    group = cyclic_group(2, names=["e", "g"])
    maps = {"e": {"vertex_map": {v: v for v in "xyz"},
                  "simplex_map": {s: s for s in mc.simplex_ids}},
            "g": {"vertex_map": {"x": "y", "y": "x", "z": "z"},
                  "simplex_map": {"x": "y", "y": "x", "z": "z",
                                  "x,y": "x,y", "x,z": "y,z", "y,z": "x,z",
                                  "x,y,z": "x,y,z"}}}
    action = {"schema_version": formats.SCHEMA_VERSION,
              "elements": list(group.elements), "table": group.table,
              "maps": maps}
    apath = _write(tmp_path, "action.json", action)
    phi = Cochain(1, RING_RAT, {
        AlgebraicSimplex("x,z", ("x", "z")): 1,
        AlgebraicSimplex("x,z", ("z", "x")): -1,
        AlgebraicSimplex("y,z", ("y", "z")): 1,
        AlgebraicSimplex("y,z", ("z", "y")): -1,
    })
    ppath = _write(tmp_path, "phi.json", formats.cochain_to_doc(phi))
    coloring = {"schema_version": formats.SCHEMA_VERSION,
                "assignment": {"x": "L", "y": "L", "z": "R"}}
    kpath = _write(tmp_path, "coloring.json", coloring)
    witnesses = {"schema_version": formats.SCHEMA_VERSION,
                 "witnesses": {"x,y": ["g", "x", "y"]}}
    wpath = _write(tmp_path, "witnesses.json", witnesses)

    code, doc, err = _run_json(capsys, ["vanish-check", ppath,
                                        "--complex", cpath,
                                        "--action", apath,
                                        "--coloring", kpath,
                                        "--witnesses", wpath])
    assert code == 0
    assert doc["verified"] == ["x,y"]
    assert doc["complete"] is True

    witnesses["witnesses"]["x,y"] = ["g", "x"]
    wpath = _write(tmp_path, "short.json", witnesses)
    code, out, err = _run(capsys, ["vanish-check", ppath,
                                   "--complex", cpath, "--action", apath,
                                   "--coloring", kpath,
                                   "--witnesses", wpath])
    assert code == 2
    assert "element, vertex, vertex" in err


def test_summary_output_goes_to_stdout(tmp_path, capsys):
    path = _write(tmp_path, "cover.json", _arcs_doc())
    code, out, err = _run(capsys, ["--output", "summary", "mult", path])
    assert code == 0
    assert out.strip() == "multiplicity: 2"


def _edge_doc(facets):
    """Edge e over {a, b} with the given facet map."""
    return {"schema_version": formats.SCHEMA_VERSION, "vertices": ["a", "b"],
            "simplices": [{"id": "a", "vertices": ["a"], "facets": {}},
                          {"id": "b", "vertices": ["b"], "facets": {}},
                          {"id": "e", "vertices": ["a", "b"],
                           "facets": facets}]}


@pytest.mark.parametrize("facets,error", [
    ({"a": "a"}, "error: simplex 'e' is missing its facet over {b}"),
    ({"a": "a", "b": "a"},
     "error: facet of 'e' over {b} is 'a', which spans {a} instead"),
    ({"a": "a", "b": "b", "a,b": "e"},
     "error: simplex 'e' has a spurious facet entry for {a,b}"),
], ids=["missing", "wrong-vertices", "spurious"])
@pytest.mark.parametrize("command", [
    ["homology"], ["homology", "--variant", "full"],
    ["homology", "--variant", "relative", "--subcomplex", "a"],
    ["seminorm", "--complex"]])
def test_a_bad_facet_exits_one_naming_the_simplex(tmp_path, capsys, facets,
                                                  error, command):
    """Each builder names the fault as validate does."""
    path = _write(tmp_path, "edge.json", _edge_doc(facets))
    zero = _write(tmp_path, "z.json", formats.chain_to_doc(
        Chain(0, RING_RAT)))
    code, out, err = _run(capsys, command + [path] + (
        [zero] if command[0] == "seminorm" else []))
    assert (code, out) == (1, "")
    assert err.splitlines() == [error]
    code, doc, err = _run_json(capsys, ["validate", path])
    assert (code, doc["problems"]) == (1, [error[len("error: "):]])


@pytest.mark.parametrize("facets,error", [
    ({"a": "e", "b": "b"},
     "error: facet of 'e' over {a} is 'e', which spans {a,b} instead"),
    ({"a": "a", "b": "b", "a,b": "e"},
     "error: simplex 'e' has a spurious facet entry for {a,b}"),
    ({"a": "a"}, "error: simplex 'e' is missing its facet over {b}"),
], ids=["itself-over-a-vertex", "itself-over-its-vertices", "missing"])
def test_product_with_a_facet_it_cannot_prism_exits_one(tmp_path, capsys,
                                                        facets, error):
    path = _write(tmp_path, "edge.json", _edge_doc(facets))
    code, out, err = _run(capsys, ["product", path])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [error]


@pytest.mark.parametrize("command", [
    ["homology"], ["homology", "--variant", "full"],
    ["homology", "--variant", "relative", "--subcomplex", "a"],
    ["seminorm", "--complex"]])
def test_an_empty_simplex_exits_one_as_validate_does(tmp_path, capsys,
                                                    command):
    doc = _edge_doc({"a": "a", "b": "b"})
    doc["simplices"].append({"id": "z", "vertices": [], "facets": {}})
    path = _write(tmp_path, "edge.json", doc)
    zero = _write(tmp_path, "z.json", formats.chain_to_doc(
        Chain(0, RING_RAT)))
    code, out, err = _run(capsys, command + [path] + (
        [zero] if command[0] == "seminorm" else []))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: simplex 'z' has an empty vertex set"]
    assert _run(capsys, ["--output", "summary", "validate", path])[:2] == \
        (1, "INVALID: 1 problem(s); first: simplex 'z' has an empty "
            "vertex set\n")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,code", [
    (["validate", "{complex}"], 0),
    (["validate", "{missing}"], 2),
    (["validate", "--no-such-option"], 2),
], ids=["exit-0", "exit-2", "usage"])
def test_main_pauses_the_collector_and_restores_it(tmp_path, capsys,
                                                  monkeypatch, enabled,
                                                  argv, code):
    paths = {"complex": _write_mc(tmp_path, "c.json", triangle_boundary()),
             "missing": str(tmp_path / "missing.json")}
    during = []
    decode = formats.multicomplex_from_doc

    def watched(doc):
        during.append(gc.isenabled())
        return decode(doc)
    monkeypatch.setattr(formats, "multicomplex_from_doc", watched)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = main([a.format(**paths) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            got = exc.code
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert got == code
    assert after == enabled
    assert during == ([False] if code == 0 else [])


@pytest.mark.parametrize("facets,error", [
    ({"a": "e", "b": "b"},
     "error: facet of 'e' over {a} is 'e', which spans {a,b} instead"),
    ({"a": "a", "b": "a"},
     "error: facet of 'e' over {b} is 'a', which spans {a} instead"),
], ids=["itself", "wrong-vertices"])
def test_an_action_on_a_complex_with_a_bad_facet_exits_one(tmp_path, capsys,
                                                          facets, error):
    path = _write(tmp_path, "edge.json", _edge_doc(facets))
    action = _write(tmp_path, "action.json", {
        "schema_version": formats.SCHEMA_VERSION, "elements": ["1"],
        "table": {"1": {"1": "1"}},
        "maps": {"1": {"vertex_map": {"a": "a", "b": "b"},
                       "simplex_map": {"a": "a", "b": "b", "e": "e"}}}})
    with within(10):
        code, out, err = _run(capsys, ["quotient", action, "--complex", path])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [error]


@pytest.mark.parametrize("command", [["quotient"], ["orbits", "--degree", "1"]])
def test_an_action_on_a_spurious_facet_entry_exits_one(tmp_path, capsys,
                                                      command):
    """The trivial action on the triangle whose t lists a facet over {x}
    is refused with validate's words, where its quotient used to be
    written out."""
    doc = formats.multicomplex_to_doc(simplicial_complex([("x", "y", "z")]))
    doc["simplices"][-1]["facets"]["x"] = "x"
    assert doc["simplices"][-1]["id"] == "x,y,z"
    doc["simplices"][-1]["id"] = "t"
    path = _write(tmp_path, "triangle.json", doc)
    sids = [entry["id"] for entry in doc["simplices"]]
    action = _write(tmp_path, "action.json", {
        "schema_version": formats.SCHEMA_VERSION, "elements": ["1"],
        "table": {"1": {"1": "1"}},
        "maps": {"1": {"vertex_map": {v: v for v in "xyz"},
                       "simplex_map": {sid: sid for sid in sids}}}})
    error = "simplex 't' has a spurious facet entry for {x}"
    code, out, err = _run(capsys, command + [action, "--complex", path])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: " + error]
    code, doc, err = _run_json(capsys, ["validate", path])
    assert (code, doc["problems"]) == (1, [error])


@pytest.mark.parametrize("command", ["toy-vanish", "vanish-check"])
def test_a_zero_chain_of_huge_degree_exits_zero_at_once(tmp_path, capsys,
                                                        command):
    """No ordering of a simplex is listed for a chain with no terms."""
    docs = {"complex": formats.multicomplex_to_doc(cone_over_double_edge()),
            "action": formats.action_to_doc(cone_swap_action()),
            "chain": {"schema_version": formats.SCHEMA_VERSION,
                      "degree": 2 ** 70, "ring": RING_RAT, "terms": []},
            "coloring": {"schema_version": formats.SCHEMA_VERSION,
                         "assignment": {"c": "0", "x": "1", "y": "1"}},
            "witnesses": {"schema_version": formats.SCHEMA_VERSION,
                          "witnesses": {}}}
    paths = {name: _write(tmp_path, name + ".json", doc)
             for name, doc in docs.items()}
    argv = [command, paths["chain"], "--complex", paths["complex"],
            "--action", paths["action"]]
    argv += (["--epsilon", "1/4"] if command == "toy-vanish" else
             ["--coloring", paths["coloring"],
              "--witnesses", paths["witnesses"]])
    with within(10):
        code, out, err = _run(capsys, argv)
    assert code == 0


def _decoder_docs():
    """Valid documents for every decoder, keyed by the name of the file."""
    mc = double_edge()
    return {
        "complex": formats.multicomplex_to_doc(mc),
        "chain": {"schema_version": formats.SCHEMA_VERSION, "degree": 1,
                  "ring": RING_RAT, "terms": []},
        "action": formats.action_to_doc(double_edge_swap_action()),
        "function": {"schema_version": formats.SCHEMA_VERSION,
                     "values": {"0": "1", "1": "-1"}},
        "set_action": {"schema_version": formats.SCHEMA_VERSION,
                       "points": ["0", "1"],
                       "group": {"kind": "free_abelian", "rank": 1},
                       "action": {"kind": "translation"}},
        "host": formats.multicomplex_to_doc(
            simplicial_complex([("a", "b"), ("c", "d")])),
        "cover": formats.cover_to_doc(Cover({"0": ["a", "b"],
                                             "1": ["c", "d"]})),
        "coloring": {"schema_version": formats.SCHEMA_VERSION,
                     "assignment": {v: "0" for v in mc.vertices}},
        "witnesses": {"schema_version": formats.SCHEMA_VERSION,
                      "witnesses": {}},
    }


_DECODER_ARGV = {
    "seminorm": ["chain", "--complex", "complex"],
    "average": ["action", "--complex", "complex", "--cochain", "chain"],
    "diffuse": ["function", "--action", "set_action", "--epsilon", "1/2"],
    "quotient": ["action", "--complex", "complex"],
    "mult": ["cover"],
    "coloring": ["cover", "--complex", "host"],
    "vanish-check": ["chain", "--complex", "complex", "--action", "action",
                     "--coloring", "coloring", "--witnesses", "witnesses"],
}

_FIELD_DOC = {"degree": "chain", "terms": "chain", "values": "function",
              "points": "set_action", "blocks": "set_action",
              "action": "set_action", "group": "set_action",
              "maps": "action", "table": "action",
              "sets": "cover", "amenable": "cover",
              "assignment": "coloring", "witnesses": "witnesses"}


def _swap_maps(kind, key, value):
    """The maps of the double-edge swap with maps[g][kind][key] = value."""
    maps = formats.action_to_doc(double_edge_swap_action())["maps"]
    maps["g"][kind][key] = value
    return maps


@pytest.mark.parametrize("command,field,value", [
    ("seminorm", "terms", 5),
    ("seminorm", "terms", [{"simplex": "e", "vertices": 5, "coeff": "1"}]),
    ("seminorm", "terms", [{"simplex": ["e"], "vertices": ["x", "y"],
                            "coeff": "1"}]),
    ("seminorm", "degree", "x"),
    ("seminorm", "degree", 1.5),
    ("seminorm", "degree", -1),
    ("seminorm", "degree", True),
    ("average", "terms", 5),
    ("vanish-check", "degree", -1),
    ("diffuse", "values", 5),
    ("diffuse", "points", 5),
    ("diffuse", "blocks", 5),
    ("quotient", "maps", 5),
    ("mult", "sets", 5),
    ("mult", "sets", {"0": 5}),
    ("mult", "sets", {"0": [1]}),
    ("mult", "amenable", 5),
    ("coloring", "sets", 5),
    ("vanish-check", "assignment", 5),
    ("vanish-check", "witnesses", 5),
    ("diffuse", "points", ["0", ["1"]]),
    ("diffuse", "points", ["0", {"1": "1"}]),
    ("diffuse", "blocks", [{"points": [["0"]], "horizon": 0,
                            "group": {"kind": "free_abelian", "rank": 1},
                            "action": {"kind": "translation"}}]),
    ("diffuse", "blocks", [{"points": [{"0": "0"}], "horizon": 0,
                            "group": {"kind": "free_abelian", "rank": 1},
                            "action": {"kind": "translation"}}]),
    ("diffuse", "action", {"kind": "table", "moves": {"1": 5, "-1": 5}}),
    ("diffuse", "action", {"kind": "table",
                           "moves": {"1": {"0": ["1"]}, "-1": {}}}),
    ("vanish-check", "witnesses", {"north": [["g"], "x", "y"]}),
    ("vanish-check", "assignment", {"x": ["0"], "y": "0"}),
    ("quotient", "table", {"e": {"e": "e", "g": "g"}, "g": {"e": "g",
                                                           "g": []}}),
    ("average", "table", {"e": {"e": "e", "g": "g"}, "g": {"e": {},
                                                          "g": "e"}}),
    ("diffuse", "group", {"kind": "finite", "elements": ["e", "g"],
                          "table": {"e": {"e": "e", "g": ["g"]},
                                    "g": {"e": "g", "g": "e"}}}),
    ("quotient", "maps", _swap_maps("simplex_map", "north", ["south"])),
    ("average", "maps", _swap_maps("vertex_map", "x", {"x": "x"})),
    ("mult", "amenable", {"0": "false"}),
    ("mult", "amenable", {"1": []}),
    ("mult", "amenable", {"0": 1}),
    ("vanish-check", "maps", _swap_maps("simplex_map", "south", None)),
    ("vanish-check", "table", {"e": {"e": "e", "g": "g"},
                               "g": {"e": "g", "g": 0}}),
    ("diffuse", "group", {"kind": "finite", "elements": ["e", "g"],
                          "table": {"e": "e", "g": {"e": "g", "g": 1}}}),
])
def test_a_field_of_the_wrong_type_exits_two(tmp_path, capsys, command,
                                             field, value):
    docs = _decoder_docs()
    argv = [command] + [str(tmp_path / a) if a in docs else a
                        for a in _DECODER_ARGV[command]]
    for name, doc in docs.items():
        _write(tmp_path, name, doc)
    assert _run(capsys, argv)[0] == 0
    docs[_FIELD_DOC[field]][field] = value
    _write(tmp_path, _FIELD_DOC[field], docs[_FIELD_DOC[field]])
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    if field in _NESTED_STRINGS:
        assert err == "error: %s\n" % (
            _NESTED_STRINGS[field] if isinstance(value, dict)
            else "field %r must be a JSON object" % field)


# the errors of the decoders that check nested values are strings
_NESTED_STRINGS = {
    "maps": "the maps of element 'g' must send ids to JSON strings",
    "table": "the products of the composition table must be JSON strings",
    "group": "the products of the composition table must be JSON strings"}


def test_product_rejects_ids_that_collide(tmp_path, capsys):
    """The cone of the prism over x on the cap x@0 is named x^x@0, which
    is also the cap of the 0-simplex x^x."""
    path = _write(tmp_path, "mc.json", {
        "schema_version": formats.SCHEMA_VERSION, "vertices": ["x", "y"],
        "simplices": [{"id": "x", "vertices": ["x"], "facets": {}},
                      {"id": "x^x", "vertices": ["y"], "facets": {}}]})
    code, out, err = _run(capsys, ["product", path])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: the product names two of its simplices 'x^x@0', one made "
        "from 'x^x' and one from 'x'"]


def _action_jobs(tmp_path, a):
    """Every command that reads a simplicial action, on a and on documents
    that cone_action(3) accepts."""
    paths = {name: _write(tmp_path, name + ".json", doc) for name, doc in {
        "complex": formats.multicomplex_to_doc(a.complex),
        "action": formats.action_to_doc(a),
        "phi": formats.cochain_to_doc(Cochain(1, RING_RAT, {
            AlgebraicSimplex("e0", ("x", "y")): 1})),
        "psi": formats.cochain_to_doc(Cochain(1, RING_RAT, {
            AlgebraicSimplex("e%d" % i, vs): 1 if vs == ("x", "y") else -1
            for i in range(3) for vs in (("x", "y"), ("y", "x"))})),
        "z": formats.chain_to_doc(Chain(1, RING_RAT, {
            AlgebraicSimplex("e0", ("x", "y")): 1,
            AlgebraicSimplex("e1", ("x", "y")): -1})),
        "coloring": {"schema_version": formats.SCHEMA_VERSION,
                     "assignment": {"c": "0", "x": "1", "y": "2"}},
        "witnesses": {"schema_version": formats.SCHEMA_VERSION,
                      "witnesses": {}}}.items()}
    where = ["--complex", paths["complex"]]
    return [
        ["average", paths["action"], *where, "--cochain", paths["phi"]],
        ["orbits", paths["action"], *where, "--degree", "1"],
        ["quotient", paths["action"], *where],
        ["toy-vanish", paths["z"], *where, "--action", paths["action"],
         "--epsilon", "1/4"],
        ["vanish-check", paths["psi"], *where, "--action", paths["action"],
         "--coloring", paths["coloring"], "--witnesses", paths["witnesses"]]]


def test_every_command_that_reads_an_action_rejects_a_non_homomorphism(
        tmp_path, capsys):
    """Z/2 turning the cone over a 3-fold edge by one third: every map is
    a simplicial automorphism, but r1 after r1 is not the map of r0.
    average used to print (e0 + e1)/2, which r1 moves, and exit 0."""
    a = cone_action(3, cyclic_group(2))
    for argv in _action_jobs(tmp_path, a):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.splitlines() == [
            "error: invalid action: homomorphism fails on simplex 'e0': "
            "('r1'*'r1') and 'r1' after 'r1' disagree"], argv
    for argv in _action_jobs(tmp_path, cone_action(3)):
        assert _run(capsys, argv)[0] == 0, argv


def test_a_map_undefined_off_the_generators_is_reported(tmp_path, capsys):
    # Z/3 is generated by r0 and r1; the map of r2 misses the apex
    doc = formats.action_to_doc(cone_action(3))
    del doc["maps"]["r2"]["vertex_map"]["c"]
    argv = _action_jobs(tmp_path, cone_action(3))[0]
    _write(tmp_path, "action.json", doc)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: invalid action: map of 'r2': vertex map is undefined on 'c'"]


@pytest.mark.parametrize("where", ["ambient", "block"])
def test_a_table_action_of_a_free_abelian_group_exits_two(tmp_path, capsys,
                                                         where):
    """Z has no finite move table: an element without a row, which the
    validation sample and the Folner box draw, could not move a point."""
    group = {"kind": "free_abelian", "rank": 1}
    table = {"kind": "table", "moves": {"0": {}, "1": {"p": "q", "q": "p"},
                                        "-1": {"p": "q", "q": "p"}}}
    action = {"schema_version": formats.SCHEMA_VERSION, "points": ["p", "q"]}
    if where == "ambient":
        action.update(group=group, action=table)
    else:
        action["blocks"] = [{"points": ["p", "q"], "group": group,
                             "action": table, "horizon": 1}]
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"p": "1", "q": "-1"}}
    code, out, err = _run(capsys, [
        "diffuse", _write(tmp_path, "f.json", f), "--action",
        _write(tmp_path, "action.json", action), "--epsilon", "1/2"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: table actions need a finite group"]


def test_diffuse_rejects_a_point_the_translation_does_not_fix(tmp_path,
                                                              capsys):
    action = {"schema_version": formats.SCHEMA_VERSION,
              "points": ["0", "01", "2"],
              "group": {"kind": "free_abelian", "rank": 1},
              "action": {"kind": "translation"}}
    f = {"schema_version": formats.SCHEMA_VERSION,
         "values": {"0": "1", "2": "-1"}}
    code, out, err = _run(capsys, [
        "diffuse", _write(tmp_path, "f.json", f), "--action",
        _write(tmp_path, "action.json", action), "--epsilon", "1/2"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: invalid action: ambient action: identity moves '01' to '1'"]
