"""End-to-end runs of the command line through main(argv).

Inputs are written to tmp_path as canonical JSON; structured stdout is
parsed back and checked, summaries land on stderr unless --output
summary redirects them.
"""

import contextlib
import json
import signal
from fractions import Fraction

import pytest

from multicomplex import formats
from multicomplex.chains import (
    AlgebraicSimplex,
    Chain,
    Cochain,
    RING_INT,
    RING_RAT,
    fundamental_cycle,
)
from multicomplex.cli import main
from multicomplex.covers import Cover
from multicomplex.core import simplicial_complex, special_sphere
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


def test_seminorm_dual_and_integral_search(tmp_path, capsys):
    mc = triangle_boundary()
    cpath = _write_mc(tmp_path, "circle.json", mc)
    z = fundamental_cycle(mc, degree=1)
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
                   formats.chain_to_doc(fundamental_cycle(mc, degree=1)))
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


def test_volume_rejects_an_impure_complex(tmp_path, capsys):
    mc = simplicial_complex([("x", "y", "z")], vertices=["w"])
    path = _write_mc(tmp_path, "impure.json", mc)
    code, out, err = _run(capsys, ["volume", path])
    assert code == 1
    assert "error:" in err


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


@pytest.mark.parametrize("facets", [{"a": "a"}, {"a": "a", "b": "a"}],
                         ids=["missing", "wrong-vertices"])
@pytest.mark.parametrize("command", [
    ["homology"], ["homology", "--variant", "full"],
    ["homology", "--variant", "relative", "--subcomplex", "a"],
    ["seminorm", "--complex"]])
def test_a_bad_facet_exits_one_naming_the_simplex(tmp_path, capsys, facets,
                                                  command):
    path = _write(tmp_path, "edge.json", _edge_doc(facets))
    zero = _write(tmp_path, "z.json", formats.chain_to_doc(
        Chain(0, RING_RAT)))
    code, out, err = _run(capsys, command + [path] + (
        [zero] if command[0] == "seminorm" else []))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the facet of 'e' over {b} is ")


@pytest.mark.parametrize("facets,error", [
    ({"a": "e", "b": "b"},
     "error: the facet of 'e' over {a} is 'e', which spans {a,b}"),
    ({"a": "a", "b": "b", "a,b": "e"},
     "error: simplex 'e' has a spurious facet entry for {a,b}"),
    ({"a": "a"}, "error: the facet of 'e' over {b} is missing"),
], ids=["itself-over-a-vertex", "itself-over-its-vertices", "missing"])
def test_product_with_a_facet_it_cannot_prism_exits_one(tmp_path, capsys,
                                                        facets, error):
    path = _write(tmp_path, "edge.json", _edge_doc(facets))
    code, out, err = _run(capsys, ["product", path])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [error]


@contextlib.contextmanager
def _within(seconds):
    """Fail, instead of hanging, when the block runs longer than seconds."""
    def expire(*_):
        raise AssertionError("still running after %d s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("facets,error", [
    ({"a": "e", "b": "b"},
     "error: the facet of 'e' over {a} is 'e', which spans {a,b}"),
    ({"a": "a", "b": "a"},
     "error: the facet of 'e' over {b} is 'a', which spans {a}"),
], ids=["itself", "wrong-vertices"])
def test_an_action_on_a_complex_with_a_bad_facet_exits_one(tmp_path, capsys,
                                                          facets, error):
    path = _write(tmp_path, "edge.json", _edge_doc(facets))
    action = _write(tmp_path, "action.json", {
        "schema_version": formats.SCHEMA_VERSION, "elements": ["1"],
        "table": {"1": {"1": "1"}},
        "maps": {"1": {"vertex_map": {"a": "a", "b": "b"},
                       "simplex_map": {"a": "a", "b": "b", "e": "e"}}}})
    with _within(10):
        code, out, err = _run(capsys, ["quotient", action, "--complex", path])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [error]


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
    with _within(10):
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
