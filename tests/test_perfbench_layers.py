"""The benchmark's per-layer tracer still sees the layers it names.

perfbench/layers.py rebinds functions where their callers look them up.
If a caller imports one of them by name instead, or the work moves out of
the function the tracer wraps, the wrapper is never called and the
layer's metrics read 0 without any error, so these tests run jobs under
the tracer and require the layers they exercise to be seen.
"""

import importlib.util
from pathlib import Path

from multicomplex import cli, formats
from multicomplex.chains import RING_RAT, Cochain
from multicomplex.fixtures import (cone_over_double_edge, cone_swap_action,
                                   triangle_boundary)

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(formats.canonical_dumps(doc), encoding="utf-8")
    return path


def _traced(tmp_path, capsys, commands, path=None):
    """The tracer's counts over the given commands on the document at
    path (by default the triangle), each of which must exit 0; the
    tracer must leave every name as it was."""
    layers = _load_layers()
    places = [(owner, attr) for _, where, *_ in layers.SPANNED + layers.COUNTED
              for owner, attr in where]
    before = [getattr(owner, attr) for owner, attr in places]
    if path is None:
        path = _write(tmp_path, "mc.json",
                      formats.multicomplex_to_doc(triangle_boundary()))
    tracer = layers.Tracer()
    tracer.install()
    try:
        codes = [cli.main([name, str(path), *rest])
                 for name, *rest in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    assert tracer.counts["cli.main.calls"] == len(commands)
    assert [getattr(owner, attr) for owner, attr in places] == before
    return tracer.counts


def test_the_tracer_counts_the_smith_form_of_a_homology_job(tmp_path,
                                                           capsys):
    counts = _traced(tmp_path, capsys, [["homology", "--ring", "z"]])
    assert counts["intlinalg.smith_form.calls"] > 0
    assert counts["intlinalg.smith_form.entries"] > 0


def test_the_tracer_counts_the_writer_validate_and_product(tmp_path,
                                                          capsys):
    counts = _traced(tmp_path, capsys, [["validate"], ["product"]])
    for name in ("formats.dump.calls", "formats.bytes_out",
                 "core.validate.calls", "core.product_with_interval.calls",
                 "core.simplices_built"):
        assert counts[name] > 0, name


def test_the_tracer_counts_every_complex_a_skeleton_builds(tmp_path,
                                                           capsys):
    """validate decodes the triangle's 6 simplices; skeleton decodes them
    again and builds its 3 vertices through the constructor too."""
    counts = _traced(tmp_path, capsys, [["validate"],
                                        ["skeleton", "--dim", "0"]])
    assert counts["core.simplices_built"] == 6 + 6 + 3
    assert counts["core.Multicomplex.calls"] == 3


def test_the_tracer_counts_the_readers_of_a_volume_job(tmp_path, capsys):
    counts = _traced(tmp_path, capsys, [["volume"]])
    for name in ("chains.fundamental_cycle.calls",
                 "chains.HomologyResult.generators.calls",
                 "intlinalg.smith_form.calls", "exactlp.solve.calls"):
        assert counts[name] > 0, name


def test_the_tracer_counts_the_diffusion_of_a_translation_job(tmp_path,
                                                              capsys):
    action = _write(tmp_path, "action.json", {
        "schema_version": formats.SCHEMA_VERSION,
        "points": ["%d,%d" % (i, j) for i in range(3) for j in range(3)],
        "group": {"kind": "free_abelian", "rank": 2},
        "action": {"kind": "translation"}})
    f = _write(tmp_path, "f.json", {"schema_version": formats.SCHEMA_VERSION,
                                    "values": {"0,0": "1", "2,1": "-1"}})
    counts = _traced(tmp_path, capsys,
                     [["diffuse", "--action", str(action), "--epsilon",
                       "1/4"]], path=f)
    for name in ("diffusion.measure_derivative.calls",
                 "diffusion.convolve.pairs", "diffusion.folner_measure.atoms",
                 "diffusion.validate_action_on_set.calls"):
        assert counts[name] > 0, name


def test_the_tracer_counts_the_average_of_average_and_vanish_check(
        tmp_path, capsys):
    cone = _write(tmp_path, "cone.json",
                  formats.multicomplex_to_doc(cone_over_double_edge()))
    action = _write(tmp_path, "swap.json",
                    formats.action_to_doc(cone_swap_action()))
    phi = _write(tmp_path, "phi.json", formats.cochain_to_doc(Cochain(
        1, RING_RAT, {("north", ("x", "y")): 1, ("north", ("y", "x")): -1,
                      ("south", ("x", "y")): 1, ("south", ("y", "x")): -1})))
    coloring = _write(tmp_path, "coloring.json", {
        "schema_version": formats.SCHEMA_VERSION,
        "assignment": {"c": "0", "x": "1", "y": "1"}})
    witnesses = _write(tmp_path, "witnesses.json", {
        "schema_version": formats.SCHEMA_VERSION, "witnesses": {}})
    for counts in (
            _traced(tmp_path, capsys, [["average", "--complex", str(cone),
                                        "--cochain", str(phi)]], path=action),
            _traced(tmp_path, capsys, [["vanish-check", "--complex",
                                        str(cone), "--action", str(action),
                                        "--coloring", str(coloring),
                                        "--witnesses", str(witnesses)]],
                    path=phi)):
        assert counts["actions.average_cochain.calls"] > 0
        assert counts["actions.validate_action.calls"] > 0
