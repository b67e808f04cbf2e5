"""The benchmark's per-layer tracer still sees the layers it names.

perfbench/layers.py rebinds functions where their callers look them up.
If a caller imports one of them by name instead, the wrapper is never
called and the layer's metrics read 0 without any error, so this test
runs one job under the tracer and requires the Smith form to be seen.
"""

import importlib.util
from pathlib import Path

from multicomplex import cli, formats
from multicomplex.fixtures import triangle_boundary

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_counts_the_smith_form_of_a_homology_job(tmp_path,
                                                           capsys):
    layers = _load_layers()
    places = [(owner, attr) for _, where, *_ in layers.SPANNED + layers.COUNTED
              for owner, attr in where]
    before = [getattr(owner, attr) for owner, attr in places]
    path = tmp_path / "mc.json"
    path.write_text(formats.canonical_dumps(
        formats.multicomplex_to_doc(triangle_boundary())), encoding="utf-8")
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main(["homology", str(path), "--ring", "z"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.counts["intlinalg.smith_form.calls"] > 0
    assert tracer.counts["intlinalg.smith_form.entries"] > 0
    assert [getattr(owner, attr) for owner, attr in places] == before
