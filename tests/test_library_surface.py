"""The library is what its commands run.

Every function, method and class defined in src/multicomplex (except the
fixtures, which are data) must be named somewhere in src/ or perfbench/
outside its own definition: called, imported, looked up as an attribute
or named by a string, as perfbench/layers.py names what it wraps.
Docstrings do not count.  The few that nothing names are kept on
purpose, each for the reason given in KEPT; a function left behind when
its last caller goes fails this test.  The check is by name, so it
catches only names that appear nowhere else.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "multicomplex").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

KEPT = {
    "core.identity_map": "the oracles of ROADMAP item 15 compose maps",
    "core.compose_maps": "the oracles of ROADMAP item 15 compose maps",
    "formats.measure_from_doc": "parses back what measure_to_doc writes",
    "formats.cover_to_doc": "writes what cover_from_doc parses",
    "diffusion.FiniteSupportMeasure.weight": "a reader the tests use",
    "diffusion.ActionOnSet.apply": "a reader the tests use",
}


def _definitions(path):
    """(qualified name, name) of each top-level function and class of
    the module at path, and of each method of those classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (path.stem, node.name), node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield ("%s.%s.%s" % (path.stem, node.name, sub.name),
                           sub.name)


def _names(path) -> set:
    """Every identifier and string the module at path uses, but not its
    docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            out.add(node.value)
    return out


def test_every_definition_is_named_by_the_program_or_kept_on_purpose():
    named = set().union(*map(_names, READERS))
    unnamed = [qualified for path in SOURCES if path.name != "fixtures.py"
               for qualified, name in _definitions(path)
               if not (name.startswith("__") and name.endswith("__"))
               and name not in named]
    assert sorted(unnamed) == sorted(KEPT)
