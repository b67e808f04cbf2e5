"""The library is what its commands run.

Every function, method and class defined in src/multicomplex (except the
fixtures, which are data) must be named somewhere in src/ or perfbench/
outside its own definition: called, imported, looked up as an attribute
or named by a string, as perfbench/layers.py names what it wraps.
Docstrings do not count.  The few that nothing names are kept on
purpose, each for the reason given in KEPT; a function left behind when
its last caller goes fails this test.  The check is by name, so it
catches only names that appear nowhere else.

Likewise every parameter with a default, outside the fixtures, must be
set, by keyword or by position, at some call in src/ or perfbench/ of a
function of its name, or be kept on purpose in KEPT_KNOBS.  A knob that
only tests turn fails this test.
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


KEPT_KNOBS = {
    "exactlp.solve(max_iterations)":
        "tier-1 caps pivots with it and forces a SimplexFailure with it",
    "intlinalg.rational_kernel_basis(cols)":
        "leaves with the benchmark-only eliminations of ROADMAP item 5",
    "intlinalg.rational_solve(cols)":
        "leaves with the benchmark-only eliminations of ROADMAP item 5",
}


def _defaulted(path):
    """(qualified name, names callers use, [(position or None,
    parameter)]) for each top-level function and method of the module at
    path that has defaulted parameters.  A method's positions leave out
    self or cls, and a keyword-only parameter has none.  __init__ is
    called by the name of its class or of a subclass in the module."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    classes = {node.name: {getattr(b, "id", None) for b in node.bases}
               for node in body if isinstance(node, ast.ClassDef)}

    def named(cls):
        return {cls}.union(*(named(sub) for sub, bases in classes.items()
                             if cls in bases))
    for node in body:
        methods = ([sub for sub in node.body
                    if isinstance(sub, ast.FunctionDef)]
                   if isinstance(node, ast.ClassDef) else [])
        for fn in methods or ([node] if isinstance(node, ast.FunctionDef)
                              else []):
            args = fn.args
            positional = args.posonlyargs + args.args
            if methods and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            knobs = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= first]
            knobs += [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults) if d]
            if knobs:
                owner = [node.name] if methods else []
                called = (named(node.name) if fn.name == "__init__"
                          else {fn.name})
                yield ".".join([path.stem, *owner, fn.name]), called, knobs


def _calls(path):
    """(name called, positional count, keywords) of each call in the
    module at path; a starred argument counts as every position and a
    ** argument as every keyword."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (name, float("inf") if starred else len(node.args),
                   keywords)


def test_every_defaulted_parameter_is_set_by_a_call_or_kept_on_purpose():
    calls = [call for path in READERS for call in _calls(path)]
    unset = []
    for path in SOURCES:
        if path.name == "fixtures.py":
            continue
        for qualified, called, knobs in _defaulted(path):
            for position, param in knobs:
                if not any(name in called and (
                        param in keywords or None in keywords
                        or position is not None and count > position)
                           for name, count, keywords in calls):
                    unset.append("%s(%s)" % (qualified, param))
    assert sorted(unset) == sorted(KEPT_KNOBS)
