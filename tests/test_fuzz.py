"""Decoder fuzz: mutated documents of every kind, run through main(argv).

Each invocation below reads documents of one or more kinds and exits 0
on them.  The fuzz makes one to three mutations, each of which replaces
or deletes one value anywhere in one of the invocation's documents (the
whole document included), and requires an exit code of 0, 1 or 2 with no
exception escaping: a bad document is an input error, never a traceback.
New values are small JSON values, drawn partly from the document's own
strings, so that mutated references often name real ids.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from multicomplex import formats
from multicomplex.chains import (RING_INT, RING_RAT, AlgebraicSimplex,
                                 Cochain, fundamental_cycle)
from multicomplex.cli import main
from multicomplex.covers import Cover
from multicomplex.core import simplicial_complex
from multicomplex.fixtures import (cone_over_double_edge, cone_swap_action,
                                   triangle_boundary)
from multicomplex.groups import cyclic_group

V = formats.SCHEMA_VERSION


def _block(points, n):
    group = cyclic_group(n)
    moves = {g: {points[i]: points[(i + j) % n] for i in range(n)}
             for j, g in enumerate(group.elements)}
    return {"points": list(points), "group": formats.group_to_doc(group),
            "action": {"kind": "table", "moves": moves}, "horizon": 1}


def _documents():
    """Valid documents of every kind, keyed by file name."""
    circle = triangle_boundary()
    return {
        "circle.json": formats.multicomplex_to_doc(circle),
        "cycle.json": formats.chain_to_doc(
            fundamental_cycle(circle, degree=1)),
        "cone.json": formats.multicomplex_to_doc(cone_over_double_edge()),
        "swap.json": formats.action_to_doc(cone_swap_action()),
        "z.json": {"schema_version": V, "degree": 1, "ring": RING_INT,
                   "terms": [{"simplex": "north", "vertices": ["x", "y"],
                              "coeff": "1"},
                             {"simplex": "south", "vertices": ["x", "y"],
                              "coeff": "-1"}]},
        "phi.json": formats.cochain_to_doc(Cochain(1, RING_RAT, {
            AlgebraicSimplex(s, vs): 1 if vs == ("x", "y") else -1
            for s in ("north", "south") for vs in (("x", "y"), ("y", "x"))})),
        "colors.json": {"schema_version": V,
                        "assignment": {"c": "0", "x": "1", "y": "1"}},
        "witnesses.json": {"schema_version": V, "witnesses": {}},
        "translation.json": {"schema_version": V,
                             "points": ["0", "1", "2", "3"],
                             "group": {"kind": "free_abelian", "rank": 1},
                             "action": {"kind": "translation"}},
        "f.json": {"schema_version": V, "values": {"0": "1", "3": "-1"}},
        "blocks.json": {"schema_version": V,
                        "points": ["a0", "a1", "a2", "b0", "b1"],
                        "blocks": [_block(("a0", "a1", "a2"), 3),
                                   _block(("b0", "b1"), 2)]},
        "g.json": {"schema_version": V,
                   "values": {"a0": "1", "a2": "-1", "b0": "1/2",
                              "b1": "-1/2"}},
        "cover.json": formats.cover_to_doc(Cover(
            {"a": ["0", "1", "2"], "b": ["2", "3", "4"],
             "c": ["4", "5", "0"]}, amenable={"a": True})),
        "host.json": formats.multicomplex_to_doc(
            simplicial_complex([("a", "b"), ("c", "d")])),
        "parts.json": formats.cover_to_doc(Cover({"0": ["a", "b"],
                                                  "1": ["c", "d"]})),
    }


# every subcommand that reads a document, on documents it accepts
INVOCATIONS = [
    ["validate", "cone.json"],
    ["skeleton", "cone.json", "--dim", "1"],
    ["product", "circle.json"],
    ["homology", "cone.json", "--ring", "z"],
    ["homology", "circle.json", "--variant", "full"],
    ["seminorm", "cycle.json", "--complex", "circle.json"],
    ["dual", "cycle.json", "--complex", "circle.json"],
    ["int-seminorm", "cycle.json", "--complex", "circle.json",
     "--bound", "1"],
    ["volume", "circle.json"],
    ["quotient", "swap.json", "--complex", "cone.json"],
    ["orbits", "swap.json", "--complex", "cone.json", "--degree", "1"],
    ["average", "swap.json", "--complex", "cone.json",
     "--cochain", "phi.json"],
    ["diffuse", "f.json", "--action", "translation.json", "--epsilon", "1/2"],
    ["local-diffuse", "g.json", "--action", "blocks.json",
     "--epsilons", "1/4,1/4", "--threshold", "0"],
    ["toy-vanish", "z.json", "--complex", "cone.json", "--action",
     "swap.json", "--epsilon", "1/4"],
    ["nerve", "cover.json"],
    ["mult", "cover.json"],
    ["coloring", "parts.json", "--complex", "host.json"],
    ["vanish-check", "phi.json", "--complex", "cone.json",
     "--action", "swap.json", "--coloring", "colors.json",
     "--witnesses", "witnesses.json"],
]


def _run(argv, docs):
    """The exit code of main(argv) with each document name in argv
    replaced by the path of that document, written to a scratch
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for a in argv:
            if a in docs:
                path = os.path.join(tmp, a)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(formats.canonical_dumps(docs[a]))
                a = path
            args.append(a)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(args)


def _places(doc, where=()):
    """The path of every value in doc, () for doc itself."""
    yield where
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _places(value, where + (key,))


def _strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)


def _json_values(names):
    atoms = (st.none() | st.booleans() | st.integers(-2, 3)
             | st.sampled_from([2 ** 70, 1.5]) | st.text(max_size=2)
             | st.sampled_from(names))
    keys = st.sampled_from(names) | st.text(max_size=2)
    return st.recursive(atoms, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(keys, inner, max_size=3),
                        max_leaves=6)


def test_the_fuzzed_invocations_exit_zero_on_their_documents():
    docs = _documents()
    assert [_run(argv, docs) for argv in INVOCATIONS] == [0] * len(INVOCATIONS)


def _mutate(data, docs, name):
    """Replace or delete one value anywhere in docs[name], or replace the
    whole document."""
    doc = docs[name]
    values = _json_values(sorted(set(_strings(doc))) or ["x"])
    where = data.draw(st.sampled_from(list(_places(doc))))
    if not where:
        docs[name] = data.draw(values)
        return
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[where[-1]]
    else:
        parent[where[-1]] = data.draw(values)


@settings(max_examples=200)
@given(st.data())
def test_mutated_documents_exit_0_1_or_2(data):
    docs = _documents()
    argv = data.draw(st.sampled_from(INVOCATIONS))
    names = [a for a in argv if a in docs]
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, docs, data.draw(st.sampled_from(names)))
    assert _run(argv, docs) in (0, 1, 2)
