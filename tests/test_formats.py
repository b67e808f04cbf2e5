"""Round trips through the versioned JSON formats.

The pinned behavior is byte-level: dump, parse, rebuild, re-dump, and
compare the two texts.  Equality of the rebuilt object is checked too
where the type supports it.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicomplex.chains import AlgebraicSimplex, Chain, Cochain, RING_INT, RING_RAT
from multicomplex.core import product_with_interval
from conftest import POINT_PARTS, symmetric_group_3
from multicomplex.diffusion import (ActionOnSet, FiniteSupportMeasure,
                                    SparseFunction, convolve, folner_measure,
                                    uniform_measure)
from multicomplex.fixtures import (
    cone_over_double_edge,
    cone_swap_action,
    double_edge,
)
from multicomplex.formats import (
    FormatError,
    action_from_doc,
    action_to_doc,
    canonical_dumps,
    chain_from_doc,
    chain_to_doc,
    cochain_from_doc,
    cochain_to_doc,
    coloring_from_doc,
    coloring_to_doc,
    cover_from_doc,
    cover_to_doc,
    function_from_doc,
    function_to_doc,
    group_from_doc,
    group_to_doc,
    measure_from_doc,
    measure_to_doc,
    multicomplex_from_doc,
    multicomplex_to_doc,
    parse_document,
    rational_from_str,
    rational_str,
    set_action_from_doc,
    SCHEMA_VERSION,
)
from multicomplex.covers import Coloring, Cover
from multicomplex.core import StructureError, UnknownIdError
from multicomplex.groups import FreeAbelianGroup, cyclic_group
import reference
from reference import translate


def _roundtrip(doc, from_doc, to_doc):
    text = canonical_dumps(doc)
    obj = from_doc(parse_document(text))
    assert canonical_dumps(to_doc(obj)) == text
    return obj


_strings = st.text() | st.sampled_from(
    ['"', "\\/", "\b\f\n\r\t", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600"])
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-10 ** 40, 10 ** 40),
              st.floats(allow_nan=False, allow_infinity=False), _strings),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.lists(_strings),
                            st.dictionaries(_strings, inner),
                            st.dictionaries(st.integers(), inner)),
    max_leaves=40)


@settings(max_examples=100)
@given(_json_values)
def test_canonical_dumps_writes_the_text_of_json_dumps(value):
    assert canonical_dumps(value) == json.dumps(value, indent=2,
                                                sort_keys=True) + "\n"


def test_parse_document_rejects_bad_inputs():
    with pytest.raises(FormatError, match="not valid JSON"):
        parse_document("{")
    with pytest.raises(FormatError, match="object at top level"):
        parse_document("[1, 2]")
    with pytest.raises(FormatError, match="schema_version"):
        parse_document('{"schema_version": 999}')
    with pytest.raises(FormatError, match="schema_version"):
        parse_document('{"vertices": []}')


def test_rational_strings():
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(5) == "5"
    assert rational_from_str("3/4") == Fraction(3, 4)
    assert rational_from_str("-7") == -7
    with pytest.raises(FormatError, match="bad rational"):
        rational_from_str("three")
    with pytest.raises(FormatError, match="bad rational"):
        rational_from_str("1/0")


def test_multicomplex_roundtrip_with_parallel_simplices():
    mc = cone_over_double_edge()
    back = _roundtrip(multicomplex_to_doc(mc),
                      multicomplex_from_doc, multicomplex_to_doc)
    assert back == mc


def test_multicomplex_roundtrip_with_decorated_ids():
    # product ids carry @, ^ and . decorations
    mc = product_with_interval(double_edge()).complex
    back = _roundtrip(multicomplex_to_doc(mc),
                      multicomplex_from_doc, multicomplex_to_doc)
    assert back == mc


def test_multicomplex_doc_requires_fields():
    with pytest.raises(FormatError, match="missing field"):
        multicomplex_from_doc({"schema_version": SCHEMA_VERSION})


def test_chain_roundtrip_integer_and_rational():
    zi = Chain(1, RING_INT, {AlgebraicSimplex("north", ("x", "y")): 2,
                             AlgebraicSimplex("south", ("y", "x")): -1})
    back = _roundtrip(chain_to_doc(zi), chain_from_doc, chain_to_doc)
    assert back == zi
    zq = Chain(0, RING_RAT, {AlgebraicSimplex("x", ("x",)): Fraction(1, 3)})
    back = _roundtrip(chain_to_doc(zq), chain_from_doc, chain_to_doc)
    assert back == zq


def test_chain_doc_rejects_fractions_in_an_integer_chain():
    doc = {"schema_version": SCHEMA_VERSION, "degree": 0, "ring": RING_INT,
           "terms": [{"simplex": "x", "vertices": ["x"], "coeff": "1/2"}]}
    with pytest.raises(FormatError, match="non-integer"):
        chain_from_doc(doc)


def test_chain_doc_rejects_unknown_ring():
    doc = {"schema_version": SCHEMA_VERSION, "degree": 0, "ring": "reals",
           "terms": []}
    with pytest.raises(FormatError, match="unknown ring"):
        chain_from_doc(doc)


def test_cochain_roundtrip():
    phi = Cochain(1, RING_RAT, {
        AlgebraicSimplex("x,z", ("x", "z")): Fraction(1, 2),
        AlgebraicSimplex("x,z", ("z", "x")): Fraction(-1, 2),
    })
    back = _roundtrip(cochain_to_doc(phi), cochain_from_doc, cochain_to_doc)
    assert back == phi


def test_group_roundtrip_finite():
    g = cyclic_group(3)
    back = group_from_doc(group_to_doc(g))
    assert back.elements == g.elements
    assert back.table == g.table


def test_group_roundtrip_free_abelian():
    g = FreeAbelianGroup(2)
    back = group_from_doc(group_to_doc(g))
    assert isinstance(back, FreeAbelianGroup)
    assert back.rank == 2


def test_group_doc_limits_the_free_abelian_rank():
    # the generating set holds 2*rank^2 integers: 999,698 at rank 707
    assert group_from_doc({"kind": "free_abelian", "rank": 707}).rank == 707
    with pytest.raises(StructureError) as exc:
        group_from_doc({"kind": "free_abelian", "rank": 708})
    assert str(exc.value) == (
        "free abelian rank 708 is too large: its generating set would "
        "hold 1002528 integers, over the limit of 1000000")


def test_group_doc_rejects_unknown_kind():
    with pytest.raises(FormatError, match="unknown group kind"):
        group_from_doc({"kind": "braid"})
    with pytest.raises(FormatError, match="unsupported group model"):
        group_to_doc(object())


def test_action_roundtrip():
    mc = cone_over_double_edge()
    a = cone_swap_action()
    text = canonical_dumps(action_to_doc(a))
    back = action_from_doc(parse_document(text), mc)
    assert canonical_dumps(action_to_doc(back)) == text
    assert back.group.elements == a.group.elements
    for g in a.group.elements:
        assert back.map_of(g).simplex_map == a.map_of(g).simplex_map
        assert back.map_of(g).vertex_map == a.map_of(g).vertex_map


def test_measure_roundtrip_finite_group():
    g = cyclic_group(4)
    mu = FiniteSupportMeasure(g, {"r0": Fraction(1, 4), "r2": Fraction(3, 4)})
    back = _roundtrip(measure_to_doc(mu), measure_from_doc, measure_to_doc)
    assert back.items() == mu.items()


def test_measure_roundtrip_lattice():
    g = FreeAbelianGroup(2)
    box = uniform_measure(g, [(i, j) for i in range(3) for j in range(3)])
    for mu in (FiniteSupportMeasure(g, {(0, 0): Fraction(1, 2),
                                        (1, -1): Fraction(1, 2)}), box):
        doc = measure_to_doc(mu)
        assert doc["weights"] == {g.element_key(el): str(w)
                                  for el, w in mu.items()}
        back = _roundtrip(doc, measure_from_doc, measure_to_doc)
        assert back.items() == mu.items()


def test_function_roundtrip():
    f = SparseFunction({"a": Fraction(2, 7), "b": Fraction(-2, 7)})
    back = _roundtrip(function_to_doc(f), function_from_doc, function_to_doc)
    assert back == f


def test_function_doc_needs_string_points():
    with pytest.raises(FormatError, match="string-labelled"):
        function_to_doc(SparseFunction({3: Fraction(1)}))
    # the point named is the first one by repr, as on the reference
    f = SparseFunction({"a": 1, 7: 2, (1,): 3, 5: 4})
    for writer in (function_to_doc, reference.function_to_doc):
        with pytest.raises(FormatError) as err:
            writer(f)
        assert str(err.value) == ("only string-labelled points serialize; "
                                  "got (1,)")


def _writer_measures():
    z1, z2, z3 = (FreeAbelianGroup(d) for d in (1, 2, 3))
    box = folner_measure(z2, [(1, 0), (0, -1)], Fraction(1, 8))
    assert len(box) == 17 * 17
    c6 = cyclic_group(6)
    return [
        box,
        folner_measure(z1, [(3,)], Fraction(1, 5)),
        uniform_measure(z3, [(i, j, k) for i in range(4) for j in range(-2, 2)
                             for k in range(3)]),
        FiniteSupportMeasure(z2, {(0, 0): Fraction(1, 2),
                                  (-1, 7): Fraction(1, 3),
                                  (12, -3): Fraction(1, 6)}),
        uniform_measure(c6, c6.elements),
        FiniteSupportMeasure(c6, {"r0": Fraction(1, 4), "r2": Fraction(1, 4),
                                  "r3": Fraction(1, 3), "r5": Fraction(1, 6)}),
        uniform_measure(symmetric_group_3(), ["012", "120", "201"]),
    ]


def _writer_functions():
    plane = ActionOnSet(FreeAbelianGroup(2), [],
                        lambda g, x: "%d,%d" % tuple(
                            map(sum, zip(g, map(int, x.split(","))))))
    dipole = SparseFunction({"0,0": Fraction(3, 2), "2,1": Fraction(-3, 2)})
    return [
        SparseFunction({}),
        dipole,
        # a box spreads a dipole into many equal values
        convolve(folner_measure(FreeAbelianGroup(2), [(1, 0)], Fraction(1, 6)),
                 dipole, plane),
        SparseFunction({"p%d" % i: Fraction(1 if i % 3 else -2, 3)
                        for i in range(300)}),
        SparseFunction({"p%d" % i: Fraction(i - 20, i % 7 + 1)
                        for i in range(40)}),
        SparseFunction({"x": 5, "y": -5, "z": Fraction(10, 2)}),
    ]


def test_writers_give_the_reference_text():
    for mu in _writer_measures():
        doc = measure_to_doc(mu)
        assert doc == reference.measure_to_doc(mu)
        assert canonical_dumps(doc) == canonical_dumps(
            reference.measure_to_doc(mu))
    for f in _writer_functions():
        doc = function_to_doc(f)
        assert doc == reference.function_to_doc(f)
        assert canonical_dumps(doc) == canonical_dumps(
            reference.function_to_doc(f))
        assert function_from_doc(doc) == f


def test_measure_doc_refuses_two_keys_of_one_atom():
    # "00" parses to the atom of "0", which used to keep the last weight
    # and read these weights, which total 3/2, as a probability measure
    doc = {"schema_version": SCHEMA_VERSION,
           "group": {"kind": "free_abelian", "rank": 1},
           "weights": {"0": "1/2", "00": "1/2", "1": "1/2"}}
    with pytest.raises(UnknownIdError) as exc:
        measure_from_doc(doc)
    assert str(exc.value) == ("'00' is not the key of an element of Z^1; "
                              "the key of (0,) is '0'")


def test_measure_doc_coerces_no_atom(monkeypatch):
    mu = _writer_measures()[0]
    calls = []
    coerce = FreeAbelianGroup.coerce
    monkeypatch.setattr(FreeAbelianGroup, "coerce",
                        lambda group, el: calls.append(el)
                        or coerce(group, el))
    doc = measure_to_doc(mu)
    assert calls == []
    # the reference keys each atom through element_key, which coerces it
    assert doc == reference.measure_to_doc(mu)
    assert len(calls) == len(mu) == 289


def test_set_action_from_doc_with_move_tables():
    g = cyclic_group(2)
    doc = {"schema_version": SCHEMA_VERSION,
           "points": ["p", "q", "r"],
           "group": group_to_doc(g),
           "action": {"kind": "table",
                      "moves": {"r0": {}, "r1": {"p": "q", "q": "p"}}}}
    a = set_action_from_doc(parse_document(canonical_dumps(doc)))
    assert a.points == ("p", "q", "r")
    assert a.oracle()("r1", "p") == "q"
    assert a.oracle()("r1", "r") == "r"
    with pytest.raises(FormatError, match="no move table"):
        doc["action"]["moves"].pop("r1")
        set_action_from_doc(doc).oracle()("r1", "p")


def test_set_action_from_doc_with_translations():
    doc = {"schema_version": SCHEMA_VERSION,
           "points": ["0", "1", "2", "spare"],
           "group": group_to_doc(FreeAbelianGroup(1)),
           "action": {"kind": "translation"}}
    a = set_action_from_doc(doc)
    assert a.oracle()((1,), "1") == "2"
    assert a.oracle()((1,), "spare") == "spare"


def test_a_table_action_names_the_element_it_has_no_moves_for():
    doc = {"schema_version": SCHEMA_VERSION,
           "points": ["p", "q"],
           "group": group_to_doc(cyclic_group(3)),
           "action": {"kind": "table",
                      "moves": {"r0": {}, "r1": {"p": "q", "q": "p"}}}}
    a = set_action_from_doc(doc)
    assert a.oracle()("r1", "p") == "q"
    with pytest.raises(FormatError) as exc:
        a.oracle()("r2", "p")
    assert str(exc.value) == "no move table for element 'r2'"
    # the oracle keeps only rows it resolved: after a successful call,
    # every call on a bad element raises afresh with the same message
    act = a.oracle()
    assert act("r1", "q") == "p"
    for _ in range(2):
        with pytest.raises(UnknownIdError) as unknown:
            act("r9", "p")
        assert str(unknown.value) == "unknown group element 'r9'"
        with pytest.raises(FormatError) as exc:
            act("r2", "p")
        assert str(exc.value) == "no move table for element 'r2'"
        assert act("r1", "p") == "q"


@st.composite
def _translation_queries(draw):
    rank = draw(st.sampled_from((1, 2)))
    points = st.lists(st.sampled_from(POINT_PARTS), min_size=1,
                      max_size=2).map(",".join)
    elements = st.tuples(*[st.integers(-3, 3)] * rank)
    return rank, draw(st.lists(st.tuples(elements, points), min_size=1,
                               max_size=12))


@settings(max_examples=100)
@given(_translation_queries())
def test_the_translation_oracle_moves_points_as_the_reference(case):
    rank, queries = case
    a = set_action_from_doc({"schema_version": SCHEMA_VERSION,
                             "points": sorted({x for _, x in queries}),
                             "group": {"kind": "free_abelian", "rank": rank},
                             "action": {"kind": "translation"}})
    act = a.oracle()
    # the second pass finds every point already parsed
    for _ in range(2):
        for el, x in queries:
            assert act(el, x) == translate(rank, el, x)


def test_set_action_from_doc_with_blocks():
    doc = {"schema_version": SCHEMA_VERSION,
           "points": ["p", "q"],
           "blocks": [{"points": ["p", "q"],
                       "group": group_to_doc(cyclic_group(2)),
                       "action": {"kind": "table",
                                  "moves": {"r0": {},
                                            "r1": {"p": "q", "q": "p"}}},
                       "horizon": 0}]}
    a = set_action_from_doc(doc)
    assert len(a.blocks) == 1
    assert a.blocks[0].act("r1", "p") == "q"


def test_set_action_doc_rejects_bad_kinds():
    with pytest.raises(FormatError, match="unknown action kind"):
        set_action_from_doc({"schema_version": SCHEMA_VERSION,
                             "points": [],
                             "group": group_to_doc(cyclic_group(2)),
                             "action": {"kind": "mystery"}})
    with pytest.raises(FormatError, match="free abelian"):
        set_action_from_doc({"schema_version": SCHEMA_VERSION,
                             "points": [],
                             "group": group_to_doc(cyclic_group(2)),
                             "action": {"kind": "translation"}})


def test_cover_roundtrip():
    c = Cover({"a": ["x", "y"], "b": ["y", "z"]}, amenable={"a": True})
    text = canonical_dumps(cover_to_doc(c))
    assert parse_document(text)["host"] is None
    back = cover_from_doc(parse_document(text))
    assert canonical_dumps(cover_to_doc(back)) == text
    assert back.sets == c.sets
    assert back.amenable == c.amenable


def test_coloring_roundtrip():
    col = Coloring({"x": "0", "y": "0", "z": "1"})
    back = _roundtrip(coloring_to_doc(col), coloring_from_doc, coloring_to_doc)
    assert back.assignment == col.assignment
