"""Versioned JSON formats for every object the command line exchanges.

One canonical rendering: keys sorted, two-space indent, trailing newline,
rationals as "p/q" strings (plain integers stay bare of the slash).  The
text is byte for byte json.dumps(doc, indent=2, sort_keys=True) plus a
newline.  canonical_dumps writes it itself, on json's C string escaper,
because CPython gives up its C encoder whenever an indent is asked for
and the pure-Python one takes several times as long on large documents.
A document produced by a dump function parses back to an equal object,
and re-dumping parses byte-identically, which is what lets structured
output be pinned in regression tests.

The multicomplex decoder checks only the JSON types of what it reads,
in C over all the entries, and reads them one at a time only to name
the first fault.  It splits each distinct facet key once per document
into a frozenset and hands the Multicomplex constructor the triples.
The constructor reads in C the maps listed from the facet that omits
the last vertex, which is how a canonical document lists them unless a
vertex id extends another by a character that sorts before the comma,
and every other listing key by key.  The encoder writes each facet key
from the stored name of the facet it maps to.
The writers of chains, cochains, measures and functions share one
formatter of store numerators, which writes each distinct value once.
A set-action document decodes each distinct group document once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter

from .actions import GroupAction
from .chains import AlgebraicSimplex, Chain, Cochain, RING_INT, RING_RAT
from .core import (Multicomplex, MulticomplexError, SimplicialMap,
                   StructureError)
from .covers import Coloring, Cover
from .diffusion import (MAX_BOX_ATOMS, ActionOnSet, FiniteSupportMeasure,
                        OrbitBlock, SparseFunction)
from .groups import FiniteGroup, FreeAbelianGroup

SCHEMA_VERSION = 1


class FormatError(MulticomplexError):
    """A document that does not parse as the requested kind."""


_string = json.encoder.encode_basestring_ascii


def canonical_dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) plus a newline."""
    out = []
    try:
        _write(doc, "\n", out)
    except TypeError:
        # a non-string key or an object json cannot write: json itself
        # writes the same text or raises its own error
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append the indented text of value; newline is "\\n" and its indent."""
    if isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            item = value[key]
            if isinstance(item, str):
                out.append(lead + _string(key) + ": " + _string(item))
            else:
                out.append(lead + _string(key) + ": ")
                _write(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            out.append("[" + inner + ("," + inner).join(map(_string, value))
                       + newline + "]")
            return
        except TypeError:  # not all strings
            pass
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc)
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object at top level")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatError(
            "unsupported schema_version %r (this build reads %d)"
            % (version, SCHEMA_VERSION))
    return doc


_KINDS = {list: "array", dict: "object", str: "string",
          int: "non-negative integer"}


def _need(doc: dict, field: str, kind=object, default=None):
    """doc[field], checked to be of the given JSON kind (a bool is not an
    int, and an int must not be negative).  A missing field is an error
    unless a default is given for it."""
    if not isinstance(doc, dict) or field not in doc:
        if default is not None and isinstance(doc, dict):
            return default
        raise FormatError("missing field %r" % field)
    value = doc[field]
    if not isinstance(value, kind) or kind is int and (
            isinstance(value, bool) or value < 0):
        raise FormatError("field %r must be a JSON %s" % (field, _KINDS[kind]))
    return value


def _need_strings(doc: dict, field: str) -> list:
    """doc[field], checked to be a JSON array of strings."""
    values = _need(doc, field, list)
    if not all(isinstance(v, str) for v in values):
        raise FormatError("field %r must list JSON strings" % field)
    return values


def rational_str(x) -> str:
    return str(Fraction(x))


def rational_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r: %s" % (s, exc))


# ---------------------------------------------------------------------------
# multicomplexes


def multicomplex_to_doc(mc: Multicomplex) -> dict:
    simplices = [{"id": sid, "vertices": list(vs), "facets": facets}
                 for sid, vs, facets in mc.records()]
    return {"schema_version": SCHEMA_VERSION,
            "vertices": list(mc.vertices),
            "simplices": simplices}


def multicomplex_from_doc(doc: dict) -> Multicomplex:
    vertices = _need(doc, "vertices", list)
    entries = _need(doc, "simplices", list)
    fields = _typed_fields(entries)
    if fields is None:
        for entry in entries:
            _check_entry(entry)
    ids, vlists, maps = fields
    keys = set(chain.from_iterable(maps))
    vset_of = dict(zip(keys, map(frozenset, map(str.split, keys,
                                                repeat(",")))))
    keyed = [{vset_of[key]: fid for key, fid in facets.items()}
             for facets in maps]
    return Multicomplex(vertices, zip(ids, vlists, keyed))


_FIELDS = itemgetter("id", "vertices", "facets")
_is_dict, _is_list = dict.__instancecheck__, list.__instancecheck__


def _typed_fields(entries):
    """(ids, vertex lists, facet maps) of the simplex entries when each
    is an object with an id, an array of string vertices and an object of
    string facet ids, checked in C; otherwise None."""
    try:
        ids, vlists, maps = zip(*map(_FIELDS, entries)) if entries else \
            ((), (), ())
        if not (all(map(_is_list, vlists)) and all(map(_is_dict, maps))):
            return None
        "".join(chain.from_iterable(chain(vlists,
                                          map(dict.values, maps))))
        return ids, vlists, maps
    except (KeyError, TypeError):
        return None


def _check_entry(entry) -> None:
    """Raise the first fault of one simplex entry, as _typed_fields
    finds them."""
    vset = _need(entry, "vertices", list)
    facets = _need(entry, "facets", dict)
    try:
        "".join(vset)
        "".join(facets.values())
    except TypeError:
        raise FormatError(
            "simplex vertex and facet ids must be strings") from None
    _need(entry, "id")


# ---------------------------------------------------------------------------
# chains and cochains (same wire shape)


def _terms_to_doc(obj) -> list:
    num, text = _numerator_text(obj)
    return [{"simplex": key.simplex,
             "vertices": list(key.vertices),
             "coeff": text[num[key]]}
            for key in obj.support()]


def _terms_from_doc(entries, ring):
    terms = {}
    for entry in entries:
        vertices = _need(entry, "vertices", list)
        if not all(isinstance(v, str) for v in vertices):
            raise FormatError("term vertices must be strings")
        key = AlgebraicSimplex(_need(entry, "simplex", str), tuple(vertices))
        val = rational_from_str(_need(entry, "coeff"))
        if ring == RING_INT and val.denominator != 1:
            raise FormatError("non-integer coefficient %s in an integer "
                              "chain" % val)
        terms[key] = val
    return terms


def _ring_from_doc(doc) -> str:
    ring = _need(doc, "ring")
    if ring not in (RING_INT, RING_RAT):
        raise FormatError("unknown ring %r" % (ring,))
    return ring


def chain_to_doc(chain: Chain) -> dict:
    return {"schema_version": SCHEMA_VERSION, "degree": chain.degree,
            "ring": chain.ring, "terms": _terms_to_doc(chain)}


def _module_from_doc(doc: dict, cls):
    ring = _ring_from_doc(doc)
    return cls(_need(doc, "degree", int), ring,
               _terms_from_doc(_need(doc, "terms", list), ring))


def chain_from_doc(doc: dict) -> Chain:
    return _module_from_doc(doc, Chain)


def cochain_to_doc(phi: Cochain) -> dict:
    return {"schema_version": SCHEMA_VERSION, "degree": phi.degree,
            "ring": phi.ring, "terms": _terms_to_doc(phi)}


def cochain_from_doc(doc: dict) -> Cochain:
    return _module_from_doc(doc, Cochain)


# ---------------------------------------------------------------------------
# group models


def group_to_doc(group) -> dict:
    if isinstance(group, FiniteGroup):
        return {"kind": "finite", "elements": list(group.elements),
                "table": {g: dict(row) for g, row in group.table.items()}}
    if isinstance(group, FreeAbelianGroup):
        return {"kind": "free_abelian", "rank": group.rank}
    raise FormatError("unsupported group model %r" % (group,))


def _finite_group_from_doc(doc: dict) -> FiniteGroup:
    elements = _need(doc, "elements", list)
    table = _need(doc, "table", dict)
    try:
        for row in table.values():
            if isinstance(row, dict):
                "".join(row.values())
    except TypeError:
        raise FormatError("the products of the composition table must be "
                          "JSON strings") from None
    return FiniteGroup(elements, table)


def group_from_doc(doc: dict):
    kind = _need(doc, "kind")
    if kind == "finite":
        return _finite_group_from_doc(doc)
    if kind == "free_abelian":
        rank = _need(doc, "rank", int)
        # generating_set builds 2*rank tuples of rank entries each
        if 2 * rank * rank > MAX_BOX_ATOMS:
            raise StructureError(
                "free abelian rank %d is too large: its generating set "
                "would hold %d integers, over the limit of %d"
                % (rank, 2 * rank * rank, MAX_BOX_ATOMS))
        return FreeAbelianGroup(rank)
    raise FormatError("unknown group kind %r" % (kind,))


# ---------------------------------------------------------------------------
# group actions on a multicomplex


def action_to_doc(a: GroupAction) -> dict:
    maps = {}
    for g in a.group.elements:
        m = a.map_of(g)
        maps[g] = {"vertex_map": dict(m.vertex_map),
                   "simplex_map": dict(m.simplex_map)}
    return {"schema_version": SCHEMA_VERSION,
            "elements": list(a.group.elements),
            "table": {g: dict(row) for g, row in a.group.table.items()},
            "maps": maps}


def action_from_doc(doc: dict, mc: Multicomplex) -> GroupAction:
    group = _finite_group_from_doc(doc)
    maps = {}
    for g, entry in _need(doc, "maps", dict).items():
        vmap = _need(entry, "vertex_map", dict)
        smap = _need(entry, "simplex_map", dict)
        try:
            "".join(vmap.values())
            "".join(smap.values())
        except TypeError:
            raise FormatError("the maps of element %r must send ids to JSON "
                              "strings" % (g,)) from None
        maps[g] = SimplicialMap(mc, mc, vmap, smap)
    return GroupAction(group, mc, maps)


# ---------------------------------------------------------------------------
# measures, sparse functions, set actions


def measure_to_doc(mu: FiniteSupportMeasure) -> dict:
    # the atoms were coerced when mu was built
    key = mu.group._key
    num, text = _numerator_text(mu)
    weights = {key(el): text[n] for el, n in num.items()}
    return {"schema_version": SCHEMA_VERSION,
            "group": group_to_doc(mu.group), "weights": weights}


def measure_from_doc(doc: dict) -> FiniteSupportMeasure:
    group = group_from_doc(_need(doc, "group"))
    weights = {group.element_from_key(key): rational_from_str(val)
               for key, val in _need(doc, "weights", dict).items()}
    return FiniteSupportMeasure(group, weights)


def function_to_doc(f: SparseFunction) -> dict:
    num, text = _numerator_text(f)
    stray = [x for x in num if not isinstance(x, str)]
    if stray:
        raise FormatError("only string-labelled points serialize; got %r"
                          % (min(stray, key=repr),))
    return {"schema_version": SCHEMA_VERSION,
            "values": {x: text[n] for x, n in num.items()}}


def _numerator_text(store) -> tuple:
    """(num, text): the numerators of a store and the text of n/den for
    each distinct n, formatted once (a box measure has one for all)."""
    den, num = store.numerators()
    return num, {n: rational_str(Fraction(n, den)) for n in set(num.values())}


def function_from_doc(doc: dict) -> SparseFunction:
    return SparseFunction({x: rational_from_str(v)
                           for x, v in _need(doc, "values", dict).items()})


def _oracle_from_doc(doc: dict, group):
    """The action oracle of a set-action document.

    kind "table" lists, per element key of a finite group, where each moved
    point goes; kind "translation" makes Z^d shift points written as
    comma-joined integers, leaving all other points alone.  The oracle takes
    elements already coerced into group (see ActionOnSet.oracle) and does
    not coerce them again.  The table oracle keeps the move row of each
    element that element_key resolved, so a bad element raises on every
    call.  Its attribute named is the set of points its rows name, as keys
    or as images: every element with a row fixes every other point, so
    diffusion.validate_action_on_set checks and local_diffuse convolves
    only these.  The translation oracle parses each distinct point once
    and keeps its coordinates for the oracle's lifetime.  It exposes its
    chart, which diffusion.convolve adds on: coords(x) is the cached int
    tuple of point x, or () for a point it fixes (one that is not rank
    comma-joined integers as int() reads them), and point(t) writes the
    point of an int tuple t as the group writes its element keys.  A
    point such as "01,2" moves to a point written "1,2" and so on.
    """
    kind = _need(doc, "kind")
    if kind == "table":
        moves = _need(doc, "moves", dict)
        named = set()
        for key in moves:
            row = _need(moves, key, dict)
            try:
                "".join(row.values())
            except TypeError:
                raise FormatError("the moves of element %r must send points "
                                  "to JSON strings" % (key,)) from None
            named.update(row, row.values())
        if isinstance(group, FreeAbelianGroup):
            raise FormatError("table actions need a finite group")

        resolved = {}  # element -> its move row

        def act(el, x):
            row = resolved.get(el)
            if row is None:
                key = group.element_key(el)
                row = moves.get(key)
                if row is None:
                    raise FormatError("no move table for element %r" % (key,))
                resolved[el] = row
            return row.get(x, x)
        act.named = frozenset(named)
        return act
    if kind == "translation":
        if not isinstance(group, FreeAbelianGroup):
            raise FormatError("translation actions need a free abelian group")

        parsed = {}  # point string -> coordinates, () for a fixed point

        def coords(x):
            text = str(x)
            c = parsed.get(text)
            if c is None:
                try:
                    c = tuple(int(p) for p in text.split(","))
                except ValueError:
                    c = ()
                if len(c) != group.rank:
                    c = ()
                parsed[text] = c
            return c

        point = group._key

        def act(el, x):
            c = coords(x)
            return point(tuple(map(add, c, el))) if c else x
        act.coords = coords
        act.point = point
        return act
    raise FormatError("unknown action kind %r" % (kind,))


def set_action_from_doc(doc: dict) -> ActionOnSet:
    """The set action of a document.  Equal group documents decode to
    one group object, whose table is then built and checked once; two
    JSON values are equal when their reprs are, which also tells 1, 1.0
    and true apart."""
    points = tuple(_need_strings(doc, "points"))
    groups = {}  # repr of a group document -> its group

    def group_from(gdoc):
        text = repr(gdoc)
        if text not in groups:
            groups[text] = group_from_doc(gdoc)
        return groups[text]

    blocks = []
    for entry in _need(doc, "blocks", list, ()):
        group = group_from(_need(entry, "group"))
        blocks.append(OrbitBlock(
            tuple(_need_strings(entry, "points")), group,
            _oracle_from_doc(_need(entry, "action"), group),
            _need(entry, "horizon", int)))
    group = act = None
    if "group" in doc:
        group = group_from(doc["group"])
        act = _oracle_from_doc(_need(doc, "action"), group)
    return ActionOnSet(group, points, act, blocks or None)


# ---------------------------------------------------------------------------
# covers and colorings


def cover_to_doc(c: Cover) -> dict:
    sets = {str(j): sorted(c.member(j)) for j in c.indices()}
    amenable = {str(j): c.amenable[j] for j in c.amenable}
    return {"schema_version": SCHEMA_VERSION, "host": None,
            "sets": sets, "amenable": amenable}


def cover_from_doc(doc: dict) -> Cover:
    sets = _need(doc, "sets", dict)
    for j in sets:
        if not all(isinstance(v, str) for v in _need(sets, j, list)):
            raise FormatError("cover member %r must list string vertices"
                              % (j,))
    amenable = _need(doc, "amenable", dict, {})
    if not all(isinstance(flag, bool) for flag in amenable.values()):
        raise FormatError("field 'amenable' must map to JSON booleans")
    return Cover(sets, amenable)


def coloring_to_doc(coloring: Coloring) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "assignment": dict(coloring.assignment)}


def coloring_from_doc(doc: dict) -> Coloring:
    assignment = _need(doc, "assignment", dict)
    if not all(isinstance(j, str) for j in assignment.values()):
        raise FormatError("field 'assignment' must map to JSON strings")
    return Coloring(assignment)


def witnesses_from_doc(doc: dict) -> dict:
    """The repeated-color witnesses: simplex id -> (element, u, w)."""
    witnesses = {}
    for sid, trip in _need(doc, "witnesses", dict, {}).items():
        if not isinstance(trip, list) or len(trip) != 3 or \
                not all(isinstance(t, str) for t in trip):
            raise FormatError(
                "witness for %r must be [element, vertex, vertex]" % (sid,))
        witnesses[sid] = tuple(trip)
    return witnesses
