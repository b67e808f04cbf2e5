"""Finite multicomplexes.

A multicomplex is a vertex set V together with, for every nonempty subset
A of V, a finite set I_A of simplices spanning A, and boundary assignments
that pick for every simplex in I_A and every nonempty B < A a simplex in
I_B, compatibly with composition.  Unlike a simplicial complex, I_A may
hold several simplices over the same vertices; unlike a Delta-complex,
every simplex has pairwise distinct vertices and no preferred ordering.

Only codimension-one facets are stored, in an index the constructor
derives once: the simplices are numbered in the order given, and each
keeps its sorted vertex tuple, its name (those vertices comma-joined,
which is the text of a facet key) and its facets as simplex numbers by
the position of the vertex each omits, as in Boissonnat and Maria's
simplex tree (Algorithmica, 2014).  A deeper face is reached by
composing facet steps, which the composition axiom makes unambiguous.
Facet entries whose keys omit no single vertex are kept aside, and the
simplices with a facet problem are listed, only so that validate() can
name what is wrong; the facet maps the constructor is given are not
kept.  Instances are treated as immutable once built.

Multicomplex's constructor is the one place ids are checked and the
index is derived, from its one input form, (id, vertices, facets keyed
by vertex set) triples.  It reads the facet maps one of two ways.  When
the ids check out and every map lists the frozensets of its simplex's
vertices less one, from the one that omits the last vertex, each naming
a simplex over its key, all the maps are read at once in C.  The
builders list them so, and so does a canonical document (see formats).
Every other listing is read key by key: another order, keys that are
not frozensets, maps that are not dicts, or a fault, whose first bad id
it names.

drop_map(sid) is a lookup, which raises the first problem validate()
lists against sid.  The chain-complex builders, the product with an
interval and the check of a simplicial map read facets only through it;
check_facet_closed serves the relative complex.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import chain, combinations, compress, islice, repeat
from operator import sub


class MulticomplexError(Exception):
    """Base class for errors raised by this package."""


class UnknownIdError(MulticomplexError):
    """A vertex or simplex id that cannot be resolved."""


class StructureError(MulticomplexError):
    """A request that contradicts the multicomplex axioms."""


class InternalInvariantError(MulticomplexError):
    """An exactness invariant failed; results must not be trusted."""


def _fmt_vset(vset) -> str:
    return "{" + ",".join(sorted(vset)) + "}"


class _Memo(dict):
    """fn(key) for every key looked up, computed once per key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


_PAIRS = _Memo(lambda k: tuple(combinations(range(k), 2)))
_FACET_COUNT = _Memo(lambda k: k if k > 1 else 0)  # of k vertices


_is_str = str.__instancecheck__
_is_dict = dict.__instancecheck__


def _sound_faces(vsets, verts, maps, number):
    """The facet numbers of every simplex by the position of the vertex
    each omits, read whole, in C, when every facet map lists exactly the
    keys of its simplex's vertices less one, from the one that omits the
    last vertex, each mapped to a simplex over that key; otherwise None,
    and the constructor reads the maps key by key."""
    lens = list(map(len, maps))
    if not all(verts) or lens != list(map(_FACET_COUNT.__getitem__,
                                          map(len, verts))):
        return None
    try:
        flat = list(map(number.__getitem__,
                        chain.from_iterable(map(dict.values, maps))))
    except (KeyError, TypeError):
        return None
    if list(chain.from_iterable(maps)) != list(map(vsets.__getitem__, flat)):
        return None
    faced = list(compress(verts, lens))
    expected = list(chain.from_iterable(map(
        combinations, faced, map(sub, map(len, faced), repeat(1)))))
    if list(map(verts.__getitem__, flat)) != expected:
        return None
    faces = list(map(tuple, map(islice, repeat(reversed(flat)),
                                reversed(lens))))
    faces.reverse()
    return faces


class Multicomplex:
    """Immutable multicomplex given by explicit simplices and facet maps.

    simplices is an iterable of (id, vertices, facets) triples, where
    facets maps each subset of the vertices with one vertex removed to the
    id of the chosen facet simplex.  Referential integrity is enforced
    here; the remaining axioms are checked by validate().  The facet maps
    are read into the index once, here, and not kept.
    """

    def __init__(self, vertices, simplices):
        self._vertices = tuple(vertices)
        seen = set()
        for v in self._vertices:
            if not isinstance(v, str) or not v:
                raise UnknownIdError("vertex ids must be nonempty strings")
            if "," in v:
                raise UnknownIdError(
                    "vertex id %r contains a comma, which the file format "
                    "reserves as a separator" % v)
            if v in seen:
                raise UnknownIdError("duplicate vertex id %r" % v)
            seen.add(v)
        ids, vsets, maps = [], [], []
        add_id, add_vset, add_map = ids.append, vsets.append, maps.append
        for sid, vset, facets in simplices:
            add_id(sid)
            add_vset(vset)
            add_map(facets)
        self._vertex_ids = seen
        self._ids = tuple(ids)
        self._aside = {}       # number -> {other key: facet number}
        self._unsound = set()  # numbers with a facet problem
        try:
            number = dict(zip(ids, range(len(ids))))
            vsets = list(map(frozenset, vsets))
            checked = (len(number) == len(ids) and all(map(_is_str, ids))
                       and all(ids) and all(map(seen.issuperset, vsets))
                       and all(map(_is_dict, maps)))
        except TypeError:
            checked = False
        if checked:
            self._number = number
            self._verts = list(map(tuple, map(sorted, vsets)))  # sorted
            # facet numbers by the position of the vertex each omits
            self._faces = _sound_faces(vsets, self._verts, maps, number)
        if not checked or self._faces is None:
            self._read_by_key(vsets, maps)
        self._names = list(map(",".join, self._verts))  # facet key texts

    def _read_by_key(self, vsets, maps) -> None:
        """Read the simplices a key at a time: check the ids in order,
        raising the error about the first bad one, key each facet map by
        frozensets, place each facet by the position of the vertex it
        omits, keep the other entries aside and mark the simplices with a
        facet problem."""
        seen, ids = self._vertex_ids, self._ids
        number, keyed = {}, []
        for sid, vset, facets in zip(ids, vsets, maps):
            if not isinstance(sid, str) or not sid:
                raise UnknownIdError("simplex ids must be nonempty strings")
            if sid in number:
                raise UnknownIdError("duplicate simplex id %r" % sid)
            number[sid] = len(number)
            vset = frozenset(vset)
            if not vset <= seen:
                raise UnknownIdError("simplex %r uses unknown vertex %r"
                                     % (sid, min(vset - seen, key=str)))
            keyed.append((vset, {frozenset(b): fid
                                 for b, fid in dict(facets).items()}))
        self._number = number
        self._verts = verts = [tuple(sorted(vset)) for vset, _ in keyed]
        self._faces = []
        for n, (vset, facets) in enumerate(keyed):
            vs = verts[n]
            k = len(vs)
            slots = [None] * k if k > 1 else []
            for b, fid in facets.items():
                f = number.get(fid)
                if f is None:
                    raise UnknownIdError(
                        "simplex %r names unknown facet %r over %s"
                        % (ids[n], fid, _fmt_vset(b)))
                rest = vset - b
                if k > 1 and len(rest) == 1 and len(b) == k - 1:
                    slots[vs.index(*rest)] = f
                else:
                    self._aside.setdefault(n, {})[b] = f
            self._faces.append(tuple(slots))
        self._unsound = set(filter(self._facet_problems, range(len(ids))))

    # -- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def simplex_ids(self) -> tuple:
        return self._ids

    def __contains__(self, sid: str) -> bool:
        return sid in self._number

    def _get(self, sid: str) -> int:
        try:
            return self._number[sid]
        except KeyError:
            raise UnknownIdError("unknown simplex id %r" % sid) from None

    def vertex_set(self, sid: str) -> frozenset:
        return frozenset(self._verts[self._get(sid)])

    def sorted_vertices(self, sid: str) -> tuple:
        return self._verts[self._get(sid)]

    def facets(self, sid: str) -> dict:
        """{vertex set: facet id} as the constructor read it, from the
        facet that omits the last vertex, the listing it reads in C, and
        then the entries kept aside."""
        n = self._get(sid)
        vs, slots, ids = self._verts[n], self._faces[n], self._ids
        keys = map(frozenset, combinations(vs, len(vs) - 1)) if slots else ()
        out = {b: ids[f] for b, f in zip(keys, reversed(slots))
               if f is not None}
        for b, f in self._aside.get(n, {}).items():
            out[b] = ids[f]
        return out

    def dimension_of(self, sid: str) -> int:
        return len(self._verts[self._get(sid)]) - 1

    @property
    def dimension(self) -> int:
        return max(map(len, self._verts), default=0) - 1

    def simplices_of_dimension(self, k: int) -> tuple:
        return tuple(sid for sid, vs in zip(self._ids, self._verts)
                     if len(vs) == k + 1)

    def simplices_over(self, vset) -> tuple:
        """All simplex ids whose vertex set equals vset."""
        vset = frozenset(vset)
        if not vset <= self._vertex_ids:
            return ()
        return self._over.get(",".join(sorted(vset)), ())

    @cached_property
    def _over(self) -> dict:
        """{name: the ids of the simplices over it}, read when first
        asked for."""
        over = {}
        for sid, name in zip(self._ids, self._names):
            over[name] = over.get(name, ()) + (sid,)
        return over

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multicomplex):
            return NotImplemented
        if set(self._vertices) != set(other._vertices):
            return False
        if set(self._ids) != set(other._ids):
            return False
        return all(self._verts[n] == other._verts[other._number[sid]]
                   and self.facets(sid) == other.facets(sid)
                   for n, sid in enumerate(self._ids))

    def __repr__(self) -> str:
        return "Multicomplex(%d vertices, %d simplices, dim %d)" % (
            len(self._vertices), len(self._ids), self.dimension)

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return all axiom violations (empty list means valid).

        Unresolvable ids are raised from the constructor instead; this
        checks the per-vertex simplex count, facet completeness, facet
        vertex sets, and two-step composition consistency.  The
        constructor found the simplices with a facet problem; the
        composition check reads the facets of the others by position:
        dropping vertex i and then j > i is facet i's facet j - 1, and
        dropping j first is facet j's facet i.
        """
        problems = []
        count = Counter(self._names)  # a vertex is the name of its simplex
        for v in self._vertices:
            n = count[v]
            if n != 1:
                problems.append(
                    "vertex %r has %d zero-simplices (expected exactly 1)"
                    % (v, n))
        unsound = self._unsound
        for n in sorted(unsound):
            problems.extend(self._facet_problems(n))
        # simplices with wrong facets were reported above
        ids, verts, faces = self._ids, self._verts, self._faces
        for n, fs in enumerate(faces):
            if len(fs) < 3 or n in unsound:
                continue
            for i, j in _PAIRS[len(fs)]:
                via_i = faces[fs[i]][j - 1]
                via_j = faces[fs[j]][i]
                if via_i != via_j and via_i is not None \
                        and via_j is not None:
                    u, w = verts[n][i], verts[n][j]
                    problems.append(
                        "composition mismatch at %r: dropping %r then %r "
                        "gives %r but dropping %r then %r gives %r"
                        % (ids[n], u, w, ids[via_i], w, u, ids[via_j]))
        return problems

    def drop_map(self, sid: str) -> dict:
        """{v: the id of the facet of sid over its vertices less v}.

        Raises StructureError with the first problem validate() lists
        against sid: an empty vertex set, or a facet that is missing,
        spurious or spans the wrong vertices.
        """
        n = self._get(sid)
        if n in self._unsound:
            raise StructureError(self._facet_problems(n)[0])
        return dict(zip(self._verts[n],
                        map(self._ids.__getitem__, self._faces[n])))

    def records(self):
        """(id, sorted vertices, {facet key text: facet id}) of every
        simplex, by dimension and then id.  A facet key is the name of
        the facet it maps to, unless validate finds a problem there."""
        ids, names = self._ids, self._names
        order = sorted(range(len(ids)), key=ids.__getitem__)
        order.sort(key=list(map(len, self._verts)).__getitem__)
        for n in order:
            sid = ids[n]
            if n in self._unsound:
                facets = {",".join(sorted(b)): fid
                          for b, fid in self.facets(sid).items()}
            else:
                facets = {names[f]: ids[f] for f in self._faces[n]}
            yield sid, self._verts[n], facets

    def _facet_problems(self, n: int) -> list[str]:
        """What validate() lists against the vertices and facets of
        simplex n, in its order: empty, missing, spurious, then
        wrong-span facets, each by the sorted vertices of its key (the
        key that omits a later position sorts first)."""
        sid, vs = self._ids[n], self._verts[n]
        if not vs:
            return ["simplex %r has an empty vertex set" % sid]
        slots = self._faces[n]
        later_first = range(len(slots) - 1, -1, -1)
        problems = [
            "simplex %r is missing its facet over %s"
            % (sid, _fmt_vset(vs[:i] + vs[i + 1:]))
            for i in later_first if slots[i] is None]
        problems += [
            "simplex %r has a spurious facet entry for %s"
            % (sid, _fmt_vset(b))
            for b in sorted(self._aside.get(n, ()), key=sorted)]
        for i in later_first:
            f = slots[i]
            if f is not None and self._verts[f] != vs[:i] + vs[i + 1:]:
                problems.append(
                    "facet of %r over %s is %r, which spans %s instead"
                    % (sid, _fmt_vset(vs[:i] + vs[i + 1:]), self._ids[f],
                       _fmt_vset(self._verts[f])))
        return problems

    # -- substructures ------------------------------------------------------

    def check_facet_closed(self, ids) -> None:
        """Raise unless every facet of every id in ids is in ids, naming
        the least id with a facet outside them and its least such facet."""
        ids = set(ids)
        for sid in sorted(ids):
            lacking = [fid for fid in self.facets(sid).values()
                       if fid not in ids]
            if lacking:
                raise StructureError(
                    "subcomplex ids are not facet-closed: %r needs %r"
                    % (sid, min(lacking)))

    def skeleton(self, n: int) -> "Multicomplex":
        """The n-skeleton: all simplices of dimension at most n.  Each
        kept simplex lists its facets from the one that omits the last
        vertex, which the constructor reads in C, unless it has a facet
        problem, when its map is read key by key."""
        if n < 0:
            raise StructureError("skeleton dimension must be >= 0")
        ids, verts, faces = self._ids, self._verts, self._faces
        kept = [m for m, vs in enumerate(verts) if len(vs) <= n + 1]
        vset = dict(zip(kept, map(frozenset, map(verts.__getitem__, kept))))
        triples = [(ids[m], vset[m],
                    self.facets(ids[m]) if m in self._unsound else
                    {vset[f]: ids[f] for f in reversed(faces[m])})
                   for m in kept]
        return Multicomplex(self._vertices, triples)

    def is_simplicial_complex(self) -> bool:
        """True when no vertex set carries more than one simplex."""
        return len(set(self._names)) == len(self._names)

# ---------------------------------------------------------------------------
# builders


# The most simplices special_sphere and nerve may build.  On one core of
# a 2-vCPU Intel Xeon under CPython 3.11, with the document written,
# `sphere --dim N` (2^(N+1) simplices) took 0.16, 0.17, 0.41, 0.52 and
# 1.29 s in cli.main at 29, 45, 77, 143 and 284 MiB peak RSS for
# N = 10..14, and `nerve` on m members through one point (2^m - 1 faces)
# 0.08, 0.11, 0.23, 0.29, 0.69 and 1.20 s at 22 to 305 MiB for
# m = 10..15: each step still doubles both.  The complex itself holds
# about 63 B a facet (3.2 MiB for special_sphere(12) under tracemalloc);
# the peak is the builder's frozenset-keyed triples and the document.
MAX_SIMPLICES = 2 ** 15


def _closed_faces(faces) -> list:
    """(id, vertices, facets) for every nonempty subset of the given
    vertex sets, by size and then by sorted vertices; every id is the
    sorted comma-joined vertex set.  Faces are closed largest first,
    skipping a face listed as a subset of an earlier one, so a downward
    closed family costs one visit per face."""
    subsets = set()
    for fs in sorted(faces, key=len, reverse=True):
        if fs in subsets:
            continue
        for k in range(1, len(fs) + 1):
            for sub in combinations(sorted(fs), k):
                subsets.add(frozenset(sub))
    triples = []
    for sub in sorted(subsets, key=lambda s: (len(s), sorted(s))):
        vs = sorted(sub)
        omit_one = combinations(vs, len(vs) - 1) if len(vs) > 1 else ()
        triples.append((",".join(vs), sub,
                        {frozenset(b): ",".join(b) for b in omit_one}))
    return triples


def simplicial_complex(faces, vertices=()) -> Multicomplex:
    """The simplicial complex generated by the given vertex sets.

    Faces are iterables of vertex ids; the downward closure is taken.
    Every simplex id is its sorted comma-joined vertex set.
    """
    faces = [frozenset(str(v) for v in f) for f in faces]
    if not all(faces):
        raise StructureError("faces must be nonempty")
    verts = {str(v) for v in vertices}.union(*faces)
    return Multicomplex(sorted(verts), _closed_faces(
        faces + [frozenset([v]) for v in verts]))


def special_sphere(n: int, labels=None) -> Multicomplex:
    """The n-sphere with two n-simplices glued along a common boundary.

    One simplex sits over every proper nonempty subset of the n+1
    vertices, and two compatible simplices ("north", "south") sit on top;
    over MAX_SIMPLICES of them raise StructureError before any is built.
    """
    if n < 1:
        raise StructureError("special spheres need dimension >= 1")
    if 2 ** min(n + 1, 64) > MAX_SIMPLICES:
        raise StructureError(
            "the special %d-sphere would have 2^%d simplices, over the "
            "limit of %d" % (n, n + 1, MAX_SIMPLICES))
    if labels is None:
        labels = ["v%d" % i for i in range(n + 1)]
    labels = [str(v) for v in labels]
    if len(labels) != n + 1:
        raise StructureError("expected %d vertex labels" % (n + 1))
    full = frozenset(labels)
    # the closure of the full set lists it last, over its boundary
    *triples, (_, _, facets) = _closed_faces([full])
    triples += [("north", full, facets), ("south", full, facets)]
    return Multicomplex(sorted(labels), triples)


# ---------------------------------------------------------------------------
# simplicial maps


class SimplicialMap:
    """A simplicial map between multicomplexes.

    Carried as an explicit vertex map together with a simplex map; the two
    must satisfy the facet compatibility checked by validate().
    """

    def __init__(self, source: Multicomplex, target: Multicomplex,
                 vertex_map: dict, simplex_map: dict):
        self.source = source
        self.target = target
        self.vertex_map = vm = dict(vertex_map)
        self.simplex_map = sm = dict(simplex_map)
        try:
            known = (vm.keys() <= source._vertex_ids
                     and target._vertex_ids.issuperset(vm.values())
                     and sm.keys() <= source._number.keys()
                     and all(map(target._number.__contains__,
                                 sm.values())))
        except TypeError:  # an unhashable image
            known = False
        if not known:  # name the first unknown id
            for v, w in vm.items():
                if v not in source.vertices:
                    raise UnknownIdError(
                        "vertex map uses unknown vertex %r" % v)
                if w not in target.vertices:
                    raise UnknownIdError(
                        "vertex map sends %r to unknown vertex %r" % (v, w))
            for s, t in sm.items():
                source.vertex_set(s)
                target.vertex_set(t)

    def vertex_image(self, vset) -> frozenset:
        vm = self.vertex_map
        try:
            return frozenset([vm[v] for v in vset])
        except KeyError:
            missing = [v for v in vset if v not in vm]
            raise UnknownIdError(
                "vertex map is undefined on %r" % sorted(missing)[0]) from None

    def validate(self) -> list[str]:
        """All violations of the simplicial map conditions.

        The facets of a source simplex, and of its image where a facet
        maps below it, are read through drop_map, so a facet fault on
        either side raises the first problem Multicomplex.validate lists
        for that simplex.
        """
        problems = []
        for v in self.source.vertices:
            if v not in self.vertex_map:
                problems.append("vertex map is undefined on %r" % v)
        for sid in self.source.simplex_ids:
            if sid not in self.simplex_map:
                problems.append("simplex map is undefined on %r" % sid)
        if problems:
            return problems
        # the maps are total: read each source record once
        vm, sm = self.vertex_map, self.simplex_map
        target = self.target
        drops = _Memo(self.source.drop_map)
        target_drops = (drops if target is self.source
                        else _Memo(target.drop_map))
        for sid, vs in zip(self.source._ids, self.source._verts):
            fa = self.vertex_image(vs)
            tid = sm[sid]
            tv = target.vertex_set(tid)
            if tv != fa:
                problems.append(
                    "simplex %r maps to %r, which spans %s instead of %s"
                    % (sid, tid, _fmt_vset(tv), _fmt_vset(fa)))
                continue
            # facet compatibility: the facet that drops u maps onto tid
            # itself when another vertex shares the image of u, and
            # otherwise onto the facet of tid that drops that image
            drop = drops[sid]
            if not drop:
                continue
            if len(fa) == len(drop):
                image_of = target_drops[tid]
            else:
                counts = Counter(vm[v] for v in vs)
                image_of = {w: tid if c > 1 else target_drops[tid][w]
                            for w, c in counts.items()}
            for u, fid in drop.items():
                got, want = image_of[vm[u]], sm[fid]
                if got != want:
                    problems.append(
                        "facet square fails at %r over %s: image facet is "
                        "%r but the facet maps to %r"
                        % (sid, _fmt_vset(v for v in vs if v != u), got,
                           want))
        return problems

    def apply_vertex(self, v: str) -> str:
        try:
            return self.vertex_map[v]
        except KeyError:
            raise UnknownIdError("vertex map is undefined on %r" % v) from None

    def apply_simplex(self, sid: str) -> str:
        try:
            return self.simplex_map[sid]
        except KeyError:
            raise UnknownIdError(
                "simplex map is undefined on %r" % sid) from None


def identity_map(mc: Multicomplex) -> SimplicialMap:
    return SimplicialMap(mc, mc, {v: v for v in mc.vertices},
                         {s: s for s in mc.simplex_ids})


def compose_maps(first: SimplicialMap, second: SimplicialMap) -> SimplicialMap:
    """The composite sending x to second(first(x))."""
    if first.target is not second.source and first.target != second.source:
        raise StructureError("maps are not composable")
    vm = {v: second.apply_vertex(w) for v, w in first.vertex_map.items()}
    sm = {s: second.apply_simplex(t) for s, t in first.simplex_map.items()}
    return SimplicialMap(first.source, second.target, vm, sm)


# ---------------------------------------------------------------------------
# product with an interval


class ProductWithInterval:
    """K x I triangulated by iterated cones, with the two end embeddings.

    The two copies of K sit untouched at the ends ("@0" and "@1" names);
    prisms over the simplices are filled by coning over a fresh middle
    vertex per simplex, so over a single vertex the interval gets its
    midpoint subdivision.
    """

    def __init__(self, complex: Multicomplex, bottom: SimplicialMap,
                 top: SimplicialMap):
        self.complex = complex
        self.bottom = bottom
        self.top = top


def product_with_interval(mc: Multicomplex) -> ProductWithInterval:
    verts = []
    for v in mc.vertices:
        verts.append(v + "@0")
        verts.append(v + "@1")
    triples = []
    vset_of: dict[str, frozenset] = {}
    vs_of: dict[str, tuple] = {}      # sorted vertices
    faces_of: dict[str, list] = {}    # facet ids by omitted position
    made_from: dict[str, str] = {}

    def add(sid, source: str):
        # ids that contain '@' or '^' can name two simplices alike
        if sid in made_from:
            raise StructureError(
                "the product names two of its simplices %r, one made from "
                "%r and one from %r" % (sid, made_from[sid], source))
        made_from[sid] = source

    def record(sid, vs: tuple, faces: list):
        # each simplex lists its facets from the one that omits the last
        # vertex, which the constructor reads in C
        vs_of[sid] = vs
        faces_of[sid] = faces
        triples.append((sid, vset_of[sid],
                        {vset_of[f]: f for f in reversed(faces)}))

    # caps: two untouched copies of every simplex, whose vertices a
    # suffix may reorder ("v1" < "v10" but "v10@0" < "v1@0").  A simplex
    # with a facet problem stops the product at its drop_map below, so
    # its caps need no facets
    ids, faces = mc._ids, mc._faces
    for layer in ("@0", "@1"):
        caps = []
        for n, sid in enumerate(ids):
            vs = mc._verts[n]
            order = sorted(range(len(vs)), key=lambda i: vs[i] + layer)
            cid = sid + layer
            add(cid, sid)
            vs_of[cid] = vs = tuple([vs[i] + layer for i in order])
            vset_of[cid] = frozenset(vs)
            caps.append((cid, vs, [] if n in mc._unsound or not faces[n]
                         else [ids[faces[n][i]] + layer for i in order]))
        for cap in caps:
            record(*cap)

    # prisms, one per simplex, built over the prisms of the facets.
    # prism_all[sid] lists every simplex id in the closed prism over sid;
    # the boundary of the prism is both caps plus the facet prisms, whose
    # facets all lie in it.  The cone over b has the apex at its place
    # among the vertices of b; dropping the apex gives b, and dropping
    # another vertex the cone over the facet of b that drops it (over a
    # single vertex, the apex).
    prism_all: dict[str, list[str]] = {}

    order = sorted(ids, key=lambda s: (len(mc._verts[mc._number[s]]), s))
    taken = set(verts)
    for sid in order:
        # vertex ids may not contain commas, but simplex ids may
        apex = sid.replace(",", ".") + "@m"
        while apex in taken:
            apex += "'"
        taken.add(apex)
        verts.append(apex)
        add(apex, sid)
        tip = vset_of[apex] = frozenset([apex])
        record(apex, (apex,), [])
        boundary = [sid + "@0", sid + "@1"]
        for fid in mc.drop_map(sid).values():  # each prism built already
            boundary.extend(prism_all[fid])
        boundary = sorted(set(boundary))
        cone_of = {b: sid + "^" + b for b in boundary}
        for b in boundary:
            add(cone_of[b], sid)
            vset_of[cone_of[b]] = vset_of[b] | tip
        for b in boundary:
            vs = vs_of[b]
            at = bisect_left(vs, apex)
            below = [cone_of[f] for f in faces_of[b]] or [apex]
            below.insert(at, b)
            record(cone_of[b], vs[:at] + (apex,) + vs[at:], below)
        prism_all[sid] = boundary + [apex] + [cone_of[b] for b in boundary]

    product = Multicomplex(verts, triples)
    bottom = SimplicialMap(
        mc, product, {v: v + "@0" for v in mc.vertices},
        {s: s + "@0" for s in mc.simplex_ids})
    top = SimplicialMap(
        mc, product, {v: v + "@1" for v in mc.vertices},
        {s: s + "@1" for s in mc.simplex_ids})
    return ProductWithInterval(product, bottom, top)
