"""Finite multicomplexes.

A multicomplex is a vertex set V together with, for every nonempty subset
A of V, a finite set I_A of simplices spanning A, and boundary assignments
that pick for every simplex in I_A and every nonempty B < A a simplex in
I_B, compatibly with composition.  Unlike a simplicial complex, I_A may
hold several simplices over the same vertices; unlike a Delta-complex,
every simplex has pairwise distinct vertices and no preferred ordering.

Only codimension-one facets are stored; a deeper face is reached by
composing facet steps, which the composition axiom makes unambiguous.
Instances are treated as immutable once built.

Multicomplex's constructor is the one place ids are checked and facet
maps are copied.  The decoder and the builders (skeleton, the product
with an interval) hand it their own frozensets and dicts; it checks
simplices and facet targets in C and falls back to a loop over single
ids only to name the first bad one.

The chain-complex builders, the product with an interval and the check
of a simplicial map read facets only through drop_map(sid), which raises
the first problem validate() lists against sid; check_facet_closed
serves the relative complex.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations


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


_is_frozenset = frozenset.__instancecheck__


class _Memo(dict):
    """fn(key) for every key looked up, computed once per key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Simplex:
    __slots__ = ("sid", "vset", "facets")

    def __init__(self, sid: str, vset: frozenset, facets: dict):
        self.sid = sid
        self.vset = vset
        self.facets = facets  # frozenset (one vertex removed) -> simplex id


class Multicomplex:
    """Immutable multicomplex given by explicit simplices and facet maps.

    simplices is an iterable of (id, vertices, facets) triples, where
    facets maps each subset of the vertices with one vertex removed to the
    id of the chosen facet simplex.  Referential integrity is enforced
    here; the remaining axioms are checked by validate().  Each facet map
    is copied once, here, so callers need not copy their own.
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
        table: dict[str, _Simplex] = {}
        by_vset: dict[frozenset, list[str]] = {}
        for sid, vset, facets in simplices:
            if not isinstance(sid, str) or not sid:
                raise UnknownIdError("simplex ids must be nonempty strings")
            if sid in table:
                raise UnknownIdError("duplicate simplex id %r" % sid)
            vset = frozenset(vset)
            if not vset <= seen:
                raise UnknownIdError("simplex %r uses unknown vertex %r"
                                     % (sid, min(vset - seen, key=str)))
            copy = dict(facets)
            if not all(map(_is_frozenset, copy)):
                copy = {frozenset(b): f for b, f in copy.items()}
            table[sid] = _Simplex(sid, vset, copy)
            by_vset.setdefault(vset, []).append(sid)
        for s in table.values():
            if not all(map(table.__contains__, s.facets.values())):
                for b, fid in s.facets.items():
                    if fid not in table:
                        raise UnknownIdError(
                            "simplex %r names unknown facet %r over %s"
                            % (s.sid, fid, _fmt_vset(b)))
        self._vertex_ids = seen
        self._simplices = table
        self._by_vset = by_vset

    # -- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def simplex_ids(self) -> tuple:
        return tuple(self._simplices)

    def __contains__(self, sid: str) -> bool:
        return sid in self._simplices

    def _get(self, sid: str) -> _Simplex:
        try:
            return self._simplices[sid]
        except KeyError:
            raise UnknownIdError("unknown simplex id %r" % sid) from None

    def vertex_set(self, sid: str) -> frozenset:
        return self._get(sid).vset

    def facets(self, sid: str) -> dict:
        return dict(self._get(sid).facets)

    def dimension_of(self, sid: str) -> int:
        return len(self._get(sid).vset) - 1

    @property
    def dimension(self) -> int:
        return max((len(s.vset) - 1 for s in self._simplices.values()),
                   default=-1)

    def simplices_of_dimension(self, k: int) -> tuple:
        return tuple(sid for sid, s in self._simplices.items()
                     if len(s.vset) == k + 1)

    def simplices_over(self, vset) -> tuple:
        """All simplex ids whose vertex set equals vset."""
        return tuple(self._by_vset.get(frozenset(vset), ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multicomplex):
            return NotImplemented
        if set(self._vertices) != set(other._vertices):
            return False
        if set(self._simplices) != set(other._simplices):
            return False
        for sid, s in self._simplices.items():
            t = other._simplices[sid]
            if s.vset != t.vset or s.facets != t.facets:
                return False
        return True

    def __repr__(self) -> str:
        return "Multicomplex(%d vertices, %d simplices, dim %d)" % (
            len(self._vertices), len(self._simplices), self.dimension)

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return all axiom violations (empty list means valid).

        Unresolvable ids are raised from the constructor instead; this
        checks the per-vertex simplex count, facet completeness, facet
        vertex sets, and two-step composition consistency.  Each facet is
        read once per simplex, into a map from every vertex to the facet
        that drops it, which the composition check then reads.
        """
        problems = []
        for v in self._vertices:
            n = len(self._by_vset.get(frozenset([v]), ()))
            if n != 1:
                problems.append(
                    "vertex %r has %d zero-simplices (expected exactly 1)"
                    % (v, n))
        simplices = self._simplices
        drops = {}  # sid -> _drop_map, for the simplices with right facets
        for sid, s in simplices.items():
            drop = self._drop_map(s)
            if drop is None:
                problems.extend(self._facet_problems(s))
            else:
                drops[sid] = drop
        # two-step consistency: dropping {u, w} must not depend on the order;
        # simplices with wrong facets were reported above
        def step(fid, v):
            drop = drops.get(fid)
            if drop is not None:
                return drop[v]
            f = simplices[fid]
            return f.facets.get(f.vset - {v})

        for sid, drop in drops.items():
            if len(drop) < 3:
                continue
            for u, w in combinations(sorted(drop), 2):
                via_u = step(drop[u], w)
                via_w = step(drop[w], u)
                if via_u is None or via_w is None:
                    continue
                if via_u != via_w:
                    problems.append(
                        "composition mismatch at %r: dropping %r then %r "
                        "gives %r but dropping %r then %r gives %r"
                        % (sid, u, w, via_u, w, u, via_w))
        return problems

    def drop_map(self, sid: str) -> dict:
        """{v: the id of the facet of sid over its vertices less v}.

        Raises StructureError with the first problem validate() lists
        against sid: an empty vertex set, or a facet that is missing,
        spurious or spans the wrong vertices.
        """
        s = self._get(sid)
        drop = self._drop_map(s)
        if drop is None:
            raise StructureError(self._facet_problems(s)[0])
        return drop

    def _drop_map(self, s: _Simplex):
        """{v: the facet of s over s.vset - {v}} when s has vertices and
        exactly one facet over each such subset, spanning it; otherwise
        None."""
        k = len(s.vset)
        if not k or len(s.facets) != (k if k > 1 else 0):
            return None
        drop = {}
        for b, fid in s.facets.items():
            rest = s.vset - b
            if len(rest) != 1 or len(b) != k - 1 \
                    or self._simplices[fid].vset != b:
                return None
            (v,) = rest
            drop[v] = fid
        return drop

    def _facet_problems(self, s: _Simplex) -> list[str]:
        """What validate() lists against the vertices and facets of s, in
        its order: empty, missing, spurious, then wrong-span facets."""
        k = len(s.vset)
        if k == 0:
            return ["simplex %r has an empty vertex set" % s.sid]
        expected = {s.vset - {v} for v in s.vset} if k > 1 else set()
        got = set(s.facets)
        problems = [
            "simplex %r is missing its facet over %s" % (s.sid, _fmt_vset(b))
            for b in sorted(expected - got, key=sorted)]
        problems += [
            "simplex %r has a spurious facet entry for %s"
            % (s.sid, _fmt_vset(b))
            for b in sorted(got - expected, key=sorted)]
        for b in sorted(got & expected, key=sorted):
            span = self._simplices[s.facets[b]].vset
            if span != b:
                problems.append(
                    "facet of %r over %s is %r, which spans %s instead"
                    % (s.sid, _fmt_vset(b), s.facets[b], _fmt_vset(span)))
        return problems

    # -- substructures ------------------------------------------------------

    def check_facet_closed(self, ids) -> None:
        """Raise unless every facet of every id in ids is in ids, naming
        the least id with a facet outside them and its least such facet."""
        ids = set(ids)
        for sid in sorted(ids):
            lacking = [fid for fid in self._get(sid).facets.values()
                       if fid not in ids]
            if lacking:
                raise StructureError(
                    "subcomplex ids are not facet-closed: %r needs %r"
                    % (sid, min(lacking)))

    def skeleton(self, n: int) -> "Multicomplex":
        """The n-skeleton: all simplices of dimension at most n."""
        if n < 0:
            raise StructureError("skeleton dimension must be >= 0")
        triples = [(sid, s.vset, s.facets)
                   for sid, s in self._simplices.items()
                   if len(s.vset) - 1 <= n]
        return Multicomplex(self._vertices, triples)

    def is_simplicial_complex(self) -> bool:
        """True when no vertex set carries more than one simplex."""
        return all(len(v) <= 1 for v in self._by_vset.values())

# ---------------------------------------------------------------------------
# builders


# The most simplices special_sphere and nerve may build.  On one core of
# a 2-vCPU Intel Xeon under CPython 3.11, document written, `sphere --dim
# N` (2^(N+1) simplices) took 0.20, 0.29, 0.47, 0.86 and 1.74 s at 30,
# 47, 85, 165 and 339 MiB peak RSS for N = 10..14, and `nerve` on m
# members through one point (2^m - 1 faces) 0.20, 0.22, 0.33, 0.54, 1.02
# and 1.84 s at 23 to 347 MiB for m = 10..15: each step doubles both.
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
        facets = {}
        if len(sub) > 1:
            for v in sub:
                b = sub - {v}
                facets[b] = ",".join(sorted(b))
        triples.append((",".join(sorted(sub)), sub, facets))
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
                     and sm.keys() <= source._simplices.keys()
                     and all(map(target._simplices.__contains__,
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
        targets = self.target._simplices
        drops = _Memo(self.source.drop_map)
        target_drops = (drops if self.target is self.source
                        else _Memo(self.target.drop_map))
        for sid, s in self.source._simplices.items():
            fa = self.vertex_image(s.vset)
            tid = sm[sid]
            tv = targets[tid].vset
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
                counts = Counter(vm[v] for v in s.vset)
                image_of = {w: tid if c > 1 else target_drops[tid][w]
                            for w, c in counts.items()}
            for u, fid in drop.items():
                got, want = image_of[vm[u]], sm[fid]
                if got != want:
                    problems.append(
                        "facet square fails at %r over %s: image facet is "
                        "%r but the facet maps to %r"
                        % (sid, _fmt_vset(s.vset - {u}), got, want))
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
    facets_of: dict[str, dict] = {}
    made_from: dict[str, str] = {}

    def add(sid, vset: frozenset, facets: dict, source: str):
        # ids that contain '@' or '^' can name two simplices alike
        if sid in vset_of:
            raise StructureError(
                "the product names two of its simplices %r, one made from "
                "%r and one from %r" % (sid, made_from[sid], source))
        made_from[sid] = source
        vset_of[sid] = vset
        facets_of[sid] = facets
        triples.append((sid, vset, facets))

    # caps: two untouched copies of every simplex
    simplices = mc._simplices
    for layer in ("@0", "@1"):
        moved = _Memo(lambda vset: frozenset([v + layer for v in vset]))
        for sid, s in simplices.items():
            add(sid + layer, moved[s.vset],
                {moved[b]: fid + layer for b, fid in s.facets.items()}, sid)

    # prisms, one per simplex, built over the prisms of the facets.
    # prism_all[sid] lists every simplex id in the closed prism over sid;
    # the boundary of the prism is both caps plus the facet prisms.
    prism_all: dict[str, list[str]] = {}

    order = sorted(simplices, key=lambda s: (len(simplices[s].vset), s))
    taken = set(verts)
    for sid in order:
        # vertex ids may not contain commas, but simplex ids may
        apex = sid.replace(",", ".") + "@m"
        while apex in taken:
            apex += "'"
        taken.add(apex)
        verts.append(apex)
        tip = frozenset([apex])
        add(apex, tip, {}, sid)
        boundary = [sid + "@0", sid + "@1"]
        for fid in mc.drop_map(sid).values():  # each prism built already
            boundary.extend(prism_all[fid])
        boundary = sorted(set(boundary))
        cone_of = {b: sid + "^" + b for b in boundary}
        for b in boundary:
            cid = cone_of[b]
            bvs = vset_of[b]
            facets = {bvs: b}
            for sub, f in facets_of[b].items():
                facets[sub | tip] = cone_of[f]
            if len(bvs) == 1:
                facets[tip] = apex
            add(cid, bvs | tip, facets, sid)
        prism_all[sid] = boundary + [apex] + [cone_of[b] for b in boundary]

    product = Multicomplex(verts, triples)
    bottom = SimplicialMap(
        mc, product, {v: v + "@0" for v in mc.vertices},
        {s: s + "@0" for s in mc.simplex_ids})
    top = SimplicialMap(
        mc, product, {v: v + "@1" for v in mc.vertices},
        {s: s + "@1" for s in mc.simplex_ids})
    return ProductWithInterval(product, bottom, top)
