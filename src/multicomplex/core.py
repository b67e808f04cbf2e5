"""Finite multicomplexes.

A multicomplex is a vertex set V together with, for every nonempty subset
A of V, a finite set I_A of simplices spanning A, and boundary assignments
that pick for every simplex in I_A and every nonempty B < A a simplex in
I_B, compatibly with composition.  Unlike a simplicial complex, I_A may
hold several simplices over the same vertices; unlike a Delta-complex,
every simplex has pairwise distinct vertices and no preferred ordering.

Only codimension-one facets are stored; deeper faces are derived by
composing facet steps, which the composition axiom makes unambiguous.
Instances are treated as immutable once built.
"""

from __future__ import annotations

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
    here; the remaining axioms are checked by validate().
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
        self._simplices: dict[str, _Simplex] = {}
        for sid, vset, facets in simplices:
            if not isinstance(sid, str) or not sid:
                raise UnknownIdError("simplex ids must be nonempty strings")
            if sid in self._simplices:
                raise UnknownIdError("duplicate simplex id %r" % sid)
            vset = frozenset(vset)
            for v in vset:
                if v not in seen:
                    raise UnknownIdError(
                        "simplex %r uses unknown vertex %r" % (sid, v))
            self._simplices[sid] = _Simplex(
                sid, vset, {frozenset(b): f for b, f in facets.items()})
        for s in self._simplices.values():
            for b, fid in s.facets.items():
                if fid not in self._simplices:
                    raise UnknownIdError(
                        "simplex %r names unknown facet %r over %s"
                        % (s.sid, fid, _fmt_vset(b)))
        self._by_vset: dict[frozenset, list[str]] = {}
        for s in self._simplices.values():
            self._by_vset.setdefault(s.vset, []).append(s.sid)

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

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s.vset) - 1)
                   for s in self._simplices.values())

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

    # -- derived faces ------------------------------------------------------

    def face(self, sid: str, subset) -> str:
        """The face of sid over the given nonempty vertex subset.

        Derived by removing one vertex at a time (largest first); on a
        valid multicomplex the result does not depend on the removal
        order.
        """
        s = self._get(sid)
        b = frozenset(subset)
        if not b:
            raise StructureError("faces are indexed by nonempty subsets")
        if not b <= s.vset:
            raise StructureError(
                "%s is not a subset of the vertices of %r" %
                (_fmt_vset(b), sid))
        cur = s
        while cur.vset != b:
            v = max(cur.vset - b)
            rest = cur.vset - {v}
            nxt = cur.facets.get(rest)
            if nxt is None:
                raise StructureError(
                    "simplex %r is missing its facet over %s"
                    % (cur.sid, _fmt_vset(rest)))
            nxt = self._get(nxt)
            if nxt.vset != rest:  # following it could cycle forever
                raise StructureError(
                    "the facet of %r over %s is %r, which spans %s"
                    % (cur.sid, _fmt_vset(rest), nxt.sid,
                       _fmt_vset(nxt.vset)))
            cur = nxt
        return cur.sid

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
            k = len(s.vset)
            if k == 0:
                problems.append("simplex %r has an empty vertex set" % sid)
                continue
            drop = self._drop_map(s)
            if drop is not None:
                drops[sid] = drop
                continue
            expected = {s.vset - {v} for v in s.vset} if k > 1 else set()
            got = set(s.facets)
            for b in sorted(expected - got, key=sorted):
                problems.append(
                    "simplex %r is missing its facet over %s"
                    % (sid, _fmt_vset(b)))
            for b in sorted(got - expected, key=sorted):
                problems.append(
                    "simplex %r has a spurious facet entry for %s"
                    % (sid, _fmt_vset(b)))
            for b in sorted(got & expected, key=sorted):
                fid = s.facets[b]
                if self._simplices[fid].vset != b:
                    problems.append(
                        "facet of %r over %s is %r, which spans %s instead"
                        % (sid, _fmt_vset(b), fid,
                           _fmt_vset(self._simplices[fid].vset)))
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

    def _drop_map(self, s: _Simplex):
        """{v: the facet of s over s.vset - {v}} when s has exactly one
        facet over each such subset, spanning it; otherwise None."""
        k = len(s.vset)
        if len(s.facets) != (k if k > 1 else 0):
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

    # -- substructures ------------------------------------------------------

    def submulticomplex(self, ids, close: bool = False) -> "Multicomplex":
        """The submulticomplex spanned by the given simplex ids.

        The id set must be closed under facets unless close=True, in which
        case the facet closure is taken.  Vertices are the ones used.
        """
        keep = set()
        stack = [self._get(sid).sid for sid in ids]
        for sid in stack:
            keep.add(sid)
        if close:
            while stack:
                sid = stack.pop()
                for fid in self._simplices[sid].facets.values():
                    if fid not in keep:
                        keep.add(fid)
                        stack.append(fid)
        else:
            for sid in sorted(keep):
                for fid in self._simplices[sid].facets.values():
                    if fid not in keep:
                        raise StructureError(
                            "id set is not facet-closed: %r needs %r"
                            % (sid, fid))
        verts = sorted({v for sid in keep
                        for v in self._simplices[sid].vset})
        triples = [(sid, s.vset, dict(s.facets))
                   for sid, s in self._simplices.items() if sid in keep]
        return Multicomplex(verts, triples)

    def skeleton(self, n: int) -> "Multicomplex":
        """The n-skeleton: all simplices of dimension at most n."""
        if n < 0:
            raise StructureError("skeleton dimension must be >= 0")
        keep = [sid for sid, s in self._simplices.items()
                if len(s.vset) - 1 <= n]
        triples = [(sid, self._simplices[sid].vset,
                    dict(self._simplices[sid].facets)) for sid in keep]
        return Multicomplex(self._vertices, triples)

    def is_simplicial_complex(self) -> bool:
        """True when no vertex set carries more than one simplex."""
        return all(len(v) <= 1 for v in self._by_vset.values())

    def compatible_simplices(self, sid: str) -> tuple:
        """Ids of all simplices sharing the vertex set and every facet of sid.

        Compatibility only makes sense in dimension >= 1.
        """
        s = self._get(sid)
        if len(s.vset) < 2:
            raise StructureError(
                "compatibility is defined for simplices of dimension >= 1")
        out = [t for t in self._by_vset[s.vset]
               if self._simplices[t].facets == s.facets]
        return tuple(sorted(out))


# ---------------------------------------------------------------------------
# builders


def simplicial_complex(faces, vertices=()) -> Multicomplex:
    """The simplicial complex generated by the given vertex sets.

    Faces are iterables of vertex ids; the downward closure is taken.
    Every simplex id is its sorted comma-joined vertex set.
    """
    subsets = set()
    verts = {str(v) for v in vertices}
    for f in faces:
        fs = frozenset(str(v) for v in f)
        if not fs:
            raise StructureError("faces must be nonempty")
        verts |= fs
        for k in range(1, len(fs) + 1):
            for sub in combinations(sorted(fs), k):
                subsets.add(frozenset(sub))
    for v in verts:
        subsets.add(frozenset([v]))
    triples = []
    for sub in sorted(subsets, key=lambda s: (len(s), sorted(s))):
        sid = ",".join(sorted(sub))
        facets = {}
        if len(sub) > 1:
            for v in sub:
                b = sub - {v}
                facets[b] = ",".join(sorted(b))
        triples.append((sid, sub, facets))
    return Multicomplex(sorted(verts), triples)


def special_sphere(n: int, labels=None) -> Multicomplex:
    """The n-sphere with two n-simplices glued along a common boundary.

    One simplex sits over every proper nonempty subset of the n+1
    vertices, and two compatible simplices ("north", "south") sit on top.
    """
    if n < 1:
        raise StructureError("special spheres need dimension >= 1")
    if labels is None:
        labels = ["v%d" % i for i in range(n + 1)]
    labels = [str(v) for v in labels]
    if len(labels) != n + 1:
        raise StructureError("expected %d vertex labels" % (n + 1))
    full = frozenset(labels)
    triples = []
    for k in range(1, n + 1):
        for sub in combinations(sorted(full), k):
            sub = frozenset(sub)
            facets = {}
            if len(sub) > 1:
                for v in sub:
                    b = sub - {v}
                    facets[b] = ",".join(sorted(b))
            triples.append((",".join(sorted(sub)), sub, facets))
    top_facets = {full - {v}: ",".join(sorted(full - {v})) for v in full}
    triples.append(("north", full, dict(top_facets)))
    triples.append(("south", full, dict(top_facets)))
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
        self.vertex_map = dict(vertex_map)
        self.simplex_map = dict(simplex_map)
        for v, w in self.vertex_map.items():
            if v not in source.vertices:
                raise UnknownIdError("vertex map uses unknown vertex %r" % v)
            if w not in target.vertices:
                raise UnknownIdError(
                    "vertex map sends %r to unknown vertex %r" % (v, w))
        for s, t in self.simplex_map.items():
            source.vertex_set(s)
            target.vertex_set(t)

    def vertex_image(self, vset) -> frozenset:
        missing = [v for v in vset if v not in self.vertex_map]
        if missing:
            raise UnknownIdError(
                "vertex map is undefined on %r" % sorted(missing)[0])
        return frozenset(self.vertex_map[v] for v in vset)

    def validate(self) -> list[str]:
        """All violations of the simplicial map conditions."""
        problems = []
        for v in self.source.vertices:
            if v not in self.vertex_map:
                problems.append("vertex map is undefined on %r" % v)
        for sid in self.source.simplex_ids:
            if sid not in self.simplex_map:
                problems.append("simplex map is undefined on %r" % sid)
        if problems:
            return problems
        for sid in self.source.simplex_ids:
            a = self.source.vertex_set(sid)
            fa = self.vertex_image(a)
            tid = self.simplex_map[sid]
            if self.target.vertex_set(tid) != fa:
                problems.append(
                    "simplex %r maps to %r, which spans %s instead of %s"
                    % (sid, tid, _fmt_vset(self.target.vertex_set(tid)),
                       _fmt_vset(fa)))
                continue
            # facet compatibility, including collapsing maps where the
            # image of a facet subset equals the image of the whole set
            for b, fid in self.source.facets(sid).items():
                fb = self.vertex_image(b)
                want = self.simplex_map[fid]
                got = self.target.face(tid, fb)
                if got != want:
                    problems.append(
                        "facet square fails at %r over %s: image facet is "
                        "%r but the facet maps to %r"
                        % (sid, _fmt_vset(b), got, want))
        return problems

    def is_nondegenerate(self) -> bool:
        """True when the vertex map is injective on every simplex."""
        for sid in self.source.simplex_ids:
            a = self.source.vertex_set(sid)
            if len(self.vertex_image(a)) != len(a):
                return False
        return True

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

    def add(sid, vset, facets):
        if sid in vset_of:
            return
        vset_of[sid] = frozenset(vset)
        facets_of[sid] = dict(facets)
        triples.append((sid, vset_of[sid], facets_of[sid]))

    # caps: two untouched copies of every simplex
    for layer in ("0", "1"):
        for sid in mc.simplex_ids:
            vset = {v + "@" + layer for v in mc.vertex_set(sid)}
            facets = {}
            for b, fid in mc.facets(sid).items():
                facets[frozenset(w + "@" + layer for w in b)] = \
                    fid + "@" + layer
            add(sid + "@" + layer, vset, facets)

    # prisms, one per simplex, built over the prisms of the facets.
    # prism_all[sid] lists every simplex id in the closed prism over sid;
    # the boundary of the prism is both caps plus the facet prisms.
    prism_all: dict[str, list[str]] = {}

    order = sorted(mc.simplex_ids,
                   key=lambda s: (len(mc.vertex_set(s)), s))
    taken = set(verts)
    for sid in order:
        # vertex ids may not contain commas, but simplex ids may
        apex = sid.replace(",", ".") + "@m"
        while apex in taken:
            apex += "'"
        taken.add(apex)
        verts.append(apex)
        add(apex, {apex}, {})
        boundary = [sid + "@0", sid + "@1"]
        vset, facets = mc.vertex_set(sid), mc.facets(sid)
        for v in sorted(vset):
            if len(vset) > 1 and vset - {v} not in facets:
                raise StructureError("the facet of %r over %s is missing"
                                     % (sid, _fmt_vset(vset - {v})))
        for b, fid in facets.items():
            if mc.vertex_set(fid) != b:
                raise StructureError(
                    "the facet of %r over %s is %r, which spans %s"
                    % (sid, _fmt_vset(b), fid,
                       _fmt_vset(mc.vertex_set(fid))))
            if not b < vset:
                # a facet no smaller than sid has no prism yet
                raise StructureError(
                    "simplex %r has a spurious facet entry for %s"
                    % (sid, _fmt_vset(b)))
            boundary.extend(prism_all[fid])
        boundary = sorted(set(boundary))
        cone_of = {b: sid + "^" + b for b in boundary}
        for b in boundary:
            cid = cone_of[b]
            bvs = vset_of[b]
            cvs = bvs | {apex}
            facets = {bvs: b}
            for sub, f in facets_of[b].items():
                facets[sub | {apex}] = cone_of[f]
            if len(bvs) == 1:
                facets[frozenset({apex})] = apex
            add(cid, cvs, facets)
        prism_all[sid] = boundary + [apex] + [cone_of[b] for b in boundary]

    product = Multicomplex(verts, triples)
    bottom = SimplicialMap(
        mc, product, {v: v + "@0" for v in mc.vertices},
        {s: s + "@0" for s in mc.simplex_ids})
    top = SimplicialMap(
        mc, product, {v: v + "@1" for v in mc.vertices},
        {s: s + "@1" for s in mc.simplex_ids})
    return ProductWithInterval(product, bottom, top)
