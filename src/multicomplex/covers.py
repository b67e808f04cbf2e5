"""Covers of a vertex set, nerves, adapted colorings, and the
repeated-color vanishing mechanism.

A cover here is purely combinatorial: a family of vertex subsets of some
host complex, indexed by arbitrary labels.  Open stars become closed
vertex stars, so "the star of v lies in some member" is a finite check.
Amenability flags on the members are inert metadata: they are carried
and reported, never interpreted.
"""

from __future__ import annotations

from fractions import Fraction

from .actions import GroupAction, _check_orderings, average_cochain
from .chains import AlgebraicSimplex, Cochain, RING_RAT, alternate
from .core import (InternalInvariantError, Multicomplex, StructureError,
                   UnknownIdError, simplicial_complex)
from itertools import permutations


def _index_order(indices):
    try:
        return sorted(indices)
    except TypeError:
        return sorted(indices, key=str)


class Cover:
    """An indexed family of vertex subsets, with inert amenability flags."""

    def __init__(self, sets, amenable=None):
        self.sets = {}
        for j, pts in sets.items():
            pts = frozenset(str(v) for v in pts)
            self.sets[j] = pts
        labels = {str(j) for j in self.sets}
        if len(labels) != len(self.sets):
            raise StructureError(
                "cover indices collide once written out as strings")
        self.amenable = {}
        for j, flag in (amenable or {}).items():
            if j not in self.sets:
                raise UnknownIdError("flag for unknown cover index %r" % (j,))
            self.amenable[j] = bool(flag)

    def indices(self) -> list:
        return _index_order(self.sets)

    def member(self, j) -> frozenset:
        if j not in self.sets:
            raise UnknownIdError("no cover member with index %r" % (j,))
        return self.sets[j]

    def covers(self, vertices) -> bool:
        """Whether the members jointly contain the given vertex set."""
        pool = set()
        for pts in self.sets.values():
            pool |= pts
        return {str(v) for v in vertices} <= pool

    def __len__(self) -> int:
        return len(self.sets)

    def __repr__(self) -> str:
        return "Cover(%d members)" % len(self.sets)


def nerve(c: Cover, max_dim=None) -> Multicomplex:
    """The nerve: vertices are the cover indices, and a set of indices
    spans a simplex exactly when the corresponding members intersect.

    Indices become string vertex ids.  Members that are empty sets span
    nothing, not even a vertex.  max_dim truncates the result.
    """
    items = [(str(j), set(c.member(j))) for j in c.indices() if c.member(j)]
    faces = []
    # grow only around nonempty intersections; an empty k-fold meet
    # cannot extend to a nonempty (k+1)-fold one
    frontier = [((pos,), pts) for pos, (_, pts) in enumerate(items)]
    while frontier:
        nxt = []
        for positions, pts in frontier:
            faces.append(tuple(items[p][0] for p in positions))
            if max_dim is not None and len(positions) == max_dim + 1:
                continue
            for q in range(positions[-1] + 1, len(items)):
                meet = pts & items[q][1]
                if meet:
                    nxt.append((positions + (q,), meet))
        frontier = nxt
    return simplicial_complex(faces)


def multiplicity(c: Cover) -> int:
    """The largest number of distinct members sharing a common point.

    Counted pointwise (the deepest point of the cover), which keeps the
    computation independent of the nerve construction.
    """
    depth = {}
    for j in c.indices():
        for v in c.member(j):
            depth[v] = depth.get(v, 0) + 1
    return max(depth.values(), default=0)


class Coloring:
    """An assignment vertex -> cover index."""

    def __init__(self, assignment):
        self.assignment = dict(assignment)

    def of(self, v):
        v = str(v)
        if v not in self.assignment:
            raise UnknownIdError("no color assigned to vertex %r" % (v,))
        return self.assignment[v]

    def items(self) -> list:
        return sorted(self.assignment.items())

    def classes(self) -> dict:
        out = {}
        for v, j in self.assignment.items():
            out.setdefault(j, []).append(v)
        return {j: sorted(vs) for j, vs in out.items()}

    def __repr__(self) -> str:
        return "Coloring(%d vertices)" % len(self.assignment)


def _closed_star(mc: Multicomplex, v: str) -> set:
    star = {v}
    for sid in mc.simplex_ids:
        vset = mc.vertex_set(sid)
        if v in vset:
            star |= vset
    return star


def coloring_adapted(host: Multicomplex, c: Cover) -> Coloring:
    """Color each vertex by the least cover index whose member contains
    the vertex's whole closed star.

    A vertex whose closed star fits inside no member is an error naming
    that vertex: the cover is too coarse for this host.
    """
    if not host.is_simplicial_complex():
        raise StructureError("adapted colorings need a simplicial complex")
    order = c.indices()
    assignment = {}
    for v in host.vertices:
        star = _closed_star(host, v)
        for j in order:
            if star <= c.member(j):
                assignment[v] = j
                break
        else:
            raise StructureError(
                "the closed star of vertex %r (vertices %s) fits inside no "
                "cover member; the cover is too coarse for this complex"
                % (v, ",".join(sorted(star))))
    return Coloring(assignment)


class VanishingReport:
    """Outcome of the repeated-color vanishing check.

    verified: witnessed simplices on which the cochain is zero in every
    ordering.  missing_witnesses: simplices with a repeated color but no
    witness, so nothing was proved there.  unconstrained: simplices whose
    vertex colors are pairwise distinct; the mechanism says nothing about
    them.
    """

    def __init__(self, verified, missing_witnesses, unconstrained):
        self.verified = list(verified)
        self.missing_witnesses = list(missing_witnesses)
        self.unconstrained = list(unconstrained)

    @property
    def complete(self) -> bool:
        return not self.missing_witnesses

    def __repr__(self) -> str:
        return ("VanishingReport(verified=%d, missing=%d, unconstrained=%d)"
                % (len(self.verified), len(self.missing_witnesses),
                   len(self.unconstrained)))


def _repeated_pair(mc: Multicomplex, coloring: Coloring, sid: str):
    seen = {}
    for v in sorted(mc.vertex_set(sid)):
        j = coloring.of(v)
        if j in seen:
            return seen[j], v
        seen[j] = v
    return None


def check_repeated_color_vanishing(phi: Cochain, a: GroupAction,
                                   coloring: Coloring,
                                   witnesses: dict) -> VanishingReport:
    """Certify that an alternating invariant cochain vanishes on every
    witnessed simplex with a repeated color.

    A witness for a simplex s is a triple (g, v1, v2): a group element
    fixing s whose vertex map transposes v1 and v2 and fixes the other
    vertices of s.  Invariance gives phi(s, w) = phi(s, w with v1 and v2
    swapped) and alternation gives the opposite sign, so phi(s, w) = 0
    for every ordering w.  The check evaluates that conclusion exactly
    and reports repeated-color simplices that lack a witness.
    """
    mc = a.complex
    # a term off the basis is a bad input, not a cochain that fails a check
    _check_orderings(mc, phi.support(), phi.degree)
    phiq = Cochain(phi.degree, RING_RAT, dict(phi.items()))

    # alternation, checked through the projector
    alt = alternate(phiq)
    if alt != phiq:
        diff = alt - phiq
        raise StructureError(
            "the cochain is not alternating; it differs from its "
            "alternation at %s" % (diff.support()[0],))

    # invariance: a cochain equals its group average exactly when the
    # action preserves it
    avg = average_cochain(a, phiq)
    if avg != phiq:
        diff = avg - phiq
        raise StructureError(
            "the cochain is not invariant under the action; its group "
            "average differs at %s" % (diff.support()[0],))

    degree = phi.degree
    verified = []
    missing = []
    unconstrained = []
    for sid in mc.simplices_of_dimension(degree):
        pair = _repeated_pair(mc, coloring, sid)
        if pair is None:
            unconstrained.append(sid)
            continue
        if sid not in witnesses:
            missing.append(sid)
            continue
        g, v1, v2 = witnesses[sid]
        m = a.map_of(g)
        if m.apply_simplex(sid) != sid:
            raise StructureError(
                "witness %r for %r does not fix it: the simplex maps to %r"
                % (g, sid, m.apply_simplex(sid)))
        vset = mc.vertex_set(sid)
        if v1 not in vset or v2 not in vset or v1 == v2:
            raise StructureError(
                "witness for %r names %r and %r, which are not two distinct "
                "vertices of it" % (sid, v1, v2))
        if m.apply_vertex(v1) != v2 or m.apply_vertex(v2) != v1:
            raise StructureError(
                "witness %r for %r does not transpose %r and %r"
                % (g, sid, v1, v2))
        for u in vset - {v1, v2}:
            if m.apply_vertex(u) != u:
                raise StructureError(
                    "witness %r for %r moves the third vertex %r, so the "
                    "sign argument does not apply" % (g, sid, u))
        if coloring.of(v1) != coloring.of(v2):
            raise StructureError(
                "witness for %r transposes %r and %r, which have different "
                "colors %r and %r" % (sid, v1, v2, coloring.of(v1),
                                      coloring.of(v2)))
        for w in permutations(sorted(vset)):
            val = phiq.coefficient(AlgebraicSimplex(sid, w))
            if val != 0:
                raise InternalInvariantError(
                    "an alternating invariant cochain took value %s on the "
                    "witnessed simplex %r" % (val, sid))
        verified.append(sid)
    return VanishingReport(verified, missing, unconstrained)
