"""Finite group actions on multicomplexes.

An action is a finite group together with one simplicial automorphism per
element.  This module validates actions, forms quotients by actions that
fix every vertex, enumerates orbits of algebraic simplices, pushes chains
forward along elements, and averages chains and cochains over the group
(the finite instance of invariant means: the mean of finitely many values
is their average), summing int numerators over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm

from . import intlinalg
from .chains import (AlgebraicSimplex, Chain, Cochain, RING_RAT,
                     build_reduced_chain_complex)
from .core import (Multicomplex, SimplicialMap, StructureError,
                   UnknownIdError)
from .groups import FiniteGroup


class ValidationReport:
    """A flat list of human-readable problems; empty means valid.

    notes record scope caveats (for instance checks that only ran on an
    enumerated range) without affecting validity.
    """

    def __init__(self, problems, notes=()):
        self.problems = tuple(problems)
        self.notes = tuple(notes)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%d problems)" % len(self.problems)


class GroupAction:
    """A finite group acting on a multicomplex through simplicial maps.

    maps assigns a SimplicialMap (endomorphism of the complex) to every
    group element.  The constructor enforces referential integrity; the
    action axioms (homomorphism, automorphisms) are checked by
    validate_action so that broken fixtures can be reported.
    """

    def __init__(self, group: FiniteGroup, complex: Multicomplex, maps):
        self.group = group
        self.complex = complex
        self._maps = dict(maps)
        for g in self._maps:
            if g not in group:
                raise UnknownIdError("map given for unknown element %r" % (g,))
        for g in group.elements:
            m = self._maps.get(g)
            if m is None:
                raise StructureError("no simplicial map for element %r" % (g,))
            if not isinstance(m, SimplicialMap):
                raise StructureError(
                    "the entry for %r is not a SimplicialMap" % (g,))
            if (m.source is not complex and m.source != complex) or \
               (m.target is not complex and m.target != complex):
                raise StructureError(
                    "the map for %r is not an endomorphism of the complex"
                    % (g,))

    def map_of(self, g) -> SimplicialMap:
        try:
            return self._maps[g]
        except KeyError:
            raise UnknownIdError("unknown group element %r" % (g,)) from None

    def __repr__(self) -> str:
        return "GroupAction(%d elements on %r)" % (
            len(self.group), self.complex)


def act_on_simplex(a: GroupAction, g, key) -> AlgebraicSimplex:
    """g applied to an algebraic simplex: both the simplex id and the
    vertex ordering move."""
    if not isinstance(key, AlgebraicSimplex):
        key = AlgebraicSimplex(key[0], tuple(key[1]))
    m = a.map_of(g)
    return AlgebraicSimplex(m.apply_simplex(key.simplex),
                            tuple(m.apply_vertex(v) for v in key.vertices))


def act_on_chain(a: GroupAction, g, chain: Chain) -> Chain:
    """Linear extension of the action to chains; commutes with boundary."""
    return Chain(chain.degree, chain.ring,
                 {act_on_simplex(a, g, key): val for key, val in chain.items()})


def validate_action(a: GroupAction) -> ValidationReport:
    """Check every action axiom and collect the violations.

    Covers the group laws of the table, simpliciality of every map,
    bijectivity (automorphism), and the homomorphism property
    rho(g*h) = rho(g) o rho(h) on vertices and simplices.
    """
    problems = ["group table: " + p for p in a.group.validate()]
    verts = set(a.complex.vertices)
    sids = set(a.complex.simplex_ids)
    bijective = {}
    for g in a.group.elements:
        m = a.map_of(g)
        for p in m.validate():
            problems.append("map of %r: %s" % (g, p))
        vimg = set(m.vertex_map.get(v) for v in verts)
        simg = set(m.simplex_map.get(s) for s in sids)
        bijective[g] = (vimg == verts and simg == sids)
        if not bijective[g]:
            problems.append(
                "map of %r is not an automorphism (vertex or simplex map "
                "is not a bijection)" % (g,))
    # homomorphism: only meaningful where the individual maps are total
    for g in a.group.elements:
        mg = a.map_of(g)
        for h in a.group.elements:
            mh = a.map_of(h)
            mgh = a.map_of(a.group.multiply(g, h))
            try:
                for v in a.complex.vertices:
                    if mgh.apply_vertex(v) != mg.apply_vertex(
                            mh.apply_vertex(v)):
                        problems.append(
                            "homomorphism fails on vertex %r: "
                            "(%r*%r) and %r after %r disagree" % (v, g, h, g, h))
                        break
                for s in a.complex.simplex_ids:
                    if mgh.apply_simplex(s) != mg.apply_simplex(
                            mh.apply_simplex(s)):
                        problems.append(
                            "homomorphism fails on simplex %r: "
                            "(%r*%r) and %r after %r disagree" % (s, g, h, g, h))
                        break
            except UnknownIdError:
                pass  # partial maps were already reported above
    return ValidationReport(problems)


def is_zero_trivial(a: GroupAction) -> bool:
    """True when every element fixes every vertex."""
    return all(a.map_of(g).apply_vertex(v) == v
               for g in a.group.elements for v in a.complex.vertices)


def quotient(a: GroupAction):
    """The quotient multicomplex of a vertex-fixing action, with the
    projection map.

    Simplices of the quotient are the orbits, named by their minimum
    member id; the facet of an orbit over a subset is the orbit of any
    member's facet (the maps being simplicial makes this independent of
    the member, which is re-checked here).
    """
    for g in a.group.elements:
        m = a.map_of(g)
        for v in a.complex.vertices:
            w = m.apply_vertex(v)
            if w != v:
                raise StructureError(
                    "cannot form the quotient: element %r moves vertex %r "
                    "to %r, so the action is not trivial on vertices.  "
                    "Identifying distinct vertices can force a simplex onto "
                    "a repeated vertex (an edge whose endpoints merge), "
                    "which no multicomplex admits; quotients are therefore "
                    "only formed for vertex-fixing actions." % (g, v, w))
    orbit_id = {}
    members = {}
    for sid in a.complex.simplex_ids:
        if sid in orbit_id:
            continue
        orb = sorted({a.map_of(g).apply_simplex(sid)
                      for g in a.group.elements})
        rep = orb[0]
        for t in orb:
            orbit_id[t] = rep
        members[rep] = orb
    triples = []
    for rep, orb in sorted(members.items()):
        vset = a.complex.vertex_set(rep)
        facets = {b: orbit_id[fid]
                  for b, fid in a.complex.facets(rep).items()}
        for other in orb[1:]:
            got = {b: orbit_id[fid]
                   for b, fid in a.complex.facets(other).items()}
            if got != facets:
                raise StructureError(
                    "orbit members %r and %r disagree on facet orbits; "
                    "the maps do not act simplicially (run validate_action)"
                    % (rep, other))
        triples.append((rep, vset, facets))
    quot = Multicomplex(a.complex.vertices, triples)
    projection = SimplicialMap(
        a.complex, quot, {v: v for v in a.complex.vertices},
        {sid: orbit_id[sid] for sid in a.complex.simplex_ids})
    return quot, projection


class OrbitPartition:
    """Orbits of the degree-k algebraic simplices under an action.

    Orbits are stored as sorted tuples and listed in order of their least
    member, so the partition is deterministic.
    """

    def __init__(self, dimension: int, orbits):
        self.dimension = dimension
        self.orbits = tuple(sorted(tuple(sorted(o)) for o in orbits))
        self._where = {}
        for i, orb in enumerate(self.orbits):
            for key in orb:
                if key in self._where:
                    raise StructureError(
                        "orbits overlap at %s" % (key,))
                self._where[key] = i

    def __len__(self) -> int:
        return len(self.orbits)

    def __iter__(self):
        return iter(self.orbits)

    def index_of(self, key) -> int:
        if not isinstance(key, AlgebraicSimplex):
            key = AlgebraicSimplex(key[0], tuple(key[1]))
        try:
            return self._where[key]
        except KeyError:
            raise UnknownIdError(
                "%s lies in no orbit of this partition" % (key,)) from None

    def orbit_of(self, key) -> tuple:
        return self.orbits[self.index_of(key)]

    def __repr__(self) -> str:
        return "OrbitPartition(k=%d, %d orbits)" % (
            self.dimension, len(self.orbits))


def _partition(a: GroupAction, k: int, keys) -> OrbitPartition:
    """The orbits of the degree-k keys, each found from the first of its
    members in the order given."""
    seen = set()
    orbs = []
    for key in keys:
        if key in seen:
            continue
        orb = {act_on_simplex(a, g, key) for g in a.group.elements}
        seen |= orb
        orbs.append(orb)
    return OrbitPartition(k, orbs)


def orbits(a: GroupAction, k: int) -> OrbitPartition:
    """Partition all degree-k algebraic simplices into orbits."""
    mc = a.complex
    return _partition(a, k, (
        AlgebraicSimplex(sid, tup)
        for sid in sorted(mc.simplices_of_dimension(k))
        for tup in permutations(sorted(mc.vertex_set(sid)))))


def average_cochain(a: GroupAction, x: Chain | Cochain) -> Chain | Cochain:
    """The group average (1/|G|) sum_g g.x of a chain or a cochain, over Q.

    For a cochain it is A(phi)(y) = (1/|G|) sum_g phi(g^{-1} y).  It is
    invariant, norm non-increasing, and the identity on what was already
    invariant.  Sums run on int numerators over the lcm of the input
    denominators.  Every key must be an ordering of its simplex's vertices.
    """
    mc = a.complex
    terms = x.items()
    for key, _ in terms:
        if key.simplex not in mc or \
                sorted(key.vertices) != sorted(mc.vertex_set(key.simplex)):
            raise UnknownIdError("%s is not a degree-%d basis element"
                                 % (key, x.degree))
    den = lcm(*(v.denominator for _, v in terms))
    nums = [(key, v.numerator * (den // v.denominator)) for key, v in terms]
    acc = {}
    for g in a.group.elements:
        m = a.map_of(g)
        for key, n in nums:
            image = AlgebraicSimplex(m.apply_simplex(key.simplex),
                                     tuple(map(m.apply_vertex, key.vertices)))
            acc[image] = acc.get(image, 0) + n
    den *= len(a.group)
    return type(x)(x.degree, RING_RAT,
                   {key: Fraction(n, den) for key, n in acc.items() if n})


def invariant_cochain_cohomology(a: GroupAction, max_degree=None) -> dict:
    """Dimensions of the cohomology of the invariant rational cochains.

    Works on the reduced model of a vertex-fixing action, where the group
    permutes the basis and the invariant cochains are spanned by orbit
    indicators; returns {degree: dimension}.  This is computed directly by
    rank-nullity on the restricted coboundary matrices, whose rational
    rank is their Smith-form rank, independently of any quotient complex.
    """
    if not is_zero_trivial(a):
        raise StructureError(
            "invariant cochain cohomology is implemented for vertex-fixing "
            "actions only (the reduced basis is not permuted otherwise)")
    mc = a.complex
    top = mc.dimension
    cc = build_reduced_chain_complex(mc, ring=RING_RAT)
    parts = {n: _partition(a, n, cc.basis(n)) for n in range(0, top + 1)}
    ranks = {-1: 0}
    for n in range(0, top + 1):
        if n + 1 > top:
            ranks[n] = 0
            continue
        labs_below = cc.basis(n)
        # value of every orbit indicator's coboundary on each (n+1)-simplex
        per_simplex = []
        for j, tau in enumerate(cc.basis(n + 1)):
            row = [0] * len(parts[n])
            for i, coef in cc.column(n + 1, j):
                row[parts[n].index_of(labs_below[i])] += coef
            per_simplex.append(row)
        # invariance makes the value constant along each (n+1)-orbit
        mat = [None] * len(parts[n + 1])
        for j, tau in enumerate(cc.basis(n + 1)):
            oi = parts[n + 1].index_of(tau)
            if mat[oi] is None:
                mat[oi] = per_simplex[j]
            elif mat[oi] != per_simplex[j]:
                raise StructureError(
                    "coboundary of an invariant cochain is not constant on "
                    "the orbit of %s; the maps do not act simplicially "
                    "(run validate_action)" % (tau,))
        ranks[n] = intlinalg.smith_form(mat).rank if mat else 0
    dims = {}
    for n in range(0, top + 1):
        dims[n] = (len(parts[n]) - ranks[n]) - ranks[n - 1]
    if max_degree is not None:
        dims = {n: d for n, d in dims.items() if n <= max_degree}
    return dims


def trivial_action(mc: Multicomplex, group: FiniteGroup = None) -> GroupAction:
    """Every element acts as the identity (default group: one element)."""
    from .groups import cyclic_group
    if group is None:
        group = cyclic_group(1, names=["e"])
    ident_v = {v: v for v in mc.vertices}
    ident_s = {s: s for s in mc.simplex_ids}
    maps = {g: SimplicialMap(mc, mc, dict(ident_v), dict(ident_s))
            for g in group.elements}
    return GroupAction(group, mc, maps)


def action_from_vertex_maps(mc: Multicomplex, vertex_maps: dict) -> GroupAction:
    """Build an action on a simplicial complex from complete vertex data.

    vertex_maps names every group element and gives its vertex
    permutation.  The composition table is recovered by composing the
    permutations (so they must be pairwise distinct), and the simplex maps
    are induced, which is possible exactly because a simplicial complex
    carries one simplex per vertex set.
    """
    if not mc.is_simplicial_complex():
        raise StructureError(
            "vertex data only determines simplex maps on a simplicial "
            "complex; this multicomplex has parallel simplices")
    verts = set(mc.vertices)
    perms = {}
    for g, vmap in vertex_maps.items():
        vmap = dict(vmap)
        if set(vmap) != verts or set(vmap.values()) != verts:
            raise StructureError(
                "the vertex map of %r is not a permutation of the vertices"
                % (g,))
        perms[g] = vmap
    by_shape = {}
    for g, vmap in perms.items():
        shape = tuple(sorted(vmap.items()))
        if shape in by_shape:
            raise StructureError(
                "elements %r and %r share the same vertex map, so products "
                "cannot be resolved" % (by_shape[shape], g))
        by_shape[shape] = g
    table = {}
    for g, pg in perms.items():
        table[g] = {}
        for h, ph in perms.items():
            shape = tuple(sorted((v, pg[ph[v]]) for v in verts))
            gh = by_shape.get(shape)
            if gh is None:
                raise StructureError(
                    "the vertex maps are not closed under composition: "
                    "%r * %r is missing" % (g, h))
            table[g][h] = gh
    group = FiniteGroup(list(perms), table)
    maps = {}
    for g, vmap in perms.items():
        smap = {}
        for sid in mc.simplex_ids:
            image = frozenset(vmap[v] for v in mc.vertex_set(sid))
            cands = mc.simplices_over(image)
            if len(cands) != 1:
                raise StructureError(
                    "the vertex map of %r does not preserve the complex: "
                    "the image of %r spans {%s}, which carries no simplex"
                    % (g, sid, ",".join(sorted(image))))
            smap[sid] = cands[0]
        maps[g] = SimplicialMap(mc, mc, vmap, smap)
    return GroupAction(group, mc, maps)
