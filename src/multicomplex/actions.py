"""Finite group actions on multicomplexes.

An action is a finite group together with one simplicial automorphism per
element.  This module validates actions on generators and lists the
axioms they break (every command validates an action where it enters
and refuses a nonempty list, so the rest assume a valid one), forms
quotients by actions that fix every vertex, lists the orbits of
algebraic simplices as sorted tuples, pushes chains forward along
elements on the fraction-free push-forward of chains, and averages
chains and cochains over the group as orbit means (the finite instance
of invariant means).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

# build_reduced_chain_complex is unused, but perfbench/layers.py patches
# actions.build_reduced_chain_complex
from .chains import (AlgebraicSimplex, Chain, Cochain, RING_RAT,
                     _limit_orderings, _push_forward,
                     build_reduced_chain_complex)
from .core import (Multicomplex, SimplicialMap, StructureError,
                   UnknownIdError)
from .groups import FiniteGroup, _composition_failures, generating_set


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
    return _moved(a.map_of(g), key)


def _moved(m: SimplicialMap, key: AlgebraicSimplex) -> AlgebraicSimplex:
    return AlgebraicSimplex(m.apply_simplex(key.simplex),
                            tuple(map(m.apply_vertex, key.vertices)))


def act_on_chain(a: GroupAction, g, chain: Chain) -> Chain:
    """Linear extension of the action to chains; commutes with boundary."""
    m = a.map_of(g)
    return Chain._of_numerators(chain.degree, chain.ring, _push_forward(
        sorted(chain._num.items()), lambda key: ((1, _moved(m, key)),)),
        chain._den)


def validate_action(a: GroupAction) -> list[str]:
    """Check every action axiom and list the violations; an empty list
    means the action is valid.

    The table must be a group, every map total, and the map of every
    generator (generating_set) a simplicial bijection.  Then rho(g*s) =
    rho(g) o rho(s) on the vertices and the simplex ids, for every
    element g and generator s (groups._composition_failures), makes rho
    a homomorphism: every map is a composite of the generators' maps, so
    a simplicial bijection, and rho(e), an idempotent bijection, is id.
    """
    group, mc = a.group, a.complex
    problems = ["group table: " + p for p in group.validate()]
    gens = generating_set(group)
    for g in group.elements:
        m = a.map_of(g)
        # a map holds known ids only, so its size tells if it is total;
        # a partial map reports where it is undefined
        if g in gens or (len(m.vertex_map), len(m.simplex_map)) != (
                len(mc.vertices), len(mc.simplex_ids)):
            problems.extend("map of %r: %s" % (g, p) for p in m.validate())
        if g in gens and (set(m.vertex_map.values()) != set(mc.vertices) or
                          set(m.simplex_map.values()) != set(mc.simplex_ids)):
            problems.append(
                "map of %r is not an automorphism (vertex or simplex map "
                "is not a bijection)" % (g,))
    # composition is checked on a group and total maps; the generators'
    # maps, being bijections, carry the points into themselves
    if problems:
        return problems
    for kind, points in (("vertex", mc.vertices), ("simplex", mc.simplex_ids)):
        maps = {g: getattr(a.map_of(g), kind + "_map")
                for g in group.elements}
        problems.extend(
            "homomorphism fails on %s %r: (%r*%r) and %r after %r disagree"
            % (kind, x, g, s, g, s)
            for g, s, x in _composition_failures(group, maps, points, gens))
    return problems


def _moved_vertex(a: GroupAction):
    """The first (element, vertex, image) that moves a vertex, or None."""
    return next(((g, v, w) for g in a.group.elements
                 for v in a.complex.vertices
                 for w in [a.map_of(g).apply_vertex(v)] if w != v), None)


def quotient(a: GroupAction):
    """The quotient multicomplex of a vertex-fixing action, with the
    projection map.

    Simplices of the quotient are the orbits, named by their minimum
    member id; the facet of an orbit over a subset is the orbit of any
    member's facet, the same for every member of an action that passes
    validate_action, as every command that takes an action checks.
    """
    moved = _moved_vertex(a)
    if moved:
        raise StructureError(
            "cannot form the quotient: element %r moves vertex %r to %r, "
            "so the action is not trivial on vertices.  Identifying "
            "distinct vertices can force a simplex onto a repeated vertex "
            "(an edge whose endpoints merge), which no multicomplex admits; "
            "quotients are therefore only formed for vertex-fixing actions."
            % moved)
    orbit_id = {}
    for sid in a.complex.simplex_ids:
        if sid not in orbit_id:
            orb = {a.map_of(g).apply_simplex(sid) for g in a.group.elements}
            orbit_id.update(dict.fromkeys(orb, min(orb)))
    triples = [(rep, a.complex.vertex_set(rep),
                {b: orbit_id[fid] for b, fid in a.complex.facets(rep).items()})
               for rep in sorted(set(orbit_id.values()))]
    quot = Multicomplex(a.complex.vertices, triples)
    projection = SimplicialMap(
        a.complex, quot, {v: v for v in a.complex.vertices},
        {sid: orbit_id[sid] for sid in a.complex.simplex_ids})
    return quot, projection


def _partition(a: GroupAction, keys) -> tuple:
    """The orbits of the keys, each found from the first of its members
    in the order given, as sorted tuples in order of least member."""
    seen = set()
    orbs = []
    for key in keys:
        if key in seen:
            continue
        orb = {act_on_simplex(a, g, key) for g in a.group.elements}
        seen |= orb
        orbs.append(tuple(sorted(orb)))
    orbs.sort()
    placed = set()
    for orb in orbs:
        for key in orb:
            if key in placed:
                raise StructureError("orbits overlap at %s" % (key,))
            placed.add(key)
    return tuple(orbs)


def orbits(a: GroupAction, k: int) -> tuple:
    """The orbits of all degree-k algebraic simplices, as sorted tuples
    in order of least member.  More than MAX_ORDERINGS of them raise
    StructureError before any is listed."""
    mc = a.complex
    sids = sorted(mc.simplices_of_dimension(k))
    _limit_orderings("the orbits of %d simplex(es)", len(sids), k)
    return _partition(a, (
        AlgebraicSimplex(sid, tup) for sid in sids
        for tup in permutations(mc.sorted_vertices(sid))))


def _check_orderings(mc: Multicomplex, keys, degree: int) -> None:
    """Raise UnknownIdError at the first key that is not an ordering of
    its simplex's vertices."""
    for key in keys:
        if key.simplex not in mc or \
                sorted(key.vertices) != list(mc.sorted_vertices(key.simplex)):
            raise UnknownIdError("%s is not a degree-%d basis element"
                                 % (key, degree))


def _orbit_totals(a: GroupAction, x: Chain | Cochain) -> list:
    """[(orbit, total of x over it)] for the orbits meeting the support of
    x, by least member; each key must order its simplex's vertices."""
    keys = x.support()
    _check_orderings(a.complex, keys, x.degree)
    return [(orb, sum(map(x.coefficient, orb)))
            for orb in _partition(a, keys)]


def average_cochain(a: GroupAction, x: Chain | Cochain) -> Chain | Cochain:
    """The group average (1/|G|) sum_g g.x of a chain or a cochain, over Q.

    For a cochain it is A(phi)(y) = (1/|G|) sum_g phi(g^{-1} y).  It is
    invariant, norm non-increasing, and the identity on what was already
    invariant.  Each member of an orbit is g.key for |G|/|orbit| elements
    g, so it gets the total of x over the orbit divided by the orbit size.
    Every key must be an ordering of its simplex's vertices.
    """
    return type(x)(x.degree, RING_RAT, {
        key: Fraction(total, len(orb))
        for orb, total in _orbit_totals(a, x) if total for key in orb})


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
