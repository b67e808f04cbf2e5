"""Named complexes used throughout the tests and the documentation.

Most fixtures are honest multicomplexes built through the public
constructors.  The twisted tetrahedron at the end is not: it is the
delta-complex obtained from a single 3-simplex by gluing two pairs of
its 2-faces to each other, which collapses all four vertices to one
point.  Simplices of a multicomplex must have distinct vertices, so
that object ships as a pair of raw ChainComplex values instead, with
basis elements labeled by a cell name and an ordering of the cell's
formal vertex slots.
"""

from __future__ import annotations

from itertools import permutations

from .actions import GroupAction, action_from_vertex_maps
from .chains import (RING_INT, RING_RAT, AlgebraicSimplex, Chain,
                     ChainComplex, _push_forward, project_chain)
from .core import (Multicomplex, SimplicialMap, simplicial_complex,
                   special_sphere)
from .groups import cyclic_group


def triangle_boundary() -> Multicomplex:
    """The boundary of a triangle: three vertices, three edges, a circle."""
    return simplicial_complex([("x", "y"), ("y", "z"), ("x", "z")])


def tetrahedron_boundary() -> Multicomplex:
    """The four 2-faces of a tetrahedron: a simplicial 2-sphere."""
    verts = ("w", "x", "y", "z")
    faces = [tuple(v for v in verts if v != skip) for skip in verts]
    return simplicial_complex(faces)


def double_edge() -> Multicomplex:
    """Two vertices joined by two distinct edges (a circle)."""
    return special_sphere(1, labels=("x", "y"))


def cone_over_double_edge() -> Multicomplex:
    """The simplicial cone over double_edge, with apex c.

    The two triangles tn, ts share the edges cx and cy; their third
    edges are the two base edges north and south.  The realization is a
    disc, so the base circle bounds here.
    """
    triples = [
        ("c", frozenset(["c"]), {}),
        ("x", frozenset(["x"]), {}),
        ("y", frozenset(["y"]), {}),
        ("north", frozenset(["x", "y"]),
         {frozenset(["x"]): "x", frozenset(["y"]): "y"}),
        ("south", frozenset(["x", "y"]),
         {frozenset(["x"]): "x", frozenset(["y"]): "y"}),
        ("cx", frozenset(["c", "x"]),
         {frozenset(["c"]): "c", frozenset(["x"]): "x"}),
        ("cy", frozenset(["c", "y"]),
         {frozenset(["c"]): "c", frozenset(["y"]): "y"}),
        ("tn", frozenset(["c", "x", "y"]),
         {frozenset(["x", "y"]): "north", frozenset(["c", "x"]): "cx",
          frozenset(["c", "y"]): "cy"}),
        ("ts", frozenset(["c", "x", "y"]),
         {frozenset(["x", "y"]): "south", frozenset(["c", "x"]): "cx",
          frozenset(["c", "y"]): "cy"}),
    ]
    return Multicomplex(["c", "x", "y"], triples)


def seven_vertex_torus() -> Multicomplex:
    """The minimal 7-vertex triangulation of the torus.

    Faces are the orbits of {0,1,3} and {0,2,3} under the rotation
    i -> i+1 mod 7; every one of the 21 edges lies in exactly two of
    the 14 triangles.
    """
    faces = []
    for base in ((0, 1, 3), (0, 2, 3)):
        for shift in range(7):
            faces.append(tuple(str((v + shift) % 7) for v in base))
    return simplicial_complex(faces)


# ---------------------------------------------------------------------------
# group actions on the fixtures


def double_edge_swap_action() -> GroupAction:
    """Z/2 on the double edge: swap north and south, fix both vertices."""
    mc = double_edge()
    group = cyclic_group(2, names=["e", "g"])
    ident = {v: v for v in mc.vertices}
    fix = {s: s for s in mc.simplex_ids}
    swap = dict(fix)
    swap["north"], swap["south"] = "south", "north"
    return GroupAction(group, mc, {
        "e": SimplicialMap(mc, mc, dict(ident), fix),
        "g": SimplicialMap(mc, mc, dict(ident), swap),
    })


def cone_swap_action() -> GroupAction:
    """Z/2 on the cone: swap (north, tn) with (south, ts), fix the rest."""
    mc = cone_over_double_edge()
    group = cyclic_group(2, names=["e", "g"])
    ident = {v: v for v in mc.vertices}
    fix = {s: s for s in mc.simplex_ids}
    swap = dict(fix)
    swap["north"], swap["south"] = "south", "north"
    swap["tn"], swap["ts"] = "ts", "tn"
    return GroupAction(group, mc, {
        "e": SimplicialMap(mc, mc, dict(ident), fix),
        "g": SimplicialMap(mc, mc, dict(ident), swap),
    })


def antipodal_action() -> GroupAction:
    """Z/2 on the double edge swapping the two vertices and the two edges.

    A valid free action that is not trivial on vertices: the quotient
    would need an edge with both endpoints at a single vertex, which no
    multicomplex allows, so quotient() rejects it.
    """
    mc = double_edge()
    group = cyclic_group(2, names=["e", "g"])
    vm = {"x": "y", "y": "x"}
    sm = {"x": "y", "y": "x", "north": "south", "south": "north"}
    return GroupAction(group, mc, {
        "e": SimplicialMap(mc, mc, {v: v for v in mc.vertices},
                           {s: s for s in mc.simplex_ids}),
        "g": SimplicialMap(mc, mc, vm, sm),
    })


def triangle_symmetries() -> GroupAction:
    """The full symmetric group of the solid triangle on {x, y, z}."""
    mc = simplicial_complex([("x", "y", "z")])
    perms = {
        "e": {"x": "x", "y": "y", "z": "z"},
        "xy": {"x": "y", "y": "x", "z": "z"},
        "yz": {"x": "x", "y": "z", "z": "y"},
        "xz": {"x": "z", "y": "y", "z": "x"},
        "xyz": {"x": "y", "y": "z", "z": "x"},
        "xzy": {"x": "z", "y": "x", "z": "y"},
    }
    return action_from_vertex_maps(mc, perms)


# ---------------------------------------------------------------------------
# the twisted tetrahedron
#
# One 3-cell D with formal vertex slots d0..d3.  The face missing d0 is
# glued to the face missing d1 (d1->p1, d2->p2, d3->p0 against d0->p0,
# d2->p1, d3->p2), and the face missing d2 is glued to the face missing
# d3; the common images are the 2-cells P and Q.  Chasing the gluings
# down one dimension leaves two edge cells a, b and a single vertex u.

_SLOTS = {
    "u": ("u",),
    "a": ("a0", "a1"),
    "b": ("b0", "b1"),
    "P": ("p0", "p1", "p2"),
    "Q": ("q0", "q1", "q2"),
    "D": ("d0", "d1", "d2", "d3"),
}

_CELL_DIM = {cell: len(slots) - 1 for cell, slots in _SLOTS.items()}

_CELL_ORDER = ("u", "a", "b", "P", "Q", "D")

# (cell, slot not covered by the face) -> (facet cell, slot renaming)
_GLUE = {
    ("a", "a0"): ("u", {"a1": "u"}),
    ("a", "a1"): ("u", {"a0": "u"}),
    ("b", "b0"): ("u", {"b1": "u"}),
    ("b", "b1"): ("u", {"b0": "u"}),
    ("P", "p0"): ("a", {"p1": "a1", "p2": "a0"}),
    ("P", "p1"): ("a", {"p0": "a0", "p2": "a1"}),
    ("P", "p2"): ("b", {"p0": "b0", "p1": "b1"}),
    ("Q", "q0"): ("a", {"q1": "a1", "q2": "a0"}),
    ("Q", "q1"): ("b", {"q0": "b0", "q2": "b1"}),
    ("Q", "q2"): ("a", {"q0": "a1", "q1": "a0"}),
    ("D", "d0"): ("P", {"d1": "p1", "d2": "p2", "d3": "p0"}),
    ("D", "d1"): ("P", {"d0": "p0", "d2": "p1", "d3": "p2"}),
    ("D", "d2"): ("Q", {"d0": "q1", "d1": "q2", "d3": "q0"}),
    ("D", "d3"): ("Q", {"d0": "q0", "d1": "q1", "d2": "q2"}),
}


def _twisted_face(cell: str, tup: tuple, i: int) -> AlgebraicSimplex:
    # tup is a permutation of the cell's slots, so dropping position i
    # loses exactly the slot tup[i] and lands in the glued facet cell
    target, renaming = _GLUE[(cell, tup[i])]
    rest = tup[:i] + tup[i + 1:]
    return AlgebraicSimplex(target, tuple(renaming[s] for s in rest))


def twisted_tetrahedron_full() -> ChainComplex:
    """Ordered chains of the twisted tetrahedron.

    Degree-n basis: every n-cell together with every ordering of its
    slots (dimensions 1, 4, 12, 24 in degrees 0..3; nothing in degree
    4, the complex has no 4-cells).  The boundary drops one tuple entry
    at a time and pushes the result through the gluing.
    """
    basis = {n: [] for n in range(4)}
    for cell in _CELL_ORDER:
        n = _CELL_DIM[cell]
        for tup in permutations(_SLOTS[cell]):
            basis[n].append(AlgebraicSimplex(cell, tup))
    columns = {n: [[] for _ in basis[n]] for n in basis}
    for n in range(1, 4):
        index = {lab: i for i, lab in enumerate(basis[n - 1])}
        cols = []
        for lab in basis[n]:
            faces = [(-1 if i & 1 else 1,
                      index[_twisted_face(lab.simplex, lab.vertices, i)])
                     for i in range(n + 1)]
            cols.append(sorted(_push_forward([(lab, 1)],
                                              lambda _: faces).items()))
        columns[n] = cols
    return ChainComplex(basis, columns)


def twisted_tetrahedron_reduced() -> ChainComplex:
    """One generator per cell; the boundary is project . full boundary.

    The resulting matrices are tiny: d[P] = -2[a] + [b],
    d[Q] = -2[a] - [b], and [a], [b], [D] are cycles.  Integral
    homology: Z, Z/4, 0, Z in degrees 0..3.
    """
    full = twisted_tetrahedron_full()
    basis = {n: [] for n in range(4)}
    for cell in _CELL_ORDER:
        basis[_CELL_DIM[cell]].append(AlgebraicSimplex(cell, _SLOTS[cell]))
    columns = {0: [[] for _ in basis[0]]}
    for n in range(1, 4):
        index = {lab: i for i, lab in enumerate(basis[n - 1])}
        cols = []
        for lab in basis[n]:
            probe = full.chain(n, {lab: 1}, RING_INT)
            image = project_chain(full.boundary_of(probe))
            cols.append(sorted((index[k], int(v)) for k, v in image.items()))
        columns[n] = cols
    return ChainComplex(basis, columns)


def twisted_tetrahedron_top_class(ring=RING_RAT) -> Chain:
    """The canonical reduced 3-cycle [D], a generator of degree-3 homology."""
    return Chain(3, ring, {AlgebraicSimplex("D", _SLOTS["D"]): 1})


def twisted_tetrahedron_minimal_cycle(ring=RING_INT) -> Chain:
    """A norm-3 integral cycle in the full complex projecting to +[D].

    No ordering of D alone is a cycle (its two P-faces never cancel),
    and the projection of a cycle is congruent to its l1-norm mod 2, so
    3 is the least possible integral norm; an exhaustive search over
    all combinations of norm at most 3 confirms the bound is attained.
    By contrast the reduced class [D] has norm 1, and the alternation
    of any single D-ordering is a rational norm-1 cycle here.
    """
    return Chain(3, ring, {
        AlgebraicSimplex("D", ("d1", "d2", "d3", "d0")): 1,
        AlgebraicSimplex("D", ("d1", "d3", "d2", "d0")): 1,
        AlgebraicSimplex("D", ("d2", "d1", "d0", "d3")): -1,
    })
