"""Test-only references the program's code is checked against.

smith_form is the dense Smith normal form the program ran before its
elimination moved to sparse rows.  It makes the same pivots and the same
elementary operations in the same order, so the sparse version must
return the same d and rank, and factors that densify (see dense_factors)
to the same U, Uinv, V and Vinv.

homology_data is HomologyResult._data as it was on the dense
factorization, fed by this smith_form; the program's structure and
generators must equal it.

boundary_matrix is ChainComplex.boundary_matrix as it was when it built
a dense rows x cols list from the complex's columns; dense turns the
sparse rows the program now returns into that form.  rational_rank is
the rank by intlinalg.rational_rref, which eliminates over Q
independently of the Smith form.  boundary_squares_to_zero checks
that each boundary map composes with the next to zero, on the columns
a complex holds.

invariant_cochain_cohomology gives the dimensions of the cohomology of
the invariant rational cochains of a vertex-fixing action, by
rank-nullity on the coboundaries of the orbit indicators of the reduced
complex, with ranks from rational_rank.  It never forms the quotient,
so the Betti numbers of the program's quotient must equal it.

validate is Multicomplex.validate as it was before each facet was read
once per simplex: it finds every face by a frozenset difference, on
records it rebuilds from the accessors vertex_set, facets and
simplices_over.  The program's validate must return the same problems in
the same order.

map_problems is SimplicialMap.validate without its shared reads: it
maps every facet's vertex set through a missing-list (vertex_image) and
looks the image facet up in the facet map of the image simplex.  A
simplex whose facets it reads, and that validate finds a fault in,
raises the first fault validate lists against it, as the builders do.
The program's validate must return the same problems in the same order,
or raise the same exception with the same message.

repeat_complex is the complex the full builder made with repeated-vertex
tuples, built directly: degree n holds every (n+1)-tuple that covers the
vertices of a simplex.  Its class seminorms agree with the reduced ones.

identity_matrix, matmul and mat_vec are the dense products the tests
check factorizations and solutions with.

translate is the translation oracle of a set-action document as it was
before it kept the points it had parsed; the program's oracle must move
every point the same way.

average_cochain is the group average as it was before it became the
orbit mean: it adds one Fraction per element and term.
toy_vanish_average is the averaging loop toy_vanish ran before it called
average_cochain, on the alternation c, its bounding chain and the
witnesses.  The program's average and certificate must equal them.
class_witnesses is the witness loop toy_vanish ran before it solved on
generators only: one is_boundary per element.  Where a witness is
unique the program's must equal it, and a class that an element does
not keep must be rejected with the same message and flip witness.
first_orbit_total is the orbit check toy_vanish ran before it summed c
over only the orbits that meet its support: it lists every orbit by
actions.orbits and sums c over each.  toy_vanish must reject the same
orbit with the same total.

solve is exactlp.solve as it was before its tableau moved to sparse
columns: it updates every row of a dense [M | D*x ; D*y | D*c*x] on
every pivot.  The sparse solver makes the same pivots, so it must return
the same basis, x, y and value, and raise the same SimplexFailure.

group_problems, validate_action and composition_problems are the
exhaustive checks of the group and action axioms the program ran before
it checked them on a generating set: group_problems is
FiniteGroup.validate with associativity on all |G|^3 triples,
validate_action checks every map (by map_problems) and the
homomorphism on all |G|^2 pairs, and composition_problems checks a
finite set action on every triple (g, h, x).  On any table action the
program's validators must find a problem exactly when these do.

multicomplex_from_doc and MulticomplexBuilt are the decoder and the
Multicomplex constructor as they were before the constructor became the
one place ids are checked and facet maps copied: the decoder checks
every id with a generator and copies every facet map, and the
constructor checks one vertex at a time and copies each facet map
again, into one record per simplex keyed by frozensets.  On any
document the program must build the same complex, as its vertices,
simplex_ids, vertex_set, facets and simplices_over read, or raise the
same exception with the same message.  multicomplex_to_doc is the
writer as it was on those records: it joins the sorted vertices of each
facet key.  The program's writer must give the same document.

SparseFunction is diffusion.SparseFunction as it was when it kept one
reduced Fraction per point.  On any values the program's function must
give the same values, items, support, repr, norms and sums, and
arithmetic, restriction and equality must agree.  measure_to_doc and
function_to_doc are the writers as they were on those Fractions: they
format one Fraction per point (or per distinct weight) and key each atom
by group.element_key, which coerces it again.  The program's writers
must give the same canonical text.

_SparseModule, Chain and Cochain are the chains and cochains as they
were when each kept a dict of reduced values (ints over Z, Fractions
over Q) and the constructor summed and checked every term.  On any
terms the program's stores must give the same items, support, repr,
norms, pairings and arithmetic; boundary, alternate, act_on_chain and
convolve must give what these build from the same terms.

simplicial_complex is core.simplicial_complex as it was when it listed
every subset of every face it was handed.  The program must build an
equal complex from any family of faces.

validate_action_on_set is diffusion.validate_action_on_set as it was
before it read a move table only at the points the table names: every
block's subgroup is checked on every enumerated point, and carried over
every point of every block.  On any set action the program must report
the same problems, or raise the same exception with the same message.
"""

import math
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product

from multicomplex.actions import (GroupAction, act_on_chain, act_on_simplex,
                                  orbits)
from multicomplex import chains
from multicomplex.chains import (RING_RAT, AlgebraicSimplex, _check_ring,
                                 _coerce)
from multicomplex.core import (Multicomplex, StructureError, UnknownIdError,
                               _fmt_vset, _Memo)
from multicomplex.diffusion import (SAMPLE_SEED, ActionOnSet, DiffusionError,
                                    _transporters)
from multicomplex.exactlp import LPResult, SimplexFailure
from multicomplex.formats import (SCHEMA_VERSION, FormatError, _need,
                                  group_to_doc, rational_str)
from multicomplex.groups import _composition_failures, generating_set
from multicomplex.intlinalg import rational_rref


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list], b: list[list]) -> list[list]:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    assert all(len(row) == k for row in a) or not a
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def mat_vec(a: list[list], v: list) -> list:
    return [sum(c * x for c, x in zip(row, v) if c != 0) for row in a]


def dense(rows: list[dict], cols: int) -> list[list]:
    """Sparse rows {column: coefficient} as a dense list of rows."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def boundary_matrix(cc, n) -> list[list[int]]:
    """Dense integer matrix of the boundary from degree n to n-1."""
    rows = cc.dim(n - 1)
    cols = cc.dim(n)
    mat = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for row, coef in cc.column(n, j):
            mat[row][j] += coef
    return mat


def rational_rank(a) -> int:
    return len(rational_rref(a)[1])


def repeat_complex(mc: Multicomplex, top: int) -> chains.ChainComplex:
    """The chain complex of mc in degrees 0..top on the (sid; t) for t an
    (n+1)-tuple over the vertices of sid that names each of them.  Face
    i drops t[i]: it stays on sid when t[i] occurs again in t, and
    otherwise lies on the facet of sid over the rest; equal faces add
    up."""
    basis, columns, index = {}, {}, {}
    for n in range(top + 1):
        labels, cols = [], []
        for sid in sorted(mc.simplex_ids):
            vs = sorted(mc.vertex_set(sid))
            for t in product(vs, repeat=n + 1):
                if set(t) != set(vs):
                    continue
                labels.append(AlgebraicSimplex(sid, t))
                col = {}
                for i in range(n + 1 if n else 0):
                    rest = t[:i] + t[i + 1:]
                    fid = (sid if t[i] in rest
                           else mc.facets(sid)[frozenset(rest)])
                    row = index[AlgebraicSimplex(fid, rest)]
                    col[row] = col.get(row, 0) + (-1) ** i
                cols.append([(row, c) for row, c in col.items() if c])
        basis[n], columns[n] = labels, cols
        index = {lab: i for i, lab in enumerate(labels)}
    return chains.ChainComplex(basis, columns)


def boundary_squares_to_zero(cc) -> bool:
    for n in cc.degrees():
        for j in range(cc.dim(n)):
            acc = {}
            for row, coef in cc.column(n, j):
                for row2, coef2 in cc.column(n - 1, row):
                    acc[row2] = acc.get(row2, 0) + coef * coef2
            if any(acc.values()):
                return False
    return True


def invariant_cochain_cohomology(a: GroupAction) -> dict:
    """{n: dimension of H^n of the invariant rational cochains}."""
    cc = chains.build_reduced_chain_complex(a.complex)
    top = a.complex.dimension
    # orbit[n, label]: the index in degree n of the orbit of label; the
    # action fixes every vertex, so it moves sorted labels to sorted ones
    orbit, count = {}, {}
    for n in range(top + 1):
        count[n] = 0
        for lab in cc.basis(n):
            if (n, lab) not in orbit:
                for g in a.group.elements:
                    orbit[n, act_on_simplex(a, g, lab)] = count[n]
                count[n] += 1
    # the coboundary of each degree-n orbit indicator, at every
    # (n+1)-simplex; repeated rows leave its rank as it is
    rank = {-1: 0, top: 0}
    for n in range(top):
        mat = []
        for j in range(cc.dim(n + 1)):
            row = [0] * count[n]
            for i, coef in cc.column(n + 1, j):
                row[orbit[n, cc.basis(n)[i]]] += coef
            mat.append(row)
        rank[n] = rational_rank(mat)
    return {n: count[n] - rank[n] - rank[n - 1] for n in range(top + 1)}


def dense_factors(sf) -> tuple:
    """(U, Uinv, V, Vinv) of a sparse SmithForm as dense lists of rows."""
    def rows(sparse, width):
        out = []
        for row in sparse:
            dense = [0] * width
            for k, x in row.items():
                dense[k] = x
            out.append(dense)
        return out

    def cols(sparse, height):
        out = [[0] * len(sparse) for _ in range(height)]
        for j, col in enumerate(sparse):
            for i, x in col.items():
                out[i][j] = x
        return out

    return (rows(sf.U_rows, sf.rows), cols(sf.Uinv_cols, sf.rows),
            cols(sf.V_cols, sf.cols), rows(sf.Vinv_rows, sf.cols))


class SmithForm:
    """Dense U * A * V = D, with A = Uinv * D * Vinv, as lists of rows."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.d: list[int] = []
        self.rank = 0
        self.U = identity_matrix(rows)
        self.Uinv = identity_matrix(rows)
        self.V = identity_matrix(cols)
        self.Vinv = identity_matrix(cols)

    def cokernel(self):
        """Z^rows modulo the column span of A: (torsion, free_rank, gens),
        gens as dense columns of Uinv."""
        torsion = [d for d in self.d if d > 1]
        picked = [i for i, d in enumerate(self.d) if d > 1]
        picked += range(self.rank, self.rows)
        gens = [[row[i] for row in self.Uinv] for i in picked]
        return torsion, self.rows - self.rank, gens


def smith_form(a: list[list[int]]) -> SmithForm:
    """Compute the Smith normal form of a (not modified)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    sf = SmithForm(rows, cols)
    U, Uinv, V, Vinv = sf.U, sf.Uinv, sf.V, sf.Vinv

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]
        # inverse of a swap is the same swap, applied on columns of Uinv
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        U[i] = [-x for x in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    def row_add(i, j, q):
        # row_i += q * row_j
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for r in Uinv:
            r[j] -= q * r[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in m:
            r[i] += q * r[j]
        for r in V:
            r[i] += q * r[j]
        Vinv[j] = [x - q * y for x, y in zip(Vinv[j], Vinv[i])]

    n = min(rows, cols)
    s = 0
    while s < n:
        # find a pivot of least absolute value in the remaining block
        piv = None
        best = None
        for i in range(s, rows):
            ri = m[i]
            for j in range(s, cols):
                x = ri[j]
                if x != 0 and (best is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != s:
            row_swap(s, piv[0])
        if piv[1] != s:
            col_swap(s, piv[1])
        if m[s][s] < 0:
            row_negate(s)
        # clear the edging; restart if a remainder forces a smaller pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, rows):
                if m[i][s] != 0:
                    q = m[i][s] // m[s][s]
                    row_add(i, s, -q)
                    if m[i][s] != 0:
                        row_swap(s, i)
                        dirty = True
            for j in range(s + 1, cols):
                if m[s][j] != 0:
                    q = m[s][j] // m[s][s]
                    col_add(j, s, -q)
                    if m[s][j] != 0:
                        col_swap(s, j)
                        dirty = True
            if m[s][s] < 0:
                row_negate(s)
        s += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(s - 1):
            if m[i + 1][i + 1] % m[i][i] != 0:
                # fold entry i+1 into the pivot at i via one extra row op
                row_add(i, i + 1, 1)
                # re-clear the 2x2 block with euclidean steps
                while m[i][i + 1] != 0 or m[i + 1][i] != 0:
                    if m[i][i] == 0:
                        row_swap(i, i + 1)
                        col_swap(i, i + 1)
                    if m[i][i + 1] != 0:
                        q = m[i][i + 1] // m[i][i]
                        col_add(i + 1, i, -q)
                        if m[i][i + 1] != 0:
                            col_swap(i, i + 1)
                    if m[i + 1][i] != 0:
                        q = m[i + 1][i] // m[i][i]
                        row_add(i + 1, i, -q)
                        if m[i + 1][i] != 0:
                            row_swap(i, i + 1)
                if m[i][i] < 0:
                    row_negate(i)
                if m[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True

    sf.d = [m[i][i] for i in range(n) if m[i][i] != 0]
    sf.rank = len(sf.d)
    return sf


def homology_data(cc, n, ring):
    """((free, torsion), generator vectors) of degree-n homology."""
    def factor(m):
        mat = boundary_matrix(cc, m)
        return smith_form(mat) if mat else SmithForm(0, cc.dim(m))

    sf = factor(n)
    # the columns of V past the rank are a saturated basis of the
    # cycles, and rows of Vinv past the rank give coordinates in it;
    # both products run over nonzero entries only
    width = cc.dim(n + 1)
    image_rows = [[] for _ in range(cc.dim(n))]
    for j in range(width):
        for i, c in cc.column(n + 1, j):
            image_rows[i].append((j, c))
    coords = []
    for row in sf.Vinv[sf.rank:]:
        out = [0] * width
        for i, x in enumerate(row):
            if x:
                for j, c in image_rows[i]:
                    out[j] += x * c
        coords.append(out)
    torsion, free, coeffs = smith_form(coords).cokernel()
    kernel = [[(i, x) for i, x in enumerate(col) if x]
              for col in list(zip(*sf.V))[sf.rank:]]
    gens = []
    for cv in coeffs:
        gen = [0] * len(sf.V)
        for k, y in enumerate(cv):
            if y:
                for i, x in kernel[k]:
                    gen[i] += y * x
        gens.append(gen)
    if ring == RING_RAT:
        torsion, gens = [], gens[len(torsion):]
    return (free, torsion), gens


def validate(mc: Multicomplex) -> list[str]:
    """All axiom violations of mc (empty list means valid)."""
    simplices = {sid: _Record(sid, mc.vertex_set(sid), mc.facets(sid))
                 for sid in mc.simplex_ids}

    def step(sid, v):
        s = simplices[sid]
        return s.facets.get(s.vset - {v})

    problems = []
    for v in mc.vertices:
        n = len(mc.simplices_over([v]))
        if n != 1:
            problems.append(
                "vertex %r has %d zero-simplices (expected exactly 1)"
                % (v, n))
    for sid, s in simplices.items():
        k = len(s.vset)
        if k == 0:
            problems.append("simplex %r has an empty vertex set" % sid)
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
            if simplices[fid].vset != b:
                problems.append(
                    "facet of %r over %s is %r, which spans %s instead"
                    % (sid, _fmt_vset(b), fid,
                       _fmt_vset(simplices[fid].vset)))
    # two-step consistency: dropping {u, w} must not depend on the order
    for sid, s in simplices.items():
        if len(s.vset) < 3:
            continue
        if any(simplices[f].vset != b for b, f in s.facets.items()) or \
           set(s.facets) != {s.vset - {v} for v in s.vset}:
            continue  # already reported above
        for u, w in combinations(sorted(s.vset), 2):
            via_u = step(step(sid, u), w)
            via_w = step(step(sid, w), u)
            if via_u is None or via_w is None:
                continue
            if via_u != via_w:
                problems.append(
                    "composition mismatch at %r: dropping %r then %r "
                    "gives %r but dropping %r then %r gives %r"
                    % (sid, u, w, via_u, w, u, via_w))
    return problems


def vertex_image(f, vset) -> frozenset:
    missing = [v for v in vset if v not in f.vertex_map]
    if missing:
        raise UnknownIdError(
            "vertex map is undefined on %r" % sorted(missing)[0])
    return frozenset(f.vertex_map[v] for v in vset)


def _raise_first_fault(problems: list[str], sid: str) -> None:
    """Raise the first of the problems validate listed that is a fault in
    the vertices or facets of sid, if there is one."""
    for p in problems:
        if p.startswith(("simplex %r " % sid, "facet of %r " % sid)):
            raise StructureError(p)


def map_problems(f) -> list[str]:
    """All violations of the simplicial map conditions of f."""
    problems = []
    for v in f.source.vertices:
        if v not in f.vertex_map:
            problems.append("vertex map is undefined on %r" % v)
    for sid in f.source.simplex_ids:
        if sid not in f.simplex_map:
            problems.append("simplex map is undefined on %r" % sid)
    if problems:
        return problems
    source_faults, target_faults = validate(f.source), validate(f.target)
    for sid in f.source.simplex_ids:
        a = f.source.vertex_set(sid)
        fa = vertex_image(f, a)
        tid = f.simplex_map[sid]
        if f.target.vertex_set(tid) != fa:
            problems.append(
                "simplex %r maps to %r, which spans %s instead of %s"
                % (sid, tid, _fmt_vset(f.target.vertex_set(tid)),
                   _fmt_vset(fa)))
            continue
        _raise_first_fault(source_faults, sid)
        for b, fid in f.source.facets(sid).items():
            fb = vertex_image(f, b)
            want = f.simplex_map[fid]
            if fb == fa:
                got = tid
            else:
                _raise_first_fault(target_faults, tid)
                got = f.target.facets(tid)[fb]
            if got != want:
                problems.append(
                    "facet square fails at %r over %s: image facet is "
                    "%r but the facet maps to %r"
                    % (sid, _fmt_vset(b), got, want))
    return problems


def translate(rank: int, el: tuple, x):
    """The translation action of a set-action document, parsing x afresh
    on every call: a point that is a comma-joined list of rank integers
    (as int() reads them) moves by el, and every other point is fixed."""
    try:
        coords = tuple(int(p) for p in str(x).split(","))
    except ValueError:
        return x
    if len(coords) != rank:
        return x
    return ",".join(str(c + e) for c, e in zip(coords, el))


def average_cochain(a: GroupAction, phi: chains.Cochain) -> chains.Cochain:
    """The group average A(phi)(x) = (1/|G|) sum_g phi(g^{-1} x).

    Rational output; invariant, norm non-increasing, and the identity on
    cochains that were already invariant.
    """
    order = len(a.group)
    terms = {}
    for g in a.group.elements:
        # the functional x -> phi(g^{-1} x) has its mass at the g-images
        for key, val in phi.items():
            image = act_on_simplex(a, g, key)
            cur = terms.get(image, Fraction(0)) + Fraction(val)
            if cur == 0:
                terms.pop(image, None)
            else:
                terms[image] = cur
    return chains.Cochain(phi.degree, RING_RAT,
                          {k: v / order for k, v in terms.items()})


def toy_vanish_average(a: GroupAction, c: chains.Chain,
                       bounding: chains.Chain, witnesses: dict) -> tuple:
    """(average of c, its bounding chain), by one Chain sum per element."""
    w = Fraction(1, len(a.group))
    new_c = chains.Chain(c.degree, RING_RAT, {})
    new_b = chains.Chain(c.degree + 1, RING_RAT, {})
    for g in a.group.elements:
        new_c = new_c + act_on_chain(a, g, c).scaled(w)
        new_b = new_b + (act_on_chain(a, g, bounding) + witnesses[g]).scaled(w)
    return new_c, new_b


def class_witnesses(a: GroupAction, hom, z: chains.Chain) -> dict:
    """w_g with boundary g*z - z for every element g, one solve each in
    element order; the first g with none raises DiffusionError, with a
    chain bounding g*z + z as witness when [g*z] = -[z]."""
    witnesses = {}
    for g in a.group.elements:
        gz = act_on_chain(a, g, z)
        b = hom.is_boundary(gz - z)
        if b is None:
            flip = hom.is_boundary(gz + z)
            if flip is not None:
                raise DiffusionError(
                    "element %r does not preserve the class of z: "
                    "[g*z] = -[z], certified by a chain bounding g*z + z"
                    % (g,), witness=flip)
            raise DiffusionError(
                "element %r does not preserve the class of z: g*z - z "
                "is not a boundary" % (g,))
        witnesses[g] = b
    return witnesses


def first_orbit_total(a: GroupAction, c: chains.Chain):
    """(total, least member) of the first orbit, in the order of
    orbits(a, k), on which c has a nonzero total; None if there is none."""
    orbs = orbits(a, c.degree)
    where = {key: oi for oi, orb in enumerate(orbs) for key in orb}
    sums = {}
    for key, val in c.items():
        oi = where[key]
        sums[oi] = sums.get(oi, Fraction(0)) + val
    for oi in sorted(sums):
        if sums[oi] != 0:
            return sums[oi], orbs[oi][0]
    return None


def _dense_pivot(rows, d, l, den):
    """Pivot on d[l] > 0 of d = rows * (entering column); returns d[l]."""
    p, pivot_row = d[l], rows[l]
    for i, f in enumerate(d):
        if i != l and (f != 0 or p != den):
            rows[i] = [(p * u - f * w) // den
                       for u, w in zip(rows[i], pivot_row)]
    return p


def solve(columns, b, c, basis, max_iterations=None):
    """exactlp.solve on a dense tableau of m + 1 rows."""
    m, ncols = len(b), len(columns)
    basis = list(basis)
    if len(basis) != m:
        raise SimplexFailure("basis size does not match the row count")
    sb = math.lcm(*(Fraction(v).denominator for v in b))
    sc = math.lcm(*(Fraction(v).denominator for v in c))
    c = [int(v * sc) for v in c]
    # rows[i] = [M_i | den*sb*x_i] for i < m, rows[m] = [den*sc*y |
    # den*sb*sc*c.x]; pivoting B into the identity basis of cost 0 is
    # fraction-free Gauss-Jordan on [B | I]
    rows = [[int(r == i) for r in range(m)] + [int(v * sb)]
            for i, v in enumerate(b)] + [[0] * (m + 1)]
    den, place = 1, []

    def entering_column(j):
        d = [sum(row[r] * v for r, v in columns[j]) for row in rows]
        d[m] -= c[j] * den
        return d

    for j in basis:
        d = entering_column(j)
        l = next((i for i in range(m) if d[i] != 0 and i not in place), -1)
        if l < 0:
            raise SimplexFailure("starting basis matrix is singular")
        if d[l] < 0:  # flip the sign of the identity column it replaces
            rows[l] = [-v for v in rows[l]]
            d[l] = -d[l]
        den = _dense_pivot(rows, d, l, den)
        place.append(l)
    rows = [rows[l] for l in place] + [rows[m]]
    if any(row[m] < 0 for row in rows[:m]):
        raise SimplexFailure("starting basis is infeasible")
    if max_iterations is None:
        # Bland's rule terminates; the cap only guards against bugs
        max_iterations = max(100000, 200 * (ncols + m + 10))

    for _ in range(max_iterations):
        y, in_basis = rows[m], set(basis)
        # j prices out when c_j - y.a_j < 0, i.e. y.a_j > c_j * den here
        entering = next((j for j in range(ncols) if j not in in_basis and
                         sum(y[r] * v for r, v in columns[j]) > c[j] * den),
                        -1)
        if entering < 0:
            x = [0] * ncols
            for i, j in enumerate(basis):
                x[j] = rows[i][m]
            return LPResult(Fraction(y[m], den * sb * sc), x, den * sb,
                            y[:m], den * sc, basis)
        d = entering_column(entering)
        # least ratio x_i / d_i over d_i > 0 by cross-multiplication, ties
        # to the least variable index
        leave = -1
        for i in range(m):
            if d[i] > 0 and (leave < 0 or (rows[i][m] * d[leave], basis[i])
                             < (rows[leave][m] * d[i], basis[leave])):
                leave = i
        if leave < 0:
            raise SimplexFailure("objective is unbounded below")
        den = _dense_pivot(rows, d, leave, den)
        basis[leave] = entering
    raise SimplexFailure("iteration limit exceeded")


class _Record:
    __slots__ = ("sid", "vset", "facets")

    def __init__(self, sid: str, vset: frozenset, facets: dict):
        self.sid = sid
        self.vset = vset
        self.facets = facets  # frozenset (one vertex removed) -> simplex id


class MulticomplexBuilt:
    """A multicomplex built by the constructor's checks as they were,
    kept as one record per simplex with its facet map keyed by
    frozensets."""

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        seen = set()
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise UnknownIdError("vertex ids must be nonempty strings")
            if "," in v:
                raise UnknownIdError(
                    "vertex id %r contains a comma, which the file format "
                    "reserves as a separator" % v)
            if v in seen:
                raise UnknownIdError("duplicate vertex id %r" % v)
            seen.add(v)
        self._simplices = {}
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
            self._simplices[sid] = _Record(
                sid, vset, {frozenset(b): f for b, f in facets.items()})
        for s in self._simplices.values():
            for b, fid in s.facets.items():
                if fid not in self._simplices:
                    raise UnknownIdError(
                        "simplex %r names unknown facet %r over %s"
                        % (s.sid, fid, _fmt_vset(b)))
        self._by_vset = {}
        for s in self._simplices.values():
            self._by_vset.setdefault(s.vset, []).append(s.sid)

    @property
    def simplex_ids(self) -> tuple:
        return tuple(self._simplices)

    def vertex_set(self, sid: str) -> frozenset:
        return self._simplices[sid].vset

    def facets(self, sid: str) -> dict:
        return dict(self._simplices[sid].facets)

    def simplices_over(self, vset) -> tuple:
        return tuple(self._by_vset.get(frozenset(vset), ()))


def multicomplex_from_doc(doc: dict) -> MulticomplexBuilt:
    vertices = _need(doc, "vertices", list)
    triples = []
    for entry in _need(doc, "simplices", list):
        vset = _need(entry, "vertices", list)
        facets = _need(entry, "facets", dict)
        if not all(isinstance(v, str) for v in vset + list(facets.values())):
            raise FormatError("simplex vertex and facet ids must be strings")
        triples.append((_need(entry, "id"), frozenset(vset),
                        {frozenset(key.split(",")): fid
                         for key, fid in facets.items()}))
    return MulticomplexBuilt(vertices, triples)


def multicomplex_to_doc(mc) -> dict:
    """The multicomplex writer as it was on frozenset-keyed facet maps:
    it joins the sorted vertices of every facet key."""
    simplices = []
    for sid in sorted(mc.simplex_ids,
                      key=lambda s: (len(mc.vertex_set(s)), s)):
        simplices.append({
            "id": sid, "vertices": sorted(mc.vertex_set(sid)),
            "facets": {",".join(sorted(b)): fid
                       for b, fid in mc.facets(sid).items()}})
    return {"schema_version": SCHEMA_VERSION,
            "vertices": list(mc.vertices), "simplices": simplices}


def group_problems(group) -> list[str]:
    """The group-law violations of a FiniteGroup's table."""
    problems = []
    els = group.elements
    tab = group.table
    ids = [e for e in els
           if all(tab[e][g] == g == tab[g][e] for g in els)]
    if len(ids) != 1:
        problems.append(
            "table has %d two-sided identities (expected exactly 1)"
            % len(ids))
    for a in els:
        for b in els:
            ab = tab[a][b]
            for c in els:
                if tab[ab][c] != tab[a][tab[b][c]]:
                    problems.append(
                        "associativity fails at (%r, %r, %r)" % (a, b, c))
    if len(ids) == 1:
        e = ids[0]
        for g in els:
            inv = [h for h in els if tab[g][h] == e and tab[h][g] == e]
            if len(inv) != 1:
                problems.append(
                    "element %r has %d two-sided inverses" % (g, len(inv)))
    return problems


def validate_action(a: GroupAction) -> list[str]:
    """Every violation of the action axioms: the group laws, every map
    simplicial and bijective, and rho(g*h) = rho(g) o rho(h) for all
    pairs on vertices and simplices."""
    problems = ["group table: " + p for p in group_problems(a.group)]
    verts = set(a.complex.vertices)
    sids = set(a.complex.simplex_ids)
    for g in a.group.elements:
        m = a.map_of(g)
        for p in map_problems(m):
            problems.append("map of %r: %s" % (g, p))
        if set(m.vertex_map.get(v) for v in verts) != verts or \
                set(m.simplex_map.get(s) for s in sids) != sids:
            problems.append("map of %r is not an automorphism" % (g,))
    for g in a.group.elements:
        mg = a.map_of(g)
        for h in a.group.elements:
            mh = a.map_of(h)
            mgh = a.map_of(a.group.multiply(g, h))
            try:
                for v in a.complex.vertices:
                    if mgh.apply_vertex(v) != mg.apply_vertex(
                            mh.apply_vertex(v)):
                        problems.append("homomorphism fails on vertex %r"
                                        % (v,))
                        break
                for s in a.complex.simplex_ids:
                    if mgh.apply_simplex(s) != mg.apply_simplex(
                            mh.apply_simplex(s)):
                        problems.append("homomorphism fails on simplex %r"
                                        % (s,))
                        break
            except UnknownIdError:
                pass  # partial maps were already reported above
    return problems


def composition_problems(group, act, points) -> list[str]:
    """The identity on every point and composition on every triple
    (g, h, x) of a finite group acting on points through act."""
    e = group.identity
    problems = ["identity moves %r" % (x,) for x in points if act(e, x) != x]
    for g in group.elements:
        for h in group.elements:
            gh = group.multiply(g, h)
            for x in points:
                if act(gh, x) != act(g, act(h, x)):
                    problems.append("composition fails at (%r, %r, %r)"
                                    % (g, h, x))
    return problems


class SparseFunction:
    """A finitely supported rational function on opaque points."""

    def __init__(self, values=None):
        self._vals = {}
        if values:
            items = values.items() if hasattr(values, "items") else values
            for x, v in items:
                # repeated points add up; a mapping never repeats one
                v = Fraction(v)
                if x in self._vals:
                    v += self._vals[x]
                if v:
                    self._vals[x] = v
                else:
                    self._vals.pop(x, None)

    def value(self, x) -> Fraction:
        return self._vals.get(x, Fraction(0))

    def support(self) -> list:
        return sorted(self._vals, key=repr)

    def items(self) -> list:
        return sorted(self._vals.items(), key=lambda kv: repr(kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self._vals

    def l1_norm(self) -> Fraction:
        return sum((abs(v) for v in self._vals.values()), Fraction(0))

    def total(self) -> Fraction:
        return sum(self._vals.values(), Fraction(0))

    def sum_over(self, points) -> Fraction:
        return sum((self._vals.get(x, Fraction(0)) for x in set(points)),
                   Fraction(0))

    def norm_over(self, points) -> Fraction:
        return sum((abs(self._vals.get(x, Fraction(0))) for x in set(points)),
                   Fraction(0))

    def restrict(self, points) -> "SparseFunction":
        keep = set(points)
        return SparseFunction({x: v for x, v in self._vals.items()
                               if x in keep})

    def scaled(self, factor) -> "SparseFunction":
        factor = Fraction(factor)
        return SparseFunction({x: v * factor for x, v in self._vals.items()})

    def __add__(self, other):
        out = dict(self._vals)
        for x, v in other._vals.items():
            cur = out.get(x, Fraction(0)) + v
            if cur == 0:
                out.pop(x, None)
            else:
                out[x] = cur
        return SparseFunction(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        return (isinstance(other, SparseFunction)
                and self._vals == other._vals)

    def __repr__(self) -> str:
        body = ", ".join("%r: %s" % (x, v) for x, v in self.items())
        return "SparseFunction({%s})" % body


def measure_to_doc(mu) -> dict:
    key = mu.group.element_key
    items = mu.items()  # one Fraction object per distinct weight
    distinct = {id(w): w for _, w in items}
    text = {i: rational_str(w) for i, w in distinct.items()}
    weights = {key(el): text[id(w)] for el, w in items}
    return {"schema_version": SCHEMA_VERSION,
            "group": group_to_doc(mu.group), "weights": weights}


def function_to_doc(f) -> dict:
    values = {}
    for x, v in f.items():
        if not isinstance(x, str):
            raise FormatError(
                "only string-labelled points serialize; got %r" % (x,))
        values[x] = rational_str(v)
    return {"schema_version": SCHEMA_VERSION, "values": values}


class _SparseModule:
    """Shared behaviour of Chain and Cochain: sparse coefficient maps."""

    __slots__ = ("degree", "ring", "_terms")

    def __init__(self, degree, ring, terms=None):
        _check_ring(ring)
        self.degree = degree
        self.ring = ring
        self._terms = {}
        if terms:
            for key, val in (terms.items() if hasattr(terms, "items")
                             else terms):
                if not isinstance(key, AlgebraicSimplex):
                    key = AlgebraicSimplex(key[0], tuple(key[1]))
                if len(key.vertices) != degree + 1:
                    raise StructureError(
                        "term %s has %d vertices but the degree is %d"
                        % (key, len(key.vertices), degree))
                val = _coerce(ring, val)
                if val != 0:
                    cur = self._terms.get(key)
                    if cur is None:
                        self._terms[key] = val
                    else:
                        cur += val
                        if cur == 0:
                            del self._terms[key]
                        else:
                            self._terms[key] = cur

    def coefficient(self, key):
        if not isinstance(key, AlgebraicSimplex):
            key = AlgebraicSimplex(key[0], tuple(key[1]))
        return self._terms.get(key, _coerce(self.ring, 0))

    def items(self):
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def __eq__(self, other):
        return (type(self) is type(other) and self.degree == other.degree
                and self.ring == other.ring and self._terms == other._terms)

    def __len__(self):
        return len(self._terms)

    def _combine(self, other, flip):
        if type(other) is not type(self):
            raise StructureError("cannot combine %s with %s"
                                 % (type(self).__name__, type(other).__name__))
        if other.degree != self.degree or other.ring != self.ring:
            raise StructureError("degree or ring mismatch in combination")
        terms = dict(self._terms)
        for key, val in other._terms.items():
            cur = terms.get(key, 0) + (-val if flip else val)
            if cur == 0:
                terms.pop(key, None)
            else:
                terms[key] = cur
        return type(self)(self.degree, self.ring, terms)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        factor = _coerce(self.ring, factor)
        return type(self)(
            self.degree, self.ring,
            {k: v * factor for k, v in self._terms.items()})

    def __repr__(self):
        body = " + ".join("%s*%s" % (v, k) for k, v in self.items())
        return "%s(%d;%s)[%s]" % (type(self).__name__, self.degree,
                                  self.ring, body or "0")


class Chain(_SparseModule):
    def l1_norm(self):
        return sum(abs(v) for v in self._terms.values())


class Cochain(_SparseModule):
    """A linear functional on chains, zero outside its support."""

    def linf_norm(self):
        return max((abs(v) for v in self._terms.values()),
                   default=_coerce(self.ring, 0))

    def pairing(self, chain: Chain):
        if chain.degree != self.degree:
            raise StructureError("cochain and chain degrees differ")
        total = Fraction(0) if (self.ring == RING_RAT
                                or chain.ring == RING_RAT) else 0
        for key, val in chain._terms.items():
            phi = self._terms.get(key)
            if phi is not None:
                total += phi * val
        return total


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


def validate_action_on_set(a: ActionOnSet) -> list[str]:
    """The problems that the action axioms of every oracle and the
    orbit-structure checks find; an empty list means valid.

    The identity must fix every enumerated point.  A finite group's table
    must be a group, and composition is proved through the generators
    (groups._composition_failures) on the points closed under them, which
    an action keeps within |G| times as many.  Z^d has no finite set of
    elements to check, so composition is sampled on 64 triples; a
    translation oracle acts by construction.  With blocks, they
    partition the points; every designated subgroup acts on all the
    points, is transitive on its own block and maps every block onto
    itself; and whenever s' is at or past the horizon of s, subgroup s'
    moves nothing in block s or in the points subgroup s moves.  Once a
    subgroup acts, its generators tell what it moves and where.
    Everything runs on the enumerated range only.
    """
    problems = []
    rng = random.Random(SAMPLE_SEED)

    def check_oracle(label, group, act, points):
        """Check one oracle on points and return the maps of its
        generators, which compute each image once."""
        gens = generating_set(group)
        maps = {s: _Memo(partial(act, s)) for s in gens}
        if group.is_finite:
            table = group.validate()
            problems.extend("%s: group table: %s" % (label, p) for p in table)
            if table:
                return maps
            # the kernel proves composition on points the generators carry
            # into themselves, so it runs on the points closed under them;
            # an action reaches at most |G| times as many
            closed, seen = list(points), set(points)
            cap = len(group) * len(points)
            for x in closed:
                for s in gens:
                    if maps[s][x] not in seen:
                        seen.add(maps[s][x])
                        closed.append(maps[s][x])
                if len(closed) > cap:
                    problems.append(
                        "%s: the generators carry the points to over %d "
                        "points, more than any action of the group reaches"
                        % (label, cap))
                    return maps
            every = {g: maps[g] if g in maps else
                     {x: act(g, x) for x in closed} for g in group.elements}
            identity = every[group.identity].__getitem__
        else:
            identity = partial(act, group.identity)
        problems.extend("%s: identity moves %r to %r" % (label, x, identity(x))
                        for x in points if identity(x) != x)
        if group.is_finite:
            broken = _composition_failures(group, every, closed, gens)
        else:  # Z^d has no finite set of elements to check
            draw = [tuple(rng.randint(-3, 3) for _ in range(group.rank))
                    for _ in range(16)]
            broken = [(g, h, x) for g in draw[:8] for h in draw[8:]
                      for x in rng.sample(points, min(1, len(points)))
                      if act(group._product(g, h), x) != act(g, act(h, x))]
        problems.extend("%s: composition fails at (%r, %r, %r)"
                        % (label, g, h, x) for g, h, x in broken)
        return maps

    if a.group is not None and a.act is not None:
        check_oracle("ambient action", a.group, a.act, list(a.points))

    if a.blocks:
        counts = {}
        for b in a.blocks:
            for x in b.points:
                counts[x] = counts.get(x, 0) + 1
        for x in a.points:
            n = counts.get(x, 0)
            if n != 1:
                problems.append(
                    "blocks do not partition the points: %r appears in %d "
                    "blocks" % (x, n))
        moved = []
        for s, b in enumerate(a.blocks):
            # local_diffuse convolves every point by every subgroup, so
            # each subgroup must act on all of them, not only its block
            images = check_oracle("block %d" % s, b.group, b.act,
                                  list(a.points)).values()
            try:
                _transporters(ActionOnSet(b.group, b.points, b.act),
                              sorted(b.points, key=repr)[0])
            except DiffusionError as exc:
                problems.append("block %d: %s" % (s, exc))
            except IndexError:
                problems.append("block %d is empty" % s)
            # every block must be carried onto itself by every subgroup;
            # each of images maps a point to its image under a generator
            for t, other in enumerate(a.blocks):
                target = set(other.points)
                for image in images:
                    escaped = [x for x in other.points
                               if image[x] not in target]
                    if escaped:
                        problems.append(
                            "subgroup of block %d moves %r out of block %d"
                            % (s, escaped[0], t))
                        break
            moved.append({x for x in a.points
                          if any(image[x] != x for image in images)})
        for s, b in enumerate(a.blocks):
            guarded = set(b.points) | moved[s]
            for t in range(len(a.blocks)):
                if t >= b.horizon and t != s:
                    overlap = moved[t] & guarded
                    if overlap:
                        problems.append(
                            "blocks %d and %d are not asymptotically "
                            "disjoint: stage %d is past the horizon %d but "
                            "moves %r" % (s, t, t, b.horizon,
                                          sorted(overlap, key=repr)[0]))
    return problems
