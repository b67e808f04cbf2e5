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
independently of the Smith form.

validate is Multicomplex.validate as it was before each facet was read
once per simplex: it finds every face by a frozenset difference.  The
program's validate must return the same problems in the same order.

identity_matrix, matmul and mat_vec are the dense products the tests
check factorizations and solutions with.

translate is the translation oracle of a set-action document as it was
before it kept the points it had parsed; the program's oracle must move
every point the same way.

average_cochain is the group average as it was before it summed int
numerators over one denominator: it adds one Fraction per element and
term.  toy_vanish_average is the averaging loop toy_vanish ran before it
called average_cochain, on the alternation c, its bounding chain and the
witnesses.  The program's average and certificate must equal them.
first_orbit_total is the orbit check toy_vanish ran before it read the
orbit totals off the average: it lists every orbit by actions.orbits and
sums c over each.  toy_vanish must reject the same orbit with the same
total.

solve is exactlp.solve as it was before its tableau moved to sparse
columns: it updates every row of a dense [M | D*x ; D*y | D*c*x] on
every pivot.  The sparse solver makes the same pivots, so it must return
the same basis, x, y and value, and raise the same SimplexFailure.
"""

import math
from fractions import Fraction
from itertools import combinations

from multicomplex.actions import (GroupAction, act_on_chain, act_on_simplex,
                                  orbits)
from multicomplex.chains import RING_RAT, Chain, Cochain
from multicomplex.core import Multicomplex, _fmt_vset
from multicomplex.exactlp import LPResult, SimplexFailure
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
    simplices = mc._simplices

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


def average_cochain(a: GroupAction, phi: Cochain) -> Cochain:
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
    return Cochain(phi.degree, RING_RAT,
                   {k: v / order for k, v in terms.items()})


def toy_vanish_average(a: GroupAction, c: Chain, bounding: Chain,
                       witnesses: dict) -> tuple:
    """(average of c, its bounding chain), by one Chain sum per element."""
    w = Fraction(1, len(a.group))
    new_c = Chain(c.degree, RING_RAT, {})
    new_b = Chain(c.degree + 1, RING_RAT, {})
    for g in a.group.elements:
        new_c = new_c + act_on_chain(a, g, c).scaled(w)
        new_b = new_b + (act_on_chain(a, g, bounding) + witnesses[g]).scaled(w)
    return new_c, new_b


def first_orbit_total(a: GroupAction, c: Chain):
    """(total, least member) of the first orbit, in the order of
    orbits(a, k), on which c has a nonzero total; None if there is none."""
    part = orbits(a, c.degree)
    sums = {}
    for key, val in c.items():
        oi = part.index_of(key)
        sums[oi] = sums.get(oi, Fraction(0)) + val
    for oi in sorted(sums):
        if sums[oi] != 0:
            return sums[oi], part.orbits[oi][0]
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
            x = [Fraction(0)] * ncols
            for i, j in enumerate(basis):
                x[j] = Fraction(rows[i][m], den * sb)
            return LPResult(Fraction(y[m], den * sb * sc), x,
                            [Fraction(v, den * sc) for v in y[:m]], basis)
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
