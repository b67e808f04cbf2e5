"""Dense exact linear algebra over the integers and the rationals.

Matrices are lists of row lists.  Everything here is desk scale: the
algorithms are the classical cubic ones, run on Python ints (arbitrary
precision) and fractions.Fraction.  No floats, no modular shortcuts.

The integer Smith normal form is the one elimination the program runs:
ranks, kernels, quotients and solutions over Z and over Q are all read
off a SmithForm, since a unimodular change of basis is also invertible
over Q.  rational_rref and its rank, kernel and solve helpers eliminate
over Q independently of it; the tests use them as a reference.
"""

from __future__ import annotations

from fractions import Fraction


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b != 0:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


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


class SmithForm:
    """Smith normal form U * A * V = D of an integer matrix A.

    d lists the diagonal of D (non-negative, each dividing the next);
    rank is the number of nonzero entries.  U, V are unimodular and the
    inverses Uinv, Vinv are tracked alongside so that A = Uinv * D * Vinv.
    """

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.d: list[int] = []
        self.rank = 0
        self.U = identity_matrix(rows)
        self.Uinv = identity_matrix(rows)
        self.V = identity_matrix(cols)
        self.Vinv = identity_matrix(cols)

    def solve(self, b: list, integral: bool = True):
        """One x with A @ x = b, or None if there is none.

        D * (Vinv x) = U b, so a solution exists exactly when (U b)_i
        vanishes past the rank, and then x = V (U b / d).  With integral
        the solution must be an integer vector, which needs d_i to divide
        (U b)_i; otherwise b may hold Fractions and x is rational.
        """
        ub = mat_vec(self.U, b)
        if any(ub[self.rank:]):
            return None
        y = [0] * self.cols
        for i, d in enumerate(self.d):
            if integral:
                y[i], rem = divmod(ub[i], d)
                if rem:
                    return None
            else:
                y[i] = Fraction(ub[i]) / d
        return mat_vec(self.V, y)

    def cokernel(self):
        """Z^rows modulo the column span of A: (torsion, free_rank, gens).

        A = Uinv * D * Vinv, so the columns of Uinv form a basis in which
        the image is spanned by d_i times the i-th basis vector.  torsion
        lists the invariant factors > 1; gens holds, as column vectors,
        one generator per torsion factor and then one per free summand.
        """
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


def integer_kernel_basis(a: list[list[int]], cols: int | None = None) -> list[list[int]]:
    """Basis (as column vectors) of {x : a @ x = 0} over the integers.

    The result spans the kernel as a saturated sublattice: any integer
    vector in the rational kernel is an integer combination of it.
    cols must be supplied when a has no rows.
    """
    if not a:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    cols = len(a[0])
    sf = smith_form(a)
    ker = []
    for j in range(sf.rank, cols):
        ker.append([sf.V[i][j] for i in range(cols)])
    return ker


def solve_integer(a: list[list[int]], b: list[int], cols: int | None = None):
    """One integer solution x of a @ x = b, or None if none exists."""
    if not a:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [0] * cols
    return smith_form(a).solve(b)


def integer_quotient(kernel: list[list[int]], image_cols: list[list[int]]):
    """Structure of (lattice spanned by kernel) / (lattice spanned by image).

    kernel: list of column vectors forming a saturated lattice basis;
    image_cols: column vectors, each lying in the span of kernel.
    Returns (torsion, free_rank, generator_coeffs) where torsion lists the
    invariant factors > 1 and generator_coeffs gives, for each torsion
    factor and then each free generator, its coefficients with respect to
    the kernel basis.
    """
    k = len(kernel)
    if k == 0:
        return [], 0, []
    m = len(kernel[0])
    sf = smith_form([[kernel[j][i] for j in range(k)] for i in range(m)])
    # coordinates of each image column in the kernel basis
    y_cols = [sf.solve(c) for c in image_cols]
    if any(y is None for y in y_cols):
        raise ValueError("image column does not lie in the kernel lattice")
    return smith_form([[y[i] for y in y_cols] for i in range(k)]).cokernel()


# ---------------------------------------------------------------------------
# rational routines


def _to_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def rational_rref(a):
    """Reduced row echelon form.  Returns (rref, pivot_columns)."""
    m = _to_fractions(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rational_rank(a) -> int:
    return len(rational_rref(a)[1])


def rational_kernel_basis(a, cols: int | None = None):
    """Basis of the rational kernel of a, as column vectors of Fractions."""
    rows = len(a)
    if rows == 0:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [[Fraction(1 if i == j else 0) for i in range(cols)]
                for j in range(cols)]
    cols = len(a[0])
    rref, pivots = rational_rref(a)
    pivset = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivset:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][free]
        basis.append(v)
    return basis


def rational_solve(a, b, cols: int | None = None):
    """One rational solution x of a @ x = b, or None if inconsistent."""
    rows = len(a)
    if rows == 0:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [Fraction(0)] * cols
    cols = len(a[0])
    aug = [[Fraction(x) for x in row] + [Fraction(v)]
           for row, v in zip(a, b)]
    rref, pivots = rational_rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][cols]
    return x


def rational_in_span(columns, target) -> bool:
    """Whether target is a rational combination of the given column vectors."""
    if not columns:
        return all(x == 0 for x in target)
    a = [[col[i] for col in columns] for i in range(len(target))]
    return rational_solve(a, target) is not None
