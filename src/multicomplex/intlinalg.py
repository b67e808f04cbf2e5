"""Exact linear algebra over the integers and the rationals.

The integer routines take a matrix as sparse rows {column: int} and its
column count, and a SmithForm builds its factors sparse, U and Vinv as
rows and Uinv and V as columns, each from the log of the elimination
when it is first read.  No floats, no modular shortcuts.

The integer Smith normal form is the one elimination the program runs:
ranks, kernels, quotients and solutions over Z and over Q are all read
off a SmithForm, since a unimodular change of basis is also invertible
over Q.  It eliminates on sparse rows, so an elementary operation costs
the nonzeros it touches rather than a full row or column; the pivots and
operations are those of the classical dense elimination, so the result
is the same.  rational_rref and its kernel and solve helpers take dense
lists of rows and eliminate over Q independently of it.  Only the tests
call them, as a reference; they stay here while the benchmark's tracer
names them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property


class SmithForm:
    """Smith normal form U * A * V = D of an integer matrix A.

    d lists the diagonal of D (non-negative, each dividing the next);
    rank is the number of nonzero entries.  U, V are unimodular, and
    A = Uinv * D * Vinv.  smith_form eliminates on A alone and logs its
    elementary operations, row and column apart; each factor is replayed
    from its log the first time it is read, as sparse lists of
    {index: nonzero} in the shape the elimination would update it in:
    U_rows and Vinv_rows hold the rows of U and Vinv, Uinv_cols and
    V_cols the columns of Uinv and V.  A caller builds only what it
    reads: solve reads U_rows and V_cols, cokernel Uinv_cols, and
    chains.HomologyResult reads V_cols and Vinv_rows of each boundary.
    SmithForm(rows, cols) alone is the factorization of the zero matrix.
    """

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.d: list[int] = []
        # (i,) negates line i, (i, j) swaps lines i and j, and
        # (i, j, q) adds q times line j to line i
        self._row_ops: list[tuple] = []
        self._col_ops: list[tuple] = []

    @cached_property
    def U_rows(self) -> list[dict]:
        return _replay(self.rows, self._row_ops, False)

    @cached_property
    def Uinv_cols(self) -> list[dict]:
        return _replay(self.rows, self._row_ops, True)

    @cached_property
    def V_cols(self) -> list[dict]:
        return _replay(self.cols, self._col_ops, False)

    @cached_property
    def Vinv_rows(self) -> list[dict]:
        return _replay(self.cols, self._col_ops, True)

    @property
    def rank(self) -> int:
        return len(self.d)

    def solve(self, b: list, integral: bool = True):
        """One x with A @ x = b, or None if there is none.

        D * (Vinv x) = U b, so a solution exists exactly when (U b)_i
        vanishes past the rank, and then x = V (U b / d).  With integral
        the solution must be an integer vector, which needs d_i to divide
        (U b)_i; otherwise b may hold Fractions and x is rational.  x is
        returned as a dense list.  b must have one entry per row of A.
        """
        if len(b) != self.rows:
            raise ValueError("b must have one entry per row: expected "
                             "length %d, got %d" % (self.rows, len(b)))
        nonzero = [(k, y) for k, y in enumerate(b) if y]
        ub = [sum(row[k] * y for k, y in nonzero if k in row)
              for row in self.U_rows]
        if any(ub[self.rank:]):
            return None
        x = [0] * self.cols
        for i, d in enumerate(self.d):
            if integral:
                y, rem = divmod(ub[i], d)
                if rem:
                    return None
            else:
                y = Fraction(ub[i]) / d
            if y:
                for k, v in self.V_cols[i].items():
                    x[k] += v * y
        return x

    def cokernel(self):
        """Z^rows modulo the column span of A: (torsion, free_rank, gens).

        A = Uinv * D * Vinv, so the columns of Uinv form a basis in which
        the image is spanned by d_i times the i-th basis vector.  torsion
        lists the invariant factors > 1; gens holds, as sparse columns of
        Uinv, one generator per torsion factor and then one per free
        summand.
        """
        torsion = [d for d in self.d if d > 1]
        picked = [i for i, d in enumerate(self.d) if d > 1]
        picked += range(self.rank, self.rows)
        gens = [self.Uinv_cols[i] for i in picked]
        return torsion, self.rows - self.rank, gens


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src on sparse rows {index: nonzero int}."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _replay(size: int, ops: list, inverse: bool) -> list[dict]:
    """The identity of the given size as sparse lines, with the logged
    operations applied in order.  A line is a row of U or a column of V;
    with inverse it is a column of Uinv or a row of Vinv, on which an
    addition acts transposed and negated."""
    lines = [{k: 1} for k in range(size)]
    for op in ops:
        if len(op) == 3:
            i, j, q = op
            if inverse:
                _axpy(lines[j], lines[i], -q)
            else:
                _axpy(lines[i], lines[j], q)
        elif len(op) == 2:
            i, j = op
            lines[i], lines[j] = lines[j], lines[i]
        else:
            i, = op
            lines[i] = {k: -x for k, x in lines[i].items()}
    return lines


def _swap_keys(row: dict, i, j) -> None:
    x, y = row.pop(i, 0), row.pop(j, 0)
    if y:
        row[i] = y
    if x:
        row[j] = x


def smith_form(a: list[dict], cols: int) -> SmithForm:
    """Compute the Smith normal form of a (not modified).

    a holds the rows of a matrix with cols columns as {column: int}; zero
    entries are dropped and the order of the keys does not matter.  The
    pivot is the entry of least absolute value in row-major order of the
    remaining block, and the first unit found ends the search.
    m is kept as sparse rows {column: nonzero}, so an elementary
    operation costs the nonzeros it touches and a row swap is a list
    swap.  Each operation is logged, rows and columns apart, for the
    result to replay its factors from on demand; the replay runs the
    same operations in the same order as updating U, Uinv, V and Vinv
    alongside m would, so it builds the same factors.
    """
    m = [{j: x for j, x in row.items() if x} for row in a]
    rows = len(m)
    sf = SmithForm(rows, cols)
    row_ops, col_ops = sf._row_ops, sf._col_ops

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        row_ops.append((i, j))

    def row_negate(i):
        m[i] = {k: -x for k, x in m[i].items()}
        row_ops.append((i,))

    def row_add(i, j, q):
        # row_i += q * row_j
        if q:
            _axpy(m[i], m[j], q)
            row_ops.append((i, j, q))

    def col_swap(i, j, live):
        for r in live:
            row = m[r]
            if i in row or j in row:
                _swap_keys(row, i, j)
        col_ops.append((i, j))

    def col_add(i, j, q, live):
        # col_i += q * col_j, on the rows of live that hold column j
        if q:
            for r in live:
                row = m[r]
                x = row.get(j)
                if x:
                    y = row.get(i, 0) + q * x
                    if y:
                        row[i] = y
                    else:
                        del row[i]
            col_ops.append((i, j, q))

    # Invariant of the main loop: before step s, rows and columns < s
    # hold only their diagonal entry.  Step s works on rows and columns
    # >= s, so its column operations need visit only rows >= s, and its
    # pivot search only the keys of those rows.
    n = min(rows, cols)
    s = 0
    while s < n:
        # find a pivot of least absolute value in the remaining block
        piv = None
        best = None
        for i in range(s, rows):
            if m[i]:
                x, j = min((abs(x), j) for j, x in m[i].items())
                if best is None or x < best:
                    piv, best = (i, j), x
                    if best == 1:
                        break
        if piv is None:
            break
        if piv[0] != s:
            row_swap(s, piv[0])
        live = range(s, rows)
        if piv[1] != s:
            col_swap(s, piv[1], live)
        if m[s][s] < 0:
            row_negate(s)
        # clear the edging; restart if a remainder forces a smaller pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, rows):
                x = m[i].get(s)
                if x:
                    q = x // m[s][s]
                    row_add(i, s, -q)
                    if m[i].get(s):
                        row_swap(s, i)
                        dirty = True
            # clearing m[s][j] leaves row s right of j alone, so its keys
            # are listed once; holders are the rows that hold column s
            holders = [r for r in live if s in m[r]]
            for j in sorted(j for j in m[s] if j > s):
                q = m[s][j] // m[s][s]
                col_add(j, s, -q, holders)
                if m[s].get(j):
                    col_swap(s, j, live)
                    holders = [r for r in live if s in m[r]]
                    dirty = True
            if m[s][s] < 0:
                row_negate(s)
        s += 1

    # enforce the divisibility chain d_i | d_{i+1}; D is now diagonal, so
    # each step touches rows and columns i and i+1 only
    changed = True
    while changed:
        changed = False
        for i in range(s - 1):
            pair = (i, i + 1)
            if m[i + 1][i + 1] % m[i][i] != 0:
                # fold entry i+1 into the pivot at i via one extra row op
                row_add(i, i + 1, 1)
                # re-clear the 2x2 block with euclidean steps
                while m[i].get(i + 1) or m[i + 1].get(i):
                    if not m[i].get(i):
                        row_swap(i, i + 1)
                        col_swap(i, i + 1, pair)
                    if m[i].get(i + 1):
                        q = m[i][i + 1] // m[i][i]
                        col_add(i + 1, i, -q, pair)
                        if m[i].get(i + 1):
                            col_swap(i, i + 1, pair)
                    if m[i + 1].get(i):
                        q = m[i + 1][i] // m[i][i]
                        row_add(i + 1, i, -q)
                        if m[i + 1].get(i):
                            row_swap(i, i + 1)
                if m[i].get(i, 0) < 0:
                    row_negate(i)
                if m[i + 1].get(i + 1, 0) < 0:
                    row_negate(i + 1)
                changed = True

    sf.d = [m[i][i] for i in range(n) if m[i].get(i)]
    return sf


def integer_kernel_basis(a: list[dict], cols: int) -> list[list[int]]:
    """Basis (as column vectors) of {x : a @ x = 0} over the integers.

    The result spans the kernel as a saturated sublattice: any integer
    vector in the rational kernel is an integer combination of it.
    """
    sf = smith_form(a, cols)
    return [[col.get(i, 0) for i in range(cols)]
            for col in sf.V_cols[sf.rank:]]


def solve_integer(a: list[dict], b: list[int], cols: int):
    """One integer solution x of a @ x = b, or None if none exists."""
    return smith_form(a, cols).solve(b)


def integer_quotient(kernel: list[dict], image_cols: list[list[int]],
                     cols: int):
    """Structure of (lattice spanned by kernel) / (lattice spanned by image).

    kernel: sparse rows of a matrix whose cols columns form a saturated
    lattice basis; image_cols: dense column vectors in its span.
    Returns (torsion, free_rank, generator_coeffs) where torsion lists the
    invariant factors > 1 and generator_coeffs gives, for each torsion
    factor and then each free generator, its coefficients with respect to
    the kernel basis.
    """
    sf = smith_form(kernel, cols)
    # coordinates of each image column in the kernel basis
    y_cols = [sf.solve(c) for c in image_cols]
    if any(y is None for y in y_cols):
        raise ValueError("image column does not lie in the kernel lattice")
    coords = [{t: y[i] for t, y in enumerate(y_cols) if y[i]}
              for i in range(cols)]
    torsion, free, gens = smith_form(coords, len(y_cols)).cokernel()
    return torsion, free, [[g.get(i, 0) for i in range(cols)] for g in gens]


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
