"""Exact linear programming by a fraction-free revised simplex method.

Standard form only: minimize c.x subject to A x = b, x >= 0, from a
feasible starting basis.  A column of A is a sparse list of (row, int)
pairs; b and c are scaled once to integers.  For the basis matrix B and
D = |det B| the solver keeps the integral M = D * B^-1 (the adjugate of B
up to sign) and updates it by pivots whose divisions are exact (Edmonds
1967; Bareiss 1968).  The tableau is stored as sparse columns, one
{row: nonzero int} dict each, so the entering column is summed over the
nonzeros of A's column and a pivot rewrites only the columns with a
nonzero in the pivot row (the others are rescaled when D changes).
Bland's rule (least variable index, both entering and leaving) makes the
iteration finite also on degenerate problems; with the deterministic
variable order used by callers this is the lexicographic tie-break.

The start is signed unit columns: basis[i] is a column whose one entry
s = +-1 lies on row i, as in the seminorm LP.  B is then diagonal, so no
elimination sets it up: M = B^-1 = B takes s on row i, the row of b is
multiplied by s, D = 1 and the objective row gains c_j * s.  Any other
start raises SimplexFailure naming its first bad row.

Every column is priced once, after the starting basis is set up; from
then on the integral reduced costs rc_j = y.a_j - c_j * D are updated
per pivot instead of priced again.  A pivot on row l with entering
column d = M a_e, p = d_l and old denominator D gives

    rc'_j = (p * rc_j - d_m * alpha_j) // D,  alpha_j = (row l of M).a_j,

exactly, where d_m = rc_e > 0.  alpha is summed from a row index of A
over the nonzeros of row l of M, so a pivot touches only the columns
that meet those rows, unless D changes (p != D): then the columns with
alpha_j = 0 are rescaled by p / D as well, an exact division that keeps
their sign.  The update keeps every other basic column at rc = 0
(alpha_j = 0), takes the entering one to 0 (alpha_e = p) and the
leaving one to -d_m < 0 (alpha = D), so Bland's entering variable is the
first set byte of a bytearray that flags rc_j > 0.

The result keeps x and y as the int numerators the final tableau holds,
over D * sb and D * sc (sb, sc the common denominators of b and c), and
builds no Fraction per variable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import InternalInvariantError


class SimplexFailure(InternalInvariantError):
    """The solver could not certify an optimal basis (should not happen
    on the problems this package builds)."""


class LPResult:
    """The optimal value, primal x, dual y (one entry per constraint row)
    and optimal basis of a program.

    x and y are kept as int numerators over one positive denominator
    each: x_j = x_num[j] / x_den and y_i = y_num[i] / y_den.
    """

    def __init__(self, value, x_num, x_den, y_num, y_den, basis):
        self.value, self.basis = value, basis
        self.x_num, self.x_den, self.y_num, self.y_den = \
            x_num, x_den, y_num, y_den


def _pivot(tableau, d, l, den):
    """Pivot on d[l] > 0 of d = tableau * (entering column).

    Row i != l of a column becomes (p * t_i - d_i * t_l) // den, so a
    column with no entry in row l is only rescaled, and only if p != den.
    Row l is left as it is; it is returned as (column, entry) pairs.
    """
    p = d[l]
    rest = [(i, -f) for i, f in d.items() if i != l]
    row = []
    for r, col in enumerate(tableau):
        w = col.get(l)
        if p != den:
            for i, u in col.items():
                if w is None or i not in d:
                    col[i] = p * u // den
        if w is None:
            continue
        row.append((r, w))
        get = col.get
        for i, g in rest:
            v = (p * get(i, 0) + g * w) // den
            if v:
                col[i] = v
            elif i in col:
                del col[i]
    return row


def solve(columns, b, c, basis, max_iterations=None):
    """Minimize c.x with sum_j x_j * columns[j] = b and x >= 0.

    columns: sparse integer columns, lists of (row, int) pairs with
    0 <= row < m; basis: m column indices, basis[i] a column whose one
    entry is +-1 on row i, that give a feasible start.  Returns an
    LPResult with primal x, dual y and the optimal value.
    """
    m, ncols = len(b), len(columns)
    basis = list(basis)
    if len(basis) != m:
        raise SimplexFailure("basis size does not match the row count")
    sb = math.lcm(*(v.denominator for v in b))
    sc = math.lcm(*(v.denominator for v in c))
    c = [int(v * sc) for v in c]
    # the tableau [M | den*sb*x ; den*sc*y | den*sb*sc*c.x] by columns:
    # tableau[r][i] is row i of column r, row m the objective row and
    # column m the right-hand side; M = B^-1 = B for the unit start
    tableau, rhs, value = [], {}, 0
    for i, j in enumerate(basis):
        col = columns[j]
        if len(col) != 1 or col[0][0] != i or col[0][1] not in (1, -1):
            raise SimplexFailure("basis column of row %d is not a signed "
                                 "unit on that row" % i)
        s = col[0][1]
        tableau.append({i: s, m: c[j] * s} if c[j] else {i: s})
        if b[i]:
            rhs[i] = int(b[i] * sb) * s
            value += c[j] * rhs[i]
    if value:
        rhs[m] = value
    tableau.append(rhs)
    if any(v < 0 for i, v in rhs.items() if i < m):
        raise SimplexFailure("starting basis is infeasible")
    den = 1

    def entering_column(j):
        d = {}
        for r, v in columns[j]:
            for i, u in tableau[r].items():
                d[i] = d.get(i, 0) + u * v
        d[m] = d.get(m, 0) - c[j] * den
        return {i: f for i, f in d.items() if f}

    if max_iterations is None:
        # Bland's rule terminates; the cap only guards against bugs
        max_iterations = max(100000, 200 * (ncols + m + 10))

    # price every column once; rc[j] = y.a_j - c_j * den, and j may enter
    # when rc[j] > 0
    y = [col.get(m, 0) for col in tableau]
    rc = [sum(y[r] * v for r, v in col) - cj * den
          for col, cj in zip(columns, c)]
    priced_in = bytearray(v > 0 for v in rc)
    by_row = [[] for _ in range(m)]
    for j, col in enumerate(columns):
        for r, v in col:
            by_row[r].append((j, v))

    for _ in range(max_iterations):
        entering = priced_in.find(1)
        if entering < 0:
            y = [col.get(m, 0) for col in tableau]
            x = [0] * ncols
            for i, j in enumerate(basis):
                x[j] = rhs.get(i, 0)
            return LPResult(
                Fraction(y.pop(), den * sb * sc), x, den * sb, y, den * sc,
                basis)
        d = entering_column(entering)
        # least ratio x_i / d_i over d_i > 0 by cross-multiplication, ties
        # to the least variable index
        leave = -1
        for i, f in d.items():
            if i < m and f > 0 and (
                    leave < 0 or (rhs.get(i, 0) * d[leave], basis[i])
                    < (rhs.get(leave, 0) * f, basis[leave])):
                leave = i
        if leave < 0:
            raise SimplexFailure("objective is unbounded below")
        # _pivot keeps row leave of M and returns it; alpha_j is that row
        # times a_j, summed over its nonzeros
        p, f = d[leave], d[m]
        alpha = {}
        for r, w in _pivot(tableau, d, leave, den):
            if r < m:
                for j, v in by_row[r]:
                    alpha[j] = alpha.get(j, 0) + w * v
        # a column with alpha_j = 0 only changes when den does
        touched = (alpha.items() if p == den else
                   ((j, alpha.get(j, 0)) for j in range(ncols)))
        for j, a in touched:
            v = (p * rc[j] - f * a) // den
            rc[j], priced_in[j] = v, v > 0
        den = p
        basis[leave] = entering
    raise SimplexFailure("iteration limit exceeded")
