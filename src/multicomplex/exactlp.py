"""Exact linear programming by a fraction-free revised simplex method.

Standard form only: minimize c.x subject to A x = b, x >= 0, from a
feasible starting basis.  A column of A is a sparse list of (row, int)
pairs; b and c are scaled once to integers.  For the basis matrix B and
D = |det B| the solver keeps the integral M = D * B^-1 (the adjugate of B
up to sign) and updates it by pivots whose divisions are exact (Edmonds
1967; Bareiss 1968), so Fractions are built only for the result.  Bland's
rule (least variable index, both entering and leaving) makes the
iteration finite also on degenerate problems; with the deterministic
variable order used by callers this is the lexicographic tie-break.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import InternalInvariantError


class SimplexFailure(InternalInvariantError):
    """The solver could not certify an optimal basis (should not happen
    on the problems this package builds)."""


class LPResult:
    def __init__(self, value, x, y, basis):
        self.value = value
        self.x = x
        self.y = y  # dual vector, one entry per constraint row
        self.basis = basis


def _pivot(rows, d, l, den):
    """Pivot on d[l] > 0 of d = rows * (entering column); returns d[l]."""
    p, pivot_row = d[l], rows[l]
    for i, f in enumerate(d):
        if i != l and (f != 0 or p != den):
            rows[i] = [(p * u - f * w) // den
                       for u, w in zip(rows[i], pivot_row)]
    return p


def solve(columns, b, c, basis, max_iterations=None):
    """Minimize c.x with sum_j x_j * columns[j] = b and x >= 0.

    columns: sparse integer columns, lists of (row, int) pairs with
    0 <= row < m; basis: m column indices forming a feasible basis.
    Returns an LPResult with primal x, dual y and the optimal value.
    """
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
        den = _pivot(rows, d, l, den)
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
        den = _pivot(rows, d, leave, den)
        basis[leave] = entering
    raise SimplexFailure("iteration limit exceeded")
