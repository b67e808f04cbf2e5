"""Exact rational linear programming by the revised simplex method.

Standard form only: minimize c.x subject to A x = b, x >= 0, over
fractions.Fraction.  The caller supplies a feasible starting basis.
Bland's rule (least variable index, both entering and leaving) makes the
iteration finite also on degenerate problems; with the deterministic
variable order used by callers this is the lexicographic tie-break.
"""

from __future__ import annotations

from fractions import Fraction

from . import intlinalg
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


def solve(columns, b, c, basis, max_iterations=None):
    """Minimize c.x with sum_j x_j * columns[j] = b and x >= 0.

    columns: list of dense column vectors (length m each); basis: list of
    m column indices forming a feasible basis.  Returns an LPResult with
    primal x, dual y and the exactly verified optimal value.
    """
    m = len(b)
    ncols = len(columns)
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    basis = list(basis)
    if len(basis) != m:
        raise SimplexFailure("basis size does not match the row count")
    # Gauss-Jordan on [B | I] leaves [I | B^-1] exactly when B is regular
    rref, pivots = intlinalg.rational_rref(
        [[columns[j][i] for j in basis] + [int(r == i) for r in range(m)]
         for i in range(m)])
    if pivots != list(range(m)):
        raise SimplexFailure("starting basis matrix is singular")
    binv = [row[m:] for row in rref]
    xb = [sum(binv[i][r] * b[r] for r in range(m)) for i in range(m)]
    if any(v < 0 for v in xb):
        raise SimplexFailure("starting basis is infeasible")
    if max_iterations is None:
        # Bland's rule terminates; the cap only guards against bugs
        max_iterations = max(100000, 200 * (ncols + m + 10))

    for _ in range(max_iterations):
        y = [Fraction(0)] * m
        for i, j in enumerate(basis):
            cj = c[j]
            if cj != 0:
                row = binv[i]
                for r in range(m):
                    if row[r] != 0:
                        y[r] += cj * row[r]
        in_basis = set(basis)
        entering = -1
        for j in range(ncols):
            if j in in_basis:
                continue
            rc = c[j] - sum(yr * aj for yr, aj in zip(y, columns[j]) if aj != 0)
            if rc < 0:
                entering = j
                break
        if entering < 0:
            value = sum(c[j] * xb[i] for i, j in enumerate(basis))
            x = [Fraction(0)] * ncols
            for i, j in enumerate(basis):
                x[j] = xb[i]
            return LPResult(value, x, y, basis)
        col = columns[entering]
        d = [sum(binv[i][r] * col[r] for r in range(m) if col[r] != 0)
             for i in range(m)]
        leave = -1
        best = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave < 0:
            raise SimplexFailure("objective is unbounded below")
        piv = d[leave]
        binv[leave] = [v / piv for v in binv[leave]]
        xb[leave] = xb[leave] / piv
        for i in range(m):
            if i != leave and d[i] != 0:
                f = d[i]
                binv[i] = [v - f * w for v, w in zip(binv[i], binv[leave])]
                xb[i] -= f * xb[leave]
        basis[leave] = entering
    raise SimplexFailure("iteration limit exceeded")
