"""The l1 seminorm on homology, computed exactly, with dual certificates.

The seminorm of a cycle z in degree n is the minimum of ||z - d(b)||_1
over chains b of degree n+1.  This is a linear program; it is solved by
an exact rational simplex method, and the simplex multipliers at the
optimum give a functional phi with ||phi||_inf <= 1, phi vanishing on
boundaries, and phi(z) equal to the optimal value.  Both sides of that
equality are verified exactly on every call; a mismatch would mean a
solver bug and raises InternalInvariantError.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from . import exactlp
from .chains import (RING_INT, RING_RAT, Chain, ChainComplex, Cochain,
                     fundamental_cycle)
from .core import InternalInvariantError, Multicomplex, MulticomplexError


class SeminormResult:
    """Optimal value plus certificates for a seminorm computation.

    optimal_representative is z - boundary(bounding_chain) and attains
    the value; dual_certificate pairs with z to the value and has
    sup-norm at most one while vanishing on all boundaries.
    """

    def __init__(self, value, optimal_representative, bounding_chain,
                 dual_certificate):
        self.value = value
        self.optimal_representative = optimal_representative
        self.bounding_chain = bounding_chain
        self.dual_certificate = dual_certificate


def seminorm_l1(cc: ChainComplex, z: Chain) -> SeminormResult:
    """Exact l1 seminorm of the class of the cycle z in its complex."""
    z = z.as_rational()
    n = z.degree
    for key in z.support():
        cc.index_of(n, key)
    if not cc.boundary_of(z).is_zero:
        raise MulticomplexError("seminorm_l1 expects a cycle")
    m = cc.dim(n)
    k = cc.dim(n + 1)
    target = [Fraction(v) for v in cc.vector_of(z)]

    # variables: u_i, w_i with u - w = z - d(b), then b split as p - q
    bnd_cols = [cc.column(n + 1, j) for j in range(k)]
    columns = ([[(i, 1)] for i in range(m)] + [[(i, -1)] for i in range(m)]
               + bnd_cols + [[(r, -coef) for r, coef in col]
                             for col in bnd_cols])
    cost = [1] * (2 * m) + [0] * (2 * k)

    basis = [i if target[i] >= 0 else m + i for i in range(m)]
    res = exactlp.solve(columns, target, cost, basis)

    # the chains and the certificate are built on the solver's int
    # numerators over its denominators; the certification below checks
    # them exactly, the boundary check on the numerators of y
    x, xd = res.x_num, res.x_den
    labels, above = cc.basis(n), cc.basis(n + 1)
    rep = Chain._of_numerators(n, RING_RAT, {
        labels[i]: v for i in range(m) if (v := x[i] - x[m + i])}, xd)
    bchain = Chain._of_numerators(n + 1, RING_RAT, {
        above[j]: v for j in range(k)
        if (v := x[2 * m + j] - x[2 * m + k + j])}, xd)
    if (z - cc.boundary_of(bchain)) != rep:
        raise InternalInvariantError("representative and bounding chain "
                                     "disagree")
    if rep.l1_norm() != res.value:
        raise InternalInvariantError("optimal value does not match the "
                                     "representative norm")
    phi = Cochain._of_numerators(n, RING_RAT, {
        key: v for key, v in zip(labels, res.y_num) if v}, res.y_den)
    if phi.linf_norm() > 1:
        raise InternalInvariantError("dual certificate exceeds sup-norm one")
    _, num = phi.numerators()
    for col in bnd_cols:
        if sum(num.get(labels[r], 0) * coef for r, coef in col):
            raise InternalInvariantError("dual certificate does not vanish "
                                         "on boundaries")
    if phi.pairing(z) != res.value:
        raise InternalInvariantError("duality gap is not zero")
    return SeminormResult(res.value, rep, bchain, phi)


def dual_check(res: SeminormResult, z: Chain) -> bool:
    """True when the dual certificate of res pairs with z to its value.

    seminorm_l1 already refuses to return on a nonzero gap, so this is an
    auditable restatement of that guarantee rather than a new computation.
    """
    return res.dual_certificate.pairing(z) == res.value


class VolumeResult:
    def __init__(self, value, cycle, seminorm):
        self.value = value
        self.cycle = cycle
        self.seminorm = seminorm


def simplicial_volume(mc: Multicomplex) -> VolumeResult:
    """Seminorm of the rational fundamental cycle on this triangulation.

    This measures the fixed complex only: it is the minimal l1 size of a
    real cycle representing the integral fundamental class within the
    given reduced complex, an upper bound for any quantity minimized over
    all triangulations of the same space.
    """
    from .chains import build_reduced_chain_complex

    # one complex serves the integral cycle and the LP
    cc = build_reduced_chain_complex(mc)
    fc = fundamental_cycle(mc, cc)
    res = seminorm_l1(cc, fc)
    return VolumeResult(res.value, fc, res)


class IntegralSeminormResult:
    """Outcome of the bounded integral search.

    best is the least ||z + d(b)||_1 found; certified says whether best
    is proved to be the minimum over the coefficient box, by exhausting
    the box or by reaching the LP dual bound.  status is "exact" or
    "unknown" accordingly.
    """

    def __init__(self, best, certified, bounding_chain, representative):
        self.best = best
        self.certified = certified
        self.bounding_chain = bounding_chain
        self.representative = representative

    @property
    def status(self):
        return "exact" if self.certified else "unknown"


def integral_seminorm_bruteforce(cc: ChainComplex, z: Chain,
                                 coeff_bound: int,
                                 support_bound=None) -> IntegralSeminormResult:
    """Minimum of ||z + d(b)||_1 over integral b with |b_j| <= coeff_bound.

    Depth-first search over the coefficient box with sound pruning.  For
    a cycle z with no support_bound the LP seminorm v is solved first:
    its verified dual certificate phi gives ||z + d(b)||_1 >= phi(z) = v
    for every b, so no integral b does better than ceil(v).  An integral
    LP bounding chain inside the box is then the answer with no search,
    and otherwise the search stops once it reaches ceil(v).  The result
    is certified when best is proved minimal over the box: the box was
    exhausted, or best reached the lower bound (ceil(v), or 0 without
    the LP).  When support_bound caps the number of nonzero coefficients
    of b the search region is truncated, and the result is only
    certified if best is 0 or no truncation happened.
    """
    if z.ring != RING_INT:
        if any(val.denominator != 1 for _, val in z.items()):
            raise MulticomplexError("integral search needs an integral chain")
        z = Chain(z.degree, RING_INT, z.items())
    if coeff_bound < 0:
        raise MulticomplexError("coefficient bound must be >= 0")
    if support_bound is not None and support_bound < 0:
        raise MulticomplexError("support bound must be >= 0")
    n = z.degree
    for key in z.support():
        cc.index_of(n, key)
    m = cc.dim(n)
    k = cc.dim(n + 1)
    res = cc.vector_of(z)
    res = [int(v) for v in res]
    cols = [list(cc.column(n + 1, j)) for j in range(k)]

    # rows no column at position >= j can still change: the first
    # frozen[j] rows by the last column that touches them
    last = [-1] * m
    for j, col in enumerate(cols):
        for r, _ in col:
            last[r] = j
    by_last = sorted(range(m), key=last.__getitem__)
    lasts = sorted(last)
    frozen = [bisect_left(lasts, j) for j in range(k + 1)]
    # largest possible norm decrease by columns at position >= j
    suffix_power = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix_power[j] = suffix_power[j + 1] + coeff_bound * sum(
            abs(c) for _, c in cols[j])

    best = norm0 = sum(abs(v) for v in res)
    bvec, cur, truncated = [0] * k, [0] * k, False
    lower = 0
    if support_bound is None and coeff_bound > 0 and \
            cc.boundary_of(z).is_zero:
        lp = seminorm_l1(cc, z)
        lower = math.ceil(lp.value)
        b = [-v for v in cc.vector_of(lp.bounding_chain)]
        if all(v.denominator == 1 and abs(v) <= coeff_bound for v in b):
            best, bvec = lower, [int(v) for v in b]

    # depth-first over the columns, values 0, 1, -1, 2, -2, ... in order;
    # the frame [norm, used, next value index] of column j sits at
    # stack[j], since a complex can have more columns than Python allows
    # nested calls
    stack, child = [], (norm0, 0)
    while (child or stack) and best > lower:
        if child:
            norm, used = child
            j, child = len(stack), None
            if norm < best:
                best, bvec = norm, list(cur)
            if j < k and norm - suffix_power[j] < best and \
                    sum(abs(res[r]) for r in by_last[:frozen[j]]) < best:
                stack.append([norm, used, 0])
            continue
        j = len(stack) - 1
        frame = stack[j]
        norm, used, idx = frame
        if cur[j]:  # back from the child: undo the value it was given
            for r, c in cols[j]:
                res[r] -= c * cur[j]
            cur[j] = 0
        if idx > 2 * coeff_bound:
            stack.pop()
            continue
        frame[2] = idx + 1
        val = (idx + 1) // 2 if idx & 1 else -(idx // 2)
        if val == 0:
            child = (norm, used)
        elif support_bound is not None and used >= support_bound:
            truncated = True
        else:
            for r, c in cols[j]:
                delta = c * val
                norm += abs(res[r] + delta) - abs(res[r])
                res[r] += delta
            cur[j] = val
            child = (norm, used + 1)

    certified = best == lower or not truncated
    bchain = cc.chain_from_vector(n + 1, bvec, RING_INT)
    rep = z + cc.boundary_of(bchain)
    if rep.l1_norm() != best:
        raise InternalInvariantError("integral search witness mismatch")
    return IntegralSeminormResult(best, certified, bchain, rep)
