"""Chains, cochains and homology of multicomplexes.

The chain module of a multicomplex in degree n is free on algebraic
simplices: a simplex id together with an ordering of its vertices.  Every
geometric n-simplex therefore spans (n+1)! basis elements.  The reduced
complex identifies an ordering with its sign times the sorted ordering
and kills tuples with repeated entries, leaving one basis element per
geometric simplex.  Both carry an l1 norm on chains and an linf norm on
cochains.

Chains, cochains, and the functions and measures of the diffusion
module keep their values in one fraction-free store, _FractionFree, so
sums, push-forwards, norms and convolutions run on int numerators and
build a Fraction only for a value that leaves the store, in the manner
of the fraction-free eliminations of Bareiss (1968).

One builder makes the full, reduced and relative complexes; they differ
only in the tuples listed and simplices skipped.  The boundary,
projection, alternation and group action all run on one push-forward
kernel of numerators, _push_forward; the group average is the orbit mean
(actions.average_cochain).

A complex holds integer boundary columns and no ring; homology and the
chains built against a complex take the ring as an argument.  Homology
is computed exactly from one integer Smith normal form per boundary map,
handed over as sparse rows built from the sparse columns the complex
holds.  Rational homology is read off the same factorization, since
H(C;Q) = H(C;Z) (x) Q: the Betti numbers are the free ranks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from . import intlinalg
from .core import (Multicomplex, MulticomplexError, StructureError,
                   UnknownIdError)

RING_INT = "Z"
RING_RAT = "Q"


class NoFundamentalCycleError(MulticomplexError):
    """Top homology is not infinite cyclic; carries a diagnostic."""


class AlgebraicSimplex(NamedTuple):
    simplex: str
    vertices: tuple

    def __str__(self):
        return "(%s;%s)" % (self.simplex, ",".join(self.vertices))


def _check_ring(ring):
    if ring not in (RING_INT, RING_RAT):
        raise StructureError("unknown coefficient ring %r" % ring)


def _coerce(ring, value):
    if ring == RING_INT:
        iv = int(value)
        if iv != value:
            raise StructureError(
                "coefficient %r is not an integer" % (value,))
        return iv
    return Fraction(value)


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting seq (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                sign = -sign
    return sign


class _FractionFree:
    """Finitely supported rational values: the value at a key is
    _num[key]/_den, each numerator a nonzero int and _den the least
    positive common denominator (1 when there are no values), so equal
    values have one stored form.  Subclasses add their own checks, and
    _like(num, den), the values num/den on the space of self."""

    __slots__ = ("_num", "_den")
    _order = None  # the sort key of support(); None sorts the keys

    def _store(self, num, den):
        """Keep num over den without its zeros, over the least den.  The
        dict num itself is kept when it has no zero and den is least, so
        the caller must not change it afterwards."""
        if not all(num.values()):
            num = {key: n for key, n in num.items() if n}
        g = gcd(den, *num.values())
        if g > 1:
            num = {key: n // g for key, n in num.items()}
            den //= g
        self._num = num
        self._den = den
        return self

    def _store_values(self, pairs):
        """Keep value v at key for each (key, v) in pairs; repeats add up."""
        den, pairs = _numerators(pairs)
        num = {}
        for key, n in pairs:
            num[key] = num.get(key, 0) + n
        return self._store(num, den)

    def _check_like(self, other):
        if type(other) is not type(self):
            raise StructureError("cannot combine %s with %s"
                                 % (type(self).__name__, type(other).__name__))

    def _space(self) -> tuple:
        """What besides the values two equal stores share."""
        return ()

    def numerators(self):
        """(den, num): the value at each key of the read-only mapping num
        is num[key]/den, with no zero in num and den the least."""
        return self._den, MappingProxyType(self._num)

    def support(self) -> list:
        return sorted(self._num, key=self._order)

    def items(self) -> list:
        # one Fraction per distinct value: a box measure has one for all
        num = self._num
        values = {n: Fraction(n, self._den) for n in set(num.values())}
        return [(key, values[num[key]]) for key in self.support()]

    def __len__(self) -> int:
        return len(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        return (type(other) is type(self) and self._den == other._den
                and self._num == other._num
                and self._space() == other._space())

    def _combine(self, other, sign):
        self._check_like(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        out = {key: n * a for key, n in self._num.items()}
        for key, n in other._num.items():
            out[key] = out.get(key, 0) + n * b
        return self._like(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        factor = Fraction(factor)
        p = factor.numerator
        return self._like({key: n * p for key, n in self._num.items()},
                          self._den * factor.denominator)

    def l1_norm(self) -> Fraction:
        return Fraction(sum(map(abs, self._num.values())), self._den)

    def total(self) -> Fraction:
        return Fraction(sum(self._num.values()), self._den)


class _SparseModule(_FractionFree):
    """Shared behaviour of Chain and Cochain: degree-n terms over a ring;
    over Z the denominator is 1."""

    __slots__ = ("degree", "ring")

    def __init__(self, degree, ring, terms=None):
        _check_ring(ring)
        self.degree = degree
        self.ring = ring
        pairs = []
        for key, val in (terms.items() if hasattr(terms, "items")
                         else terms or ()):
            if not isinstance(key, AlgebraicSimplex):
                key = AlgebraicSimplex(key[0], tuple(key[1]))
            if len(key.vertices) != degree + 1:
                raise StructureError(
                    "term %s has %d vertices but the degree is %d"
                    % (key, len(key.vertices), degree))
            pairs.append((key, _coerce(ring, val)))
        self._store_values(pairs)

    @classmethod
    def _of_numerators(cls, degree, ring, num, den=1):
        """The terms n/den at key for each key: n in num; the keys must
        be AlgebraicSimplex of the degree, and den 1 over Z."""
        new = cls.__new__(cls)
        new.degree = degree
        new.ring = ring
        return new._store(num, den)

    def _like(self, num, den):
        return self._of_numerators(self.degree, self.ring, num, den)

    def _check_like(self, other):
        super()._check_like(other)
        if other.degree != self.degree or other.ring != self.ring:
            raise StructureError("degree or ring mismatch in combination")

    def _space(self) -> tuple:
        return self.degree, self.ring

    def as_rational(self):
        """The same terms over Q (self when it is over Q)."""
        if self.ring == RING_RAT:
            return self
        return self._of_numerators(self.degree, RING_RAT, self._num)

    def coefficient(self, key) -> Fraction:
        if not isinstance(key, AlgebraicSimplex):
            key = AlgebraicSimplex(key[0], tuple(key[1]))
        return Fraction(self._num.get(key, 0), self._den)

    def scaled(self, factor):
        return super().scaled(_coerce(self.ring, factor))

    def __repr__(self):
        body = " + ".join("%s*%s" % (v, k) for k, v in self.items())
        return "%s(%d;%s)[%s]" % (type(self).__name__, self.degree,
                                  self.ring, body or "0")


class Chain(_SparseModule):
    """A finite formal sum of algebraic simplices."""


class Cochain(_SparseModule):
    """A linear functional on chains, zero outside its support."""

    def linf_norm(self) -> Fraction:
        return Fraction(max(map(abs, self._num.values()), default=0),
                        self._den)

    def pairing(self, chain: Chain) -> Fraction:
        if chain.degree != self.degree:
            raise StructureError("cochain and chain degrees differ")
        get = self._num.get
        return Fraction(sum(n * get(key, 0) for key, n in chain._num.items()),
                        self._den * chain._den)


def _numerators(pairs):
    """(den, [(key, n)]): each value v of pairs as n/den, den the lcm of
    their denominators."""
    pairs = list(pairs)
    den = lcm(*(v.denominator for _, v in pairs))
    return den, [(key, v.numerator * (den // v.denominator))
                 for key, v in pairs]


def _push_forward(pairs, images) -> dict:
    """The nonzero int numerators of sum_{(key, n)} sum_{(c, image) in
    images(key)} c.n.image, for int n and c, with keys visited in the
    order given; the caller keeps the denominator."""
    acc = {}
    for key, n in pairs:
        for c, image in images(key):
            acc[image] = acc.get(image, 0) + c * n
    return {key: n for key, n in acc.items() if n}


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """Finitely generated complex with ordered bases of algebraic simplices.

    boundary columns are sparse (row index, int coefficient) lists, and
    the constructor refuses any other coefficient type; degree 0 has the
    zero boundary.  The columns serve every ring, so chains built
    against the complex name theirs.
    """

    def __init__(self, basis, columns):
        self._basis = {n: tuple(labels) for n, labels in basis.items()}
        self._index = {n: {lab: i for i, lab in enumerate(labels)}
                       for n, labels in self._basis.items()}
        for n, labels in self._basis.items():
            if len(self._index[n]) != len(labels):
                raise StructureError("degree %d basis has duplicates" % n)
        self._columns = {n: tuple(tuple(col) for col in cols)
                         for n, cols in columns.items()}
        for n, labels in self._basis.items():
            if labels and n not in self._columns:
                raise StructureError(
                    "degree %d has basis elements but no boundary columns"
                    % n)
        for n, cols in self._columns.items():
            if len(cols) != len(self._basis.get(n, ())):
                raise StructureError(
                    "degree %d has %d boundary columns for %d basis elements"
                    % (n, len(cols), len(self._basis.get(n, ()))))
            below = len(self._basis.get(n - 1, ()))
            for col in cols:
                for row, coef in col:
                    if not 0 <= row < below:
                        raise StructureError(
                            "boundary row index out of range in degree %d" % n)
                    if type(coef) is not int:
                        raise StructureError(
                            "boundary coefficient %r in degree %d is not an "
                            "int" % (coef, n))

    def degrees(self):
        return sorted(self._basis)

    def dim(self, n) -> int:
        return len(self._basis.get(n, ()))

    def basis(self, n):
        return self._basis.get(n, ())

    def index_of(self, n, label) -> int:
        try:
            return self._index[n][label]
        except KeyError:
            raise UnknownIdError(
                "%s is not a degree-%d basis element" % (label, n)) from None

    def column(self, n, j):
        return self._columns.get(n, ())[j]

    def boundary_matrix(self, n):
        """The boundary from degree n to n-1 as dim(n-1) sparse rows
        {column: coefficient}, over dim(n) columns."""
        rows = [{} for _ in range(self.dim(n - 1))]
        for j, col in enumerate(self._columns.get(n, ())):
            for row, coef in col:
                rows[row][j] = rows[row].get(j, 0) + coef
        return rows

    def chain(self, degree, terms, ring) -> Chain:
        ch = Chain(degree, ring, terms)
        for key in ch.support():
            self.index_of(degree, key)
        return ch

    def vector_of(self, chain: Chain):
        vec = [0] * self.dim(chain.degree)
        for key, val in chain.items():
            vec[self.index_of(chain.degree, key)] = val
        return vec

    def chain_from_vector(self, degree, vec, ring) -> Chain:
        labels = self.basis(degree)
        return Chain(degree, ring,
                     {labels[i]: v for i, v in enumerate(vec) if v != 0})

    def boundary_of(self, chain: Chain) -> Chain:
        n = chain.degree
        labels = self.basis(n - 1)
        columns = self._columns.get(n, ())

        def faces(key):
            return [(coef, labels[row])
                    for row, coef in columns[self.index_of(n, key)]]
        return Chain._of_numerators(
            n - 1, chain.ring, _push_forward(chain._num.items(), faces),
            chain._den)


def _sorted_tuple(vs):
    return (vs,)


def _build(mc: Multicomplex, tuples, skip=frozenset()):
    """The complex in degrees 0..mc.dimension whose degree-n basis is
    (sid; t) for t in tuples(vs), vs the sorted vertices of an n-simplex
    sid not in skip, in sorted order of the ids.  Face i of (sid; t)
    drops t[i] and lies on the facet of sid over the rest, read from
    mc.drop_map(sid) once per listed simplex, which raises validate's
    first problem for a simplex with no vertices or wrong facets.  Faces
    on a skipped simplex are dropped.  All the orderings of the
    simplices, when more than MAX_FULL_ORDERINGS, raise StructureError
    before any is listed.
    """
    top = mc.dimension
    listed = [sid for sid in sorted(mc.simplex_ids) if sid not in skip]
    if tuples is permutations:
        dims = Counter(map(mc.dimension_of, listed))
        work = sum(_orderings(count, k) for k, count in dims.items())
        if work > MAX_FULL_ORDERINGS:
            raise StructureError(
                "the full chain complex of %d simplex(es) in degrees 0..%d "
                "would list at least %d orderings, over the limit of %d"
                % (len(listed), top, work, MAX_FULL_ORDERINGS))
    shape = [(sid, mc.sorted_vertices(sid), mc.drop_map(sid))
             for sid in listed]
    basis, columns, index = {}, {}, {}
    for n in range(top + 1):
        labels, cols = [], []
        for sid, vs, drop in shape:
            if len(vs) != n + 1:
                continue
            for t in tuples(vs):
                labels.append(AlgebraicSimplex(sid, t))
                col = []
                for i, v in enumerate(t if n else ()):
                    fid = drop[v]
                    if fid not in skip:
                        # a plain tuple finds the equal AlgebraicSimplex key
                        col.append((index[fid, t[:i] + t[i + 1:]],
                                    -1 if i & 1 else 1))
                cols.append(col)
        basis[n], columns[n] = labels, cols
        index = {lab: i for i, lab in enumerate(labels)}
    return ChainComplex(basis, columns)


def build_full_chain_complex(mc: Multicomplex) -> ChainComplex:
    """All orderings of all simplices, with the simplicial boundary: every
    degree-n basis element is one of the (n+1)! orderings of a geometric
    n-simplex, and more than MAX_FULL_ORDERINGS of them in all raise
    StructureError before any is listed."""
    return _build(mc, permutations)


def build_reduced_chain_complex(mc: Multicomplex) -> ChainComplex:
    """One basis element per geometric simplex, in the sorted ordering
    (dropping a vertex keeps it sorted, so projection adds no signs)."""
    return _build(mc, _sorted_tuple)


def build_relative_complex(mc: Multicomplex, sub_ids) -> ChainComplex:
    """The reduced quotient complex of mc by a facet-closed set of simplex
    ids."""
    sub = frozenset(sub_ids)
    mc.check_facet_closed(sub)
    return _build(mc, _sorted_tuple, sub)


# ---------------------------------------------------------------------------
# projection, section, alternation


def project_chain(chain: Chain) -> Chain:
    """Full-to-reduced projection: sort each tuple, pick up the sign,
    kill tuples with repeated vertices."""
    def canon(key):
        vs = key.vertices
        if len(set(vs)) != len(vs):
            return ()
        return [(permutation_sign(vs),
                 AlgebraicSimplex(key.simplex, tuple(sorted(vs))))]
    return Chain._of_numerators(
        chain.degree, chain.ring,
        _push_forward(sorted(chain._num.items()), canon), chain._den)


# The most (term, ordering) pairs alternate may list.  alternate lists
# all (k+1)! orderings of every surviving term of degree k.  One term of
# degree 8 (362,880 orderings) took 5.8 s, one of degree 7 (40,320)
# 0.43 s, and 10,000 terms of degree 3 (240,000) 2.1 s, on one core of an
# Intel Xeon under CPython 3.11; the cost per ordering grows with k, so
# the limit stands for roughly 15 s.
MAX_ORDERINGS = 10 ** 6

# The most orderings of simplices a full chain complex may hold.  On one
# core of a 2-vCPU Intel Xeon under CPython 3.11, the full complexes of
# the 5-, 6- and 7-simplex and of two and three disjoint 7-simplices
# (1,956, 13,699, 109,600, 219,200 and 328,800 orderings) took 0.01,
# 0.08, 1.02, 2.9 and 5.2 s to build at 1.4, 10.7, 94, 189 and 287 MiB
# tracemalloc peak; the limit stands for about 1.5 s and 115 MiB.
MAX_FULL_ORDERINGS = 2 ** 17


def _orderings(count: int, k: int) -> int:
    """count x (k+1)!, or a partial product of it once that is over
    MAX_ORDERINGS, so that a huge k costs nothing."""
    work = count
    for n in range(2, k + 2):
        if not 0 < work <= MAX_ORDERINGS:
            break
        work *= n
    return work


def _limit_orderings(what: str, count: int, k: int) -> None:
    """Raise StructureError, before any is listed, when count x (k+1)!
    orderings are more than MAX_ORDERINGS; what % count names them."""
    if _orderings(count, k) > MAX_ORDERINGS:
        raise StructureError(
            "%s of degree %d would list %d x %d! orderings, over the "
            "limit of %d" % (what % count, k, count, k + 1, MAX_ORDERINGS))


def alternate(chain: Chain | Cochain) -> Chain | Cochain:
    """Average the signed orderings of every term (a chain map, and a
    projection onto alternating chains).  The result is a Chain or a
    Cochain like the input, with rational ring.  The (k+1)! orderings
    are listed only when some term survives, and more than MAX_ORDERINGS
    of them in all raise StructureError before any is listed."""
    k = chain.degree
    # symmetrization cancels in pairs on repeated entries
    live = [(key, n) for key, n in sorted(chain._num.items())
            if len(set(key.vertices)) == len(key.vertices)]
    if not live:
        return type(chain)(k, RING_RAT)
    _limit_orderings("alternating %d term(s)", len(live), k)
    perms = [(permutation_sign(p), p) for p in permutations(range(k + 1))]

    def orderings(key):
        vs = key.vertices
        return [(sign, AlgebraicSimplex(key.simplex, tuple(vs[i] for i in p)))
                for sign, p in perms]
    return type(chain)._of_numerators(
        k, RING_RAT, _push_forward(live, orderings), chain._den * len(perms))


# ---------------------------------------------------------------------------
# homology


class HomologyResult:
    """Lazy exact homology of a chain complex over the ring given, Z or Q.

    Each boundary matrix is factored once, by an integer Smith normal
    form cached by degree; Q reads the same factorization, since
    H(C;Q) = H(C;Z) (x) Q.  Over Z, structure(n) is (free rank, list of
    invariant factors > 1), with one generator per torsion factor and
    then one per free summand.  Over Q it is (betti, []) and the free
    generators alone, which form a Q-basis.  Generators are returned as
    chains over the ring.  is_boundary returns an explicit bounding
    chain when one exists, which one boundary checks.

    A factorization builds only the factors its caller reads (see
    intlinalg.SmithForm).  structure and generators read V and Vinv of
    the boundary from degree n, and then Uinv alone of a second Smith
    form, of the image in cycle coordinates, through its cokernel.
    is_boundary reads U and V of the boundary into the chain's degree.
    """

    def __init__(self, cc: ChainComplex, ring):
        _check_ring(ring)
        self.cc = cc
        self.ring = ring
        self._cache = {}
        self._factors = {}
        self._rows = {}

    def _boundary_rows(self, m):
        """Sparse rows of the boundary from degree m, built once."""
        if m not in self._rows:
            self._rows[m] = self.cc.boundary_matrix(m)
        return self._rows[m]

    def _factor(self, m):
        """Smith form of the boundary from degree m to degree m-1."""
        if m not in self._factors:
            self._factors[m] = intlinalg.smith_form(
                self._boundary_rows(m), self.cc.dim(m))
        return self._factors[m]

    def structure(self, n):
        return self._data(n)[0]

    def generators(self, n):
        gens = self._data(n)[1]
        return [self.cc.chain_from_vector(n, g, self.ring) for g in gens]

    def _data(self, n):
        if n in self._cache:
            return self._cache[n]
        sf = self._factor(n)
        # the columns of V past the rank are a saturated basis of the
        # cycles, and rows of Vinv past the rank give coordinates in it;
        # both products run over nonzero entries only
        image = self._boundary_rows(n + 1)
        coords = []
        for row in sf.Vinv_rows[sf.rank:]:
            out = {}
            for i, x in row.items():
                for j, c in image[i].items():
                    out[j] = out.get(j, 0) + x * c
            coords.append(out)
        torsion, free, coeffs = intlinalg.smith_form(
            coords, self.cc.dim(n + 1)).cokernel()
        kernel = sf.V_cols[sf.rank:]
        gens = []
        for cv in coeffs:
            gen = [0] * sf.cols
            for k, y in cv.items():
                for i, x in kernel[k].items():
                    gen[i] += y * x
            gens.append(gen)
        if self.ring == RING_RAT:
            torsion, gens = [], gens[len(torsion):]
        self._cache[n] = res = ((free, torsion), gens)
        return res

    def is_boundary(self, chain: Chain):
        """An explicit chain b with boundary(b) == chain, or None.

        Solved on the cached factorization of the boundary into the
        chain's degree; over Z a chain with a non-integral coefficient
        raises StructureError.
        """
        n = chain.degree
        target = [_coerce(self.ring, x) for x in self.cc.vector_of(chain)]
        sol = self._factor(n + 1).solve(target,
                                       integral=self.ring == RING_INT)
        if sol is None:
            return None
        return self.cc.chain_from_vector(n + 1, sol, chain.ring)


def fundamental_cycle(mc: Multicomplex, cc: ChainComplex) -> Chain:
    """The positively-normalized generator of the integral homology of mc
    in its top degree, when that is infinite cyclic; raises
    NoFundamentalCycleError otherwise.  cc is the reduced complex of mc.
    Top homology has no torsion, so exactly the complexes of top rational
    Betti number 1 pass."""
    n = mc.dimension
    if n < 0:
        raise NoFundamentalCycleError("the complex is empty")
    # purity: every maximal simplex must have dimension exactly n
    has_coface = set()
    for sid in mc.simplex_ids:
        has_coface.update(mc.drop_map(sid).values())
    for sid in mc.simplex_ids:
        if sid not in has_coface and mc.dimension_of(sid) != n:
            raise NoFundamentalCycleError(
                "the complex is not pure in degree %d: %r is maximal with "
                "dimension %d" % (n, sid, mc.dimension_of(sid)))
    hom = HomologyResult(cc, RING_INT)
    free, torsion = hom.structure(n)
    if free != 1 or torsion:
        raise NoFundamentalCycleError(
            "top homology in degree %d is not infinite cyclic "
            "(free rank %d, torsion %s)" % (n, free, torsion))
    gen = hom.generators(n)[0]
    # normalize the sign so the lexicographically first term is positive
    first = gen.support()[0]
    if gen.coefficient(first) < 0:
        gen = -gen
    return gen
