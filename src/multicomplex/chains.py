"""Chains, cochains and homology of multicomplexes.

The chain module of a multicomplex in degree n is free on algebraic
simplices: a simplex id together with an ordering of its vertices.  Every
geometric n-simplex therefore spans (n+1)! basis elements.  The reduced
complex identifies an ordering with its sign times the sorted ordering
and kills tuples with repeated entries, leaving one basis element per
geometric simplex.  Both carry an l1 norm on chains and an linf norm on
cochains.

One builder makes the full, repeated-vertex, reduced and relative
complexes; they differ only in the tuples listed and simplices skipped.
The boundary, projection, alternation, group action and group average
all run on one fraction-free push-forward kernel, _push_forward.

Homology is computed exactly from one integer Smith normal form per
boundary map, handed over as sparse rows built from the sparse columns
the complex holds.  Rational homology is read off the same factorization,
since H(C;Q) = H(C;Z) (x) Q: the Betti numbers are the free ranks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import NamedTuple

from . import intlinalg
from .core import (Multicomplex, MulticomplexError, StructureError,
                   UnknownIdError, _fmt_vset)

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


def _numerators(terms):
    """(den, [(key, n)]): each value of terms as n/den, den their lcm."""
    terms = list(terms)
    den = lcm(*(v.denominator for _, v in terms))
    return den, [(key, v.numerator * (den // v.denominator))
                 for key, v in terms]


def _push_forward(terms, images, count=1) -> dict:
    """The terms of (1/count) sum_{(key, v)} sum_{(c, image) in images(key)}
    c.v.image, for int c, with keys visited in the order given.  Sums run
    on int numerators over the lcm of the input denominators; each output
    value is an int when the denominator is 1, else a Fraction."""
    den, nums = _numerators(terms)
    acc = {}
    for key, n in nums:
        for c, image in images(key):
            acc[image] = acc.get(image, 0) + c * n
    den *= count
    return {key: n if den == 1 else Fraction(n, den)
            for key, n in acc.items() if n}


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """Finitely generated complex with ordered bases of algebraic simplices.

    boundary columns are sparse (row index, integer coefficient) lists;
    degree 0 has the zero boundary.  The ring tag is the default ring for
    chains built against this complex.
    """

    def __init__(self, ring, basis, columns):
        _check_ring(ring)
        self.ring = ring
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
                for row, _ in col:
                    if not 0 <= row < below:
                        raise StructureError(
                            "boundary row index out of range in degree %d" % n)

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

    def chain(self, degree, terms, ring=None) -> Chain:
        ch = Chain(degree, ring or self.ring, terms)
        for key in ch.support():
            self.index_of(degree, key)
        return ch

    def cochain(self, degree, terms, ring=None) -> Cochain:
        co = Cochain(degree, ring or self.ring, terms)
        for key in co.support():
            self.index_of(degree, key)
        return co

    def vector_of(self, chain: Chain):
        vec = [0] * self.dim(chain.degree)
        for key, val in chain.items():
            vec[self.index_of(chain.degree, key)] = val
        return vec

    def chain_from_vector(self, degree, vec, ring=None) -> Chain:
        labels = self.basis(degree)
        return Chain(degree, ring or self.ring,
                     {labels[i]: v for i, v in enumerate(vec) if v != 0})

    def boundary_of(self, chain: Chain) -> Chain:
        n = chain.degree
        labels = self.basis(n - 1)
        columns = self._columns.get(n, ())

        def faces(key):
            return [(coef, labels[row])
                    for row, coef in columns[self.index_of(n, key)]]
        return Chain(n - 1, chain.ring,
                     _push_forward(chain._terms.items(), faces))

    def coboundary_of(self, cochain: Cochain) -> Cochain:
        """The functional sending a degree-(n+1) simplex to phi(boundary)."""
        n = cochain.degree
        out = {}
        labels = self.basis(n)
        for j, key in enumerate(self.basis(n + 1)):
            total = 0
            for row, coef in self._columns.get(n + 1, ())[j]:
                val = cochain._terms.get(labels[row])
                if val is not None:
                    total += coef * val
            if total != 0:
                out[key] = total
        return Cochain(n + 1, cochain.ring, out)

    def boundary_squares_to_zero(self) -> bool:
        """Exact check that consecutive boundary maps compose to zero."""
        for n in self.degrees():
            if n < 2 or not self._columns.get(n):
                continue
            lower = self._columns.get(n - 1, ())
            for col in self._columns[n]:
                acc = {}
                for row, coef in col:
                    for row2, coef2 in lower[row]:
                        acc[row2] = acc.get(row2, 0) + coef * coef2
                if any(v != 0 for v in acc.values()):
                    return False
        return True


def _all_orderings(vs, n):
    return permutations(vs) if len(vs) == n + 1 else ()


def _sorted_tuple(vs, n):
    return (vs,) if len(vs) == n + 1 else ()


def _covering_tuples(vs, n):
    return [t for t in product(vs, repeat=n + 1) if len(set(t)) == len(vs)]


def _top(mc: Multicomplex, max_degree):
    return (mc.dimension if max_degree is None
            else min(max_degree, mc.dimension))


def _build(mc: Multicomplex, top, ring, tuples, skip=frozenset()):
    """The complex in degrees 0..top whose degree-n basis is (sid; t) for
    t in tuples(vs, n), vs the sorted vertices of sid, over the ids not
    in skip in sorted order.  Face i of (sid; t) drops t[i]: it stays on
    sid when t[i] occurs again in t, and otherwise lies on the facet of
    sid over the rest.  Faces on a skipped simplex are dropped; a facet
    that is missing or spans the wrong vertices raises StructureError.
    """
    shape = [(sid, mc.vertex_set(sid), tuple(sorted(mc.vertex_set(sid))),
              mc.facets(sid)) for sid in sorted(mc.simplex_ids)
             if sid not in skip]
    basis, columns, index = {}, {}, {}
    for n in range(top + 1):
        labels, cols = [], []
        for sid, vset, vs, facets in shape:
            if len(vs) > n + 1:  # no (n+1)-tuple covers vs
                continue
            for t in tuples(vs, n):
                labels.append(AlgebraicSimplex(sid, t))
                col = []
                for i, v in enumerate(t if n else ()):
                    rest = t[:i] + t[i + 1:]
                    fid = sid if v in rest else facets.get(vset - {v})
                    if fid in skip and mc.vertex_set(fid) == set(rest):
                        continue
                    # a plain tuple finds the equal AlgebraicSimplex key
                    row = index.get((fid, rest))
                    if row is None:
                        raise StructureError(
                            "the facet of %r over %s is %s"
                            % (sid, _fmt_vset(vset - {v}),
                               "missing" if fid is None else
                               "%r, which spans %s"
                               % (fid, _fmt_vset(mc.vertex_set(fid)))))
                    col.append((row, -1 if i & 1 else 1))
                if len(vs) <= n:  # repeated entries: equal faces add up
                    col = list(_push_forward(
                        col, lambda row: ((1, row),)).items())
                cols.append(col)
        basis[n], columns[n] = labels, cols
        index = {lab: i for i, lab in enumerate(labels)}
    return ChainComplex(ring, basis, columns)


def build_full_chain_complex(mc: Multicomplex, max_degree=None,
                             ring=RING_RAT,
                             with_repeats=False) -> ChainComplex:
    """All orderings of all simplices, with the simplicial boundary.

    By default tuples with repeated vertices are not generated: every
    degree-n basis element is one of the (n+1)! orderings of a geometric
    n-simplex.  With with_repeats=True the degree-n basis consists of all
    length-(n+1) tuples covering the vertex set of some simplex of
    dimension at most n; this larger complex is nonzero in every degree,
    so an explicit max_degree is required, and it supplies the bounding
    chains that make class seminorms agree with the reduced complex.
    """
    if not with_repeats:
        return _build(mc, _top(mc, max_degree), ring, _all_orderings)
    if max_degree is None:
        raise StructureError(
            "the complex with repeated-vertex tuples is nonzero in every "
            "degree; pass an explicit max_degree")
    return _build(mc, max_degree, ring, _covering_tuples)


def build_reduced_chain_complex(mc: Multicomplex, max_degree=None,
                                ring=RING_RAT) -> ChainComplex:
    """One basis element per geometric simplex, in the sorted ordering
    (dropping a vertex keeps it sorted, so projection adds no signs)."""
    return _build(mc, _top(mc, max_degree), ring, _sorted_tuple)


def build_relative_complex(mc: Multicomplex, sub_ids, variant="reduced",
                           max_degree=None, ring=RING_RAT) -> ChainComplex:
    """The quotient complex of mc by a facet-closed set of simplex ids."""
    sub = frozenset(sub_ids)
    for sid in sub:
        for fid in mc.facets(sid).values():
            if fid not in sub:
                raise StructureError(
                    "subcomplex ids are not facet-closed: %r needs %r"
                    % (sid, fid))
    tuples = {"reduced": _sorted_tuple, "full": _all_orderings}.get(variant)
    if tuples is None:
        raise StructureError("unknown complex variant %r" % variant)
    return _build(mc, _top(mc, max_degree), ring, tuples, sub)


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
    return Chain(chain.degree, chain.ring,
                 _push_forward(chain.items(), canon))


def section_chain(chain: Chain) -> Chain:
    """Reduced-to-full section: the sorted tuple represents its class."""
    for key in chain.support():
        if tuple(sorted(key.vertices)) != key.vertices:
            raise StructureError(
                "%s is not in canonical (sorted) form" % (key,))
        if len(set(key.vertices)) != len(key.vertices):
            raise StructureError("%s has repeated vertices" % (key,))
    return Chain(chain.degree, chain.ring, dict(chain.items()))


def alternate(chain: Chain | Cochain) -> Chain | Cochain:
    """Average the signed orderings of every term (a chain map, and a
    projection onto alternating chains).  The result is a Chain or a
    Cochain like the input, with rational ring.  The (k+1)! orderings
    are listed only when some term survives."""
    k = chain.degree
    # symmetrization cancels in pairs on repeated entries
    live = [(key, v) for key, v in chain.items()
            if len(set(key.vertices)) == len(key.vertices)]
    if not live:
        return type(chain)(k, RING_RAT)
    perms = [(permutation_sign(p), p) for p in permutations(range(k + 1))]

    def orderings(key):
        vs = key.vertices
        return [(sign, AlgebraicSimplex(key.simplex, tuple(vs[i] for i in p)))
                for sign, p in perms]
    return type(chain)(k, RING_RAT,
                       _push_forward(live, orderings, len(perms)))


def is_alternating(chain: Chain | Cochain) -> bool:
    ref = type(chain)(chain.degree, RING_RAT, dict(chain.items()))
    return alternate(chain) == ref


# ---------------------------------------------------------------------------
# homology


class HomologyResult:
    """Lazy exact homology of a chain complex over Z or Q.

    Each boundary matrix is factored once, by an integer Smith normal
    form cached by degree, and both rings are read off it, since
    H(C;Q) = H(C;Z) (x) Q.  Over Z, structure(n) is (free rank, list of
    invariant factors > 1), with one generator per torsion factor and
    then one per free summand.  Over Q it is (betti, []) and the free
    generators alone, which form a Q-basis.  Generators are returned as
    chains over the homology ring.  is_boundary returns an explicit
    bounding chain when one exists, which makes are_homologous a
    certified check.
    """

    def __init__(self, cc: ChainComplex, ring=None):
        self.cc = cc
        self.ring = ring or cc.ring
        _check_ring(self.ring)
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

    def betti(self, n) -> int:
        if self.ring != RING_RAT:
            raise StructureError("betti numbers are the rational structure")
        return self._data(n)[0][0]

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

    # -- cycle and boundary queries ------------------------------------

    def is_cycle(self, chain: Chain) -> bool:
        return self.cc.boundary_of(chain).is_zero

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

    def are_homologous(self, c1: Chain, c2: Chain):
        """(True, witness) when c1 - c2 bounds; (False, None) otherwise."""
        if not self.is_cycle(c1) or not self.is_cycle(c2):
            raise StructureError("are_homologous expects two cycles")
        w = self.is_boundary(c1 - c2)
        return (w is not None), w


def homology(cc: ChainComplex, ring=None) -> HomologyResult:
    return HomologyResult(cc, ring)


def fundamental_cycle(mc: Multicomplex, degree=None, ring=RING_INT) -> Chain:
    """The positively-normalized generator of degree-n homology, when it is
    infinite cyclic; raises NoFundamentalCycleError otherwise.

    degree defaults to the dimension of the complex."""
    n = mc.dimension if degree is None else degree
    if n < 0:
        raise NoFundamentalCycleError("the complex is empty")
    # purity: every maximal simplex must have dimension exactly n
    has_coface = set()
    for sid in mc.simplex_ids:
        for fid in mc.facets(sid).values():
            has_coface.add(fid)
    for sid in mc.simplex_ids:
        if sid not in has_coface and mc.dimension_of(sid) != n:
            raise NoFundamentalCycleError(
                "the complex is not pure in degree %d: %r is maximal with "
                "dimension %d" % (n, sid, mc.dimension_of(sid)))
    cc = build_reduced_chain_complex(mc, ring=ring)
    hom = HomologyResult(cc, ring)
    if ring == RING_INT:
        free, torsion = hom.structure(n)
        if free != 1 or torsion:
            raise NoFundamentalCycleError(
                "top homology in degree %d is not infinite cyclic "
                "(free rank %d, torsion %s)" % (n, free, torsion))
    else:
        if hom.betti(n) != 1:
            raise NoFundamentalCycleError(
                "top homology in degree %d has dimension %d, not 1"
                % (n, hom.betti(n)))
    gen = hom.generators(n)[0]
    # normalize the sign so the lexicographically first term is positive
    first = gen.support()[0]
    if gen.coefficient(first) < 0:
        gen = -gen
    return gen
