"""Exact integer and rational linear algebra."""

import random
from fractions import Fraction

import pytest
from conftest import random_multicomplex
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import SmithForm as DenseSmithForm
from reference import (dense, dense_factors, identity_matrix, mat_vec,
                       matmul, rational_rank)
from reference import smith_form as dense_smith_form

from multicomplex.chains import (build_full_chain_complex,
                                 build_reduced_chain_complex)
from multicomplex.intlinalg import (integer_kernel_basis, integer_quotient,
                                    rational_kernel_basis, rational_rref,
                                    rational_solve, smith_form,
                                    solve_integer)

# integer matrices with 1-5 rows and 1-5 columns
matrices = st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
    min_size=1, max_size=5))


def _sparse(a):
    """A dense matrix as the sparse rows the integer routines take, zero
    entries included."""
    return [dict(enumerate(row)) for row in a]


def _shuffled_rows(rng, a):
    """A dense matrix as sparse rows whose keys go in in a shuffled order,
    with about half of the zero entries kept."""
    out = []
    for row in a:
        keys = [j for j, x in enumerate(row) if x or rng.random() < 0.5]
        rng.shuffle(keys)
        out.append({j: row[j] for j in keys})
    return out


def _boundary_matrices(seed):
    # dimension 3 at most: a 4-simplex has 120 orderings
    mc = random_multicomplex(random.Random(seed), max_dim=3)
    return [(dense(cc.boundary_matrix(n), cc.dim(n)), cc.dim(n))
            for cc in (build_full_chain_complex(mc),
                       build_reduced_chain_complex(mc))
            for n in sorted(cc.degrees()) if n > 0]


def _is_unimodular(u):
    n = len(u)
    sf = smith_form(_sparse(u), n)
    return all(sf.d[i] == 1 for i in range(n))


def test_smith_form_known():
    a = [[2, 4], [6, 8]]
    sf = smith_form(_sparse(a), 2)
    assert sf.d == [2, 4]
    U, _, V, _ = dense_factors(sf)
    # U a V reproduces the diagonal
    d = matmul(matmul(U, a), V)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            assert x == (sf.d[i] if i == j and
                         i < len(sf.d) else 0)
    assert _is_unimodular(U) and _is_unimodular(V)


@given(matrices)
def test_smith_form_random_factorization(a):
    rows, cols = len(a), len(a[0])
    sf = smith_form(_sparse(a), cols)
    U, Uinv, V, Vinv = dense_factors(sf)
    # U a V = D with the positive invariant factors on the diagonal
    assert matmul(matmul(U, a), V) == [
        [sf.d[i] if i == j and i < sf.rank else 0 for j in range(cols)]
        for i in range(rows)]
    assert len(sf.d) == sf.rank and all(x > 0 for x in sf.d)
    # divisibility chain
    for p, q in zip(sf.d, sf.d[1:]):
        assert q % p == 0
    # U and V have integer inverses, so both are unimodular
    assert matmul(U, Uinv) == identity_matrix(rows)
    assert matmul(V, Vinv) == identity_matrix(cols)


@settings(max_examples=100)
# the main loop leaves diag(3, 5), which the divisibility pass makes (1, 15)
@example(batch=[([[-6, 5], [3, 0]], 2)], rng=random.Random(0))
# no rows: the factorization of the zero map out of Z^3
@example(batch=[([], 3)], rng=random.Random(0))
@given(batch=st.one_of(matrices.map(lambda a: [(a, len(a[0]))]),
                       st.integers(0, 5).map(lambda k: [([], k)]),
                       st.integers(0, 10**6).map(_boundary_matrices)),
       rng=st.randoms(use_true_random=False))
def test_smith_form_matches_the_dense_reference(batch, rng):
    """The factorization of the sparse rows equals the dense reference's,
    whatever the order of the keys and with explicit zeros mixed in."""
    for a, cols in batch:
        sf = smith_form(_shuffled_rows(rng, a), cols)
        # the dense reference reads the width off row 0; with no rows
        # the factorization is the identity on both sides
        ref = dense_smith_form(a) if a else DenseSmithForm(0, cols)
        assert (sf.d, sf.rank) == (ref.d, ref.rank)
        U, Uinv, V, Vinv = dense_factors(sf)
        assert (U, Uinv) == (ref.U, ref.Uinv)
        assert (V, Vinv) == (ref.V, ref.Vinv)
        if not a:
            assert V == Vinv == identity_matrix(cols) and U == []


@given(matrices, st.data())
def test_smith_solve_agrees_with_the_rational_reference(a, data):
    cols = len(a[0])
    sf = smith_form(_sparse(a), cols)
    entries = st.lists(st.integers(-4, 4), min_size=len(a), max_size=len(a))
    b = data.draw(entries)
    x = sf.solve(b, integral=False)
    assert (x is None) == (rational_solve(a, b) is None)
    if x is not None:
        assert mat_vec(a, x) == b
    # an integral image is always solved over Z
    x0 = data.draw(st.lists(st.integers(-4, 4), min_size=cols,
                            max_size=cols))
    x = sf.solve(mat_vec(a, x0))
    assert x is not None and mat_vec(a, x) == mat_vec(a, x0)
    assert all(isinstance(v, int) for v in x)


def test_integer_kernel_is_saturated():
    # kernel of (2 4) is generated by the primitive (2, -1)
    basis = integer_kernel_basis([{0: 2, 1: 4}], 2)
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd
    assert gcd(v[0], v[1]) == 1


def test_integer_kernel_trivial_and_empty_matrix():
    assert integer_kernel_basis([{0: 2, 1: 0}, {1: 3}], 2) == []
    assert integer_kernel_basis([], 3) == identity_matrix(3)


def test_solve_integer():
    assert solve_integer([{0: 2}], [3], 1) is None
    x = solve_integer([{0: 2}], [4], 1)
    assert x == [2]
    x = solve_integer([{1: 2, 0: 1}, {1: 3}], [5, 6], 2)
    assert x is not None
    assert [x[0] + 2 * x[1], 3 * x[1]] == [5, 6]
    # no columns: only the zero target is reachable
    assert solve_integer([{}, {}], [0, 0], 0) == []
    assert solve_integer([{}, {}], [1, 0], 0) is None
    assert solve_integer([{0: 0}, {}], [1, 0], 1) is None
    # no rows: the empty target is reached by zero
    assert solve_integer([], [], 2) == [0, 0]


@pytest.mark.parametrize("a,b,message", [
    ([[1]], [1, 5], "expected length 1, got 2"),
    ([[1], [2]], [1], "expected length 2, got 1"),
])
def test_solve_rejects_a_target_of_the_wrong_length(a, b, message):
    with pytest.raises(ValueError) as exc:
        solve_integer(_sparse(a), b, 1)
    assert str(exc.value) == "b must have one entry per row: " + message
    with pytest.raises(ValueError):
        smith_form(_sparse(a), 1).solve(b, integral=False)


def test_integer_quotient_structure():
    # Z^2 / im diag(2, 3) is cyclic of order 6
    kernel = [{0: 1}, {1: 1}]
    torsion, free, gens = integer_quotient(kernel, [[2, 0], [0, 3]], 2)
    assert torsion == [6] and free == 0
    # Z^2 / im (2, 0) has a Z/2 and a free factor
    torsion, free, _ = integer_quotient(kernel, [[2, 0]], 2)
    assert torsion == [2] and free == 1
    # no image at all
    torsion, free, _ = integer_quotient(kernel, [], 2)
    assert torsion == [] and free == 2
    # the zero lattice, and an image that does not lie in it
    assert integer_quotient([{}, {}], [[0, 0]], 0) == ([], 0, [])
    with pytest.raises(ValueError, match="does not lie in the kernel"):
        integer_quotient([{}, {}], [[1, 0]], 0)
    # the same quotients as cokernels of the image matrices
    assert smith_form([{0: 2}, {1: 3}], 2).cokernel()[:2] == ([6], 0)
    torsion, free, gens = smith_form([{0: 2}, {0: 0}], 1).cokernel()
    assert (torsion, free) == ([2], 1)
    assert [[g.get(i, 0) for i in range(2)] for g in gens] == [[1, 0],
                                                             [0, 1]]


def test_rational_rref_rank_kernel():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    rref, pivots = rational_rref(a)
    assert pivots == [0]
    assert rational_rank(a) == 1
    ker = rational_kernel_basis(a)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + 2 * v[1] == 0
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0


def test_rational_solve_and_span():
    a = [[1, 2], [3, 4]]
    x = rational_solve(a, [5, 6])
    assert x is not None
    assert [x[0] + 2 * x[1], 3 * x[0] + 4 * x[1]] == [5, 6]
    assert rational_solve([[1, 2], [2, 4]], [1, 3]) is None


def test_random_kernels_annihilate():
    rng = random.Random(21)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        for v in integer_kernel_basis(_sparse(a), cols):
            assert all(sum(a[i][j] * v[j] for j in range(cols)) == 0
                       for i in range(rows))
        for v in rational_kernel_basis(a, cols=cols):
            assert all(sum(a[i][j] * v[j] for j in range(cols)) == 0
                       for i in range(rows))
