"""Chain complexes, projections, alternation, and exact homology."""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (cone_action, euler_characteristic, facet_closure,
                      random_multicomplex, within)
from multicomplex.actions import act_on_chain, act_on_simplex
from multicomplex.core import (
    StructureError,
    simplicial_complex,
    special_sphere,
)
from multicomplex.chains import (
    RING_INT,
    RING_RAT,
    AlgebraicSimplex,
    Chain,
    ChainComplex,
    MAX_ORDERINGS,
    Cochain,
    HomologyResult,
    NoFundamentalCycleError,
    alternate,
    build_full_chain_complex,
    build_reduced_chain_complex,
    build_relative_complex,
    fundamental_cycle,
    permutation_sign,
    project_chain,
)
from multicomplex.diffusion import (ActionOnSet, FiniteSupportMeasure,
                                    SparseFunction, convolve)
from multicomplex.fixtures import (
    double_edge,
    seven_vertex_torus,
    tetrahedron_boundary,
    triangle_boundary,
)
from multicomplex.groups import cyclic_group

seeds = st.integers(0, 10**6)


def projective_plane():
    # 6-vertex closed surface, every edge in exactly two triangles,
    # euler characteristic 1
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
             (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
    return simplicial_complex([tuple("p%d" % v for v in f) for f in faces])


def test_full_complex_counts_orderings():
    cc = build_full_chain_complex(tetrahedron_boundary())
    assert cc.dim(0) == 4
    assert cc.dim(1) == 6 * 2
    assert cc.dim(2) == 4 * 6


def test_reduced_complex_one_per_simplex():
    mc = tetrahedron_boundary()
    cc = build_reduced_chain_complex(mc)
    for n in cc.degrees():
        assert cc.dim(n) == len(mc.simplices_of_dimension(n))


def test_boundary_squares_to_zero_on_fixtures():
    for mc in (triangle_boundary(), double_edge(), tetrahedron_boundary(),
               seven_vertex_torus(), projective_plane()):
        for cc in (build_full_chain_complex(mc),
                   build_reduced_chain_complex(mc)):
            assert reference.boundary_squares_to_zero(cc)


def test_full_boundary_of_an_edge():
    mc = triangle_boundary()
    cc = build_full_chain_complex(mc)
    e = cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1}, RING_RAT)
    b = cc.boundary_of(e)
    assert b.coefficient(AlgebraicSimplex("y", ("y",))) == 1
    assert b.coefficient(AlgebraicSimplex("x", ("x",))) == -1


@pytest.mark.parametrize("coef", [Fraction(2), 1.0, True])
def test_chain_complex_refuses_coefficients_that_are_not_ints(coef):
    v = AlgebraicSimplex("v", ("v",))
    e = AlgebraicSimplex("e", ("v", "w"))
    with pytest.raises(StructureError) as exc:
        ChainComplex({0: [v], 1: [e]}, {0: [[]], 1: [[(0, coef)]]})
    assert str(exc.value) == (
        "boundary coefficient %r in degree 1 is not an int" % (coef,))


def test_boundary_matrix_shape():
    cc = build_reduced_chain_complex(triangle_boundary())
    m = cc.boundary_matrix(1)
    assert len(m) == cc.dim(0)
    assert all(0 <= j < cc.dim(1) for row in m for j in row)
    assert all(len(row) == cc.dim(1)
               for row in reference.dense(m, cc.dim(1)))


@given(seeds)
def test_boundary_matrix_densifies_to_the_dense_reference(seed):
    rng = random.Random(seed)
    # dimension 3 at most: a 4-simplex has 120 orderings
    mc = random_multicomplex(rng, max_dim=3)
    top = rng.choice(mc.simplex_ids)
    sub = facet_closure(mc, [top])
    for cc in (build_full_chain_complex(mc), build_reduced_chain_complex(mc),
               build_relative_complex(mc, sub)):
        for n in range(-1, max(cc.degrees()) + 2):
            assert reference.dense(cc.boundary_matrix(n), cc.dim(n)) == \
                reference.boundary_matrix(cc, n)


def _random_full_chain(rng, cc, degree):
    labels = cc.basis(degree)
    terms = {}
    for lab in rng.sample(labels, min(5, len(labels))):
        c = rng.randint(-3, 3)
        if c:
            terms[lab] = Fraction(c)
    return Chain(degree, RING_RAT, terms)


def test_projection_is_a_chain_map():
    rng = random.Random(7)
    mc = tetrahedron_boundary()
    full = build_full_chain_complex(mc)
    red = build_reduced_chain_complex(mc)
    for _ in range(20):
        c = _random_full_chain(rng, full, 2)
        assert project_chain(full.boundary_of(c)) == \
            red.boundary_of(project_chain(c))


def test_project_section_roundtrip():
    """The section sends each reduced basis element to its sorted
    ordering in the full complex, so projecting after it changes
    nothing."""
    rng = random.Random(11)
    mc = seven_vertex_torus()
    red = build_reduced_chain_complex(mc)
    full = build_full_chain_complex(mc)
    for degree in (1, 2):
        for _ in range(10):
            z = _random_full_chain(rng, red, degree)
            assert all(list(key.vertices) == sorted(key.vertices)
                       for key in z.support())
            assert project_chain(full.chain(degree, z.items(),
                                            RING_RAT)) == z


def test_projection_sign():
    z = Chain(1, RING_RAT, {AlgebraicSimplex("x,y", ("y", "x")): 1})
    p = project_chain(z)
    assert p.coefficient(AlgebraicSimplex("x,y", ("x", "y"))) == -1


def test_alternate_is_idempotent_and_alternating():
    rng = random.Random(13)
    full = build_full_chain_complex(tetrahedron_boundary())
    for degree in (1, 2):
        for _ in range(10):
            c = _random_full_chain(rng, full, degree)
            a = alternate(c)
            assert alternate(a) == a


def test_alternate_commutes_with_boundary():
    rng = random.Random(17)
    full = build_full_chain_complex(tetrahedron_boundary())
    for _ in range(10):
        c = _random_full_chain(rng, full, 2)
        assert alternate(full.boundary_of(c)) == \
            full.boundary_of(alternate(c))


def test_alternate_preserves_l1_norm_of_single_ordering():
    full = build_full_chain_complex(triangle_boundary())
    c = full.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1}, RING_RAT)
    assert alternate(c).l1_norm() == 1


def test_alternating_past_the_ordering_limit_fails_at_once():
    """One term of degree 9 has 10! = 3,628,800 orderings, over
    MAX_ORDERINGS; one of degree 8 (362,880) is within it."""
    vertices = tuple("v%d" % i for i in range(10))
    for chain_type in (Chain, Cochain):
        c = chain_type(9, RING_RAT, {AlgebraicSimplex("s", vertices): 1})
        with within(5), pytest.raises(StructureError) as err:
            alternate(c)
        assert str(err.value) == (
            "alternating 1 term(s) of degree 9 would list 1 x 10! "
            "orderings, over the limit of %d" % MAX_ORDERINGS)
    assert 362880 <= MAX_ORDERINGS < 3628800


def test_homology_of_circle():
    hom = HomologyResult(build_reduced_chain_complex(triangle_boundary()),
                         RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (1, [])


def test_homology_of_double_edge():
    hom = HomologyResult(build_reduced_chain_complex(double_edge()), RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (1, [])


def test_homology_of_sphere():
    hom = HomologyResult(build_reduced_chain_complex(special_sphere(2)),
                         RING_RAT)
    assert [hom.structure(n) for n in (0, 1, 2)] == [(1, []), (0, []),
                                                     (1, [])]


def test_homology_of_torus():
    hom = HomologyResult(build_reduced_chain_complex(seven_vertex_torus()),
                         RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (2, [])
    assert hom.structure(2) == (1, [])


def test_homology_torsion_of_projective_plane():
    mc = projective_plane()
    assert euler_characteristic(mc) == 1
    cc = build_reduced_chain_complex(mc)
    hom = HomologyResult(cc, RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (0, [2])
    assert hom.structure(2) == (0, [])
    rat = HomologyResult(cc, RING_RAT)
    assert [rat.structure(n) for n in (0, 1, 2)] == [(1, []), (0, []),
                                                     (0, [])]
    assert rat.generators(1) == []
    # the torsion generator bounds over Q, and over Z only twice over
    g = hom.generators(1)[0]
    assert hom.is_boundary(g) is None
    assert hom.cc.boundary_of(hom.is_boundary(g.scaled(2))) == g.scaled(2)
    w = rat.is_boundary(Chain(1, RING_RAT, dict(g.items())))
    assert rat.cc.boundary_of(w) == Chain(1, RING_RAT, dict(g.items()))


def test_homology_generators_are_cycles():
    cc = build_reduced_chain_complex(seven_vertex_torus())
    hom = HomologyResult(cc, RING_RAT)
    for n in (1, 2):
        for g in hom.generators(n):
            assert cc.boundary_of(g).is_zero


def test_is_boundary_returns_checked_witness():
    cc = build_reduced_chain_complex(tetrahedron_boundary())
    hom = HomologyResult(cc, RING_RAT)
    top = cc.basis(2)[0]
    z = cc.boundary_of(cc.chain(2, {top: Fraction(3)}, RING_RAT))
    w = hom.is_boundary(z)
    assert w is not None
    assert cc.boundary_of(w) == z
    assert hom.is_boundary(fundamental_cycle(tetrahedron_boundary(), cc)
                           .as_rational()) is None


def _rank_with_boundaries(cc, n, chains):
    """Rational rank of the degree-(n+1) boundary columns and the chains,
    by the rref reference."""
    mat = reference.dense(cc.boundary_matrix(n + 1), cc.dim(n + 1))
    columns = [list(col) for col in zip(*mat)]
    return reference.rational_rank(columns
                                   + [cc.vector_of(g) for g in chains])


@given(seeds)
def test_rational_homology_is_integral_homology_tensor_q(seed):
    mc = random_multicomplex(random.Random(seed))
    cc = build_reduced_chain_complex(mc)
    hz, hq = HomologyResult(cc, RING_INT), HomologyResult(cc, RING_RAT)
    for n in range(mc.dimension + 1):
        free, torsion = hz.structure(n)
        assert hq.structure(n) == (free, [])
        zgens, qgens = hz.generators(n), hq.generators(n)
        assert len(zgens) == free + len(torsion) and len(qgens) == free
        assert all(cc.boundary_of(g).is_zero for g in zgens + qgens)
        # the free generators are independent modulo boundaries
        base = _rank_with_boundaries(cc, n, [])
        assert _rank_with_boundaries(cc, n, qgens) == base + free
        assert _rank_with_boundaries(cc, n, zgens[len(torsion):]) == \
            base + free
        # a torsion generator has exactly its invariant factor as order
        for t, g in zip(torsion, zgens):
            assert hz.is_boundary(g) is None
            assert hz.is_boundary(g.scaled(t)) is not None


@given(seeds)
def test_homology_matches_the_dense_reference(seed):
    # dimension 3 at most, as in test_every_builder_variant_is_a_complex
    mc = random_multicomplex(random.Random(seed), max_dim=3)
    for build in (build_full_chain_complex, build_reduced_chain_complex):
        cc = build(mc)
        for ring in (RING_INT, RING_RAT):
            hom = HomologyResult(cc, ring)
            for n in sorted(cc.degrees()):
                structure, gens = reference.homology_data(cc, n, ring)
                assert hom.structure(n) == structure
                assert hom.generators(n) == [
                    cc.chain_from_vector(n, g, ring) for g in gens]


@given(seeds)
def test_is_boundary_returns_a_witness_for_every_boundary(seed):
    rng = random.Random(seed)
    mc = random_multicomplex(rng)
    cc = build_reduced_chain_complex(mc)
    n = rng.randrange(mc.dimension)
    labels = rng.sample(cc.basis(n + 1), min(4, cc.dim(n + 1)))
    for ring, coeff in (
            (RING_RAT, lambda: Fraction(rng.randint(-3, 3),
                                        rng.randint(1, 3))),
            (RING_INT, lambda: rng.randint(-3, 3))):
        target = cc.boundary_of(
            cc.chain(n + 1, {lab: coeff() for lab in labels}, ring))
        w = HomologyResult(cc, ring).is_boundary(target)
        assert w is not None and cc.boundary_of(w) == target


@given(st.integers(-4, 4).filter(bool))
def test_is_boundary_rejects_multiples_of_fundamental_cycles(k):
    for mc in (triangle_boundary(), tetrahedron_boundary(),
               seven_vertex_torus(), special_sphere(3)):
        cc = build_reduced_chain_complex(mc)
        z = fundamental_cycle(mc, cc).scaled(k)
        for ring, zr in ((RING_INT, z), (RING_RAT, z.as_rational())):
            assert HomologyResult(cc, ring).is_boundary(zr) is None


def _fundamental_cycle(mc):
    return fundamental_cycle(mc, build_reduced_chain_complex(mc))


def test_fundamental_cycle_of_tetrahedron_boundary():
    mc = tetrahedron_boundary()
    cc = build_reduced_chain_complex(mc)
    z = fundamental_cycle(mc, cc)
    assert (z.degree, z.ring) == (2, RING_INT)
    assert z.l1_norm() == 4
    assert all(abs(v) == 1 for _, v in z.items())
    assert cc.boundary_of(z).is_zero


def test_fundamental_cycle_of_special_spheres():
    z1 = _fundamental_cycle(special_sphere(1))
    assert z1.degree == 1
    keys = {k.simplex: v for k, v in z1.items()}
    assert keys in ({"north": 1, "south": -1}, {"north": -1, "south": 1})
    z2 = _fundamental_cycle(special_sphere(2))
    assert z2.l1_norm() == 2
    assert {k.simplex for k in z2.support()} == {"north", "south"}


def test_fundamental_cycle_of_torus_has_norm_14():
    z = _fundamental_cycle(seven_vertex_torus())
    assert z.degree == 2
    assert z.l1_norm() == 14


def test_fundamental_cycle_rejects_impure_complex():
    mc = simplicial_complex([("a", "b", "c"), ("c", "d")])
    with pytest.raises(NoFundamentalCycleError):
        _fundamental_cycle(mc)


def test_fundamental_cycle_rejects_wrong_rank():
    # two disjoint circles: H_1 has rank 2
    mc = simplicial_complex([("a", "b"), ("b", "c"), ("a", "c"),
                             ("d", "e"), ("e", "f"), ("d", "f")])
    with pytest.raises(NoFundamentalCycleError):
        _fundamental_cycle(mc)


def test_relative_complex_of_sphere_mod_equator():
    mc = special_sphere(2)
    equator = [sid for sid in mc.simplex_ids
               if sid not in ("north", "south")]
    rel = build_relative_complex(mc, equator)
    assert rel.dim(2) == 2
    assert HomologyResult(rel, RING_RAT).structure(2) == (2, [])


def test_relative_complex_requires_closed_subcomplex():
    mc = special_sphere(2)
    with pytest.raises(StructureError):
        build_relative_complex(mc, ["v0,v1"])


def test_chain_arithmetic_and_norms():
    s = AlgebraicSimplex("x,y", ("x", "y"))
    t = AlgebraicSimplex("x,z", ("x", "z"))
    a = Chain(1, RING_RAT, {s: Fraction(1, 2), t: 2})
    b = Chain(1, RING_RAT, {s: Fraction(1, 2)})
    assert (a - b).coefficient(s) == 0
    assert (a + b).l1_norm() == 3
    assert (-a).l1_norm() == a.l1_norm() == Fraction(5, 2)
    assert a.scaled(2).l1_norm() == 5
    phi = Cochain(1, RING_RAT, {s: 2, t: -1})
    assert phi.linf_norm() == 2
    assert phi.pairing(a) == 2 * Fraction(1, 2) + (-1) * 2
    assert abs(phi.pairing(a)) <= phi.linf_norm() * a.l1_norm()


def test_chain_equality_is_ring_and_degree_aware():
    s = AlgebraicSimplex("x,y", ("x", "y"))
    assert Chain(1, RING_RAT, {s: 1}) != Chain(1, RING_INT, {s: 1})
    assert Chain(1, RING_RAT, {s: 1}) != Cochain(1, RING_RAT, {s: 1})


@given(seeds)
def test_every_builder_variant_is_a_complex(seed):
    rng = random.Random(seed)
    # dimension 3 at most: a 4-simplex has 1,800 covering 6-tuples
    mc = random_multicomplex(rng, max_dim=3)
    full = build_full_chain_complex(mc)
    red = build_reduced_chain_complex(mc)
    repeats = reference.repeat_complex(mc, mc.dimension + 1)
    for cc in (full, red, repeats):
        assert reference.boundary_squares_to_zero(cc)
        for n in cc.degrees():
            for j in range(cc.dim(n)):
                rows = [row for row, c in cc.column(n, j) if c]
                assert len(set(rows)) == len(cc.column(n, j))
    for n in full.degrees():
        for lab in full.basis(n):
            c = Chain(n, RING_RAT, {lab: 1})
            assert project_chain(full.boundary_of(c)) == \
                red.boundary_of(project_chain(c))

    top = rng.choice(mc.simplex_ids)
    sub = facet_closure(mc, [top])
    rel = build_relative_complex(mc, [])
    assert all(rel.basis(n) == red.basis(n) and
               rel.boundary_matrix(n) == red.boundary_matrix(n)
               for n in red.degrees())
    # the relative columns are the absolute ones without the rows and
    # columns of the subcomplex
    rel = build_relative_complex(mc, sub)
    for n in red.degrees():
        kept = [i for i, lab in enumerate(red.basis(n))
                if lab.simplex not in sub]
        rows = [i for i, lab in enumerate(red.basis(n - 1))
                if lab.simplex not in sub]
        assert rel.basis(n) == tuple(red.basis(n)[i] for i in kept)
        mat = reference.dense(red.boundary_matrix(n), red.dim(n))
        assert reference.dense(rel.boundary_matrix(n), rel.dim(n)) == \
            [[mat[r][j] for j in kept] for r in rows]


# every store operation against the Fraction references, on the cone over
# three parallel edges, with its repeated-vertex tuples, and Z/3 turning it
_CONE = cone_action(3)
_CONE_CC = reference.repeat_complex(_CONE.complex, 2)
_Z3 = cyclic_group(3)
_TURN = {g: {"p%d" % i: "p%d" % ((i + j) % 3) for i in range(3)}
         for j, g in enumerate(_Z3.elements)}
_ON_POINTS = ActionOnSet(_Z3, ["p0", "p1", "p2", "q"],
                         lambda g, x: _TURN[g].get(x, x))


@st.composite
def _store_cases(draw):
    ring = draw(st.sampled_from([RING_INT, RING_RAT]))
    degree = draw(st.integers(1, 2))
    value = (st.integers(-3, 3) if ring == RING_INT
             else st.fractions(-3, 3, max_denominator=6))
    # repeated keys add up
    terms = st.lists(st.tuples(st.sampled_from(_CONE_CC.basis(degree)),
                               value), max_size=6)
    weights = draw(st.lists(st.integers(0, 4), min_size=3,
                            max_size=3).filter(any))
    values = st.tuples(st.sampled_from(_ON_POINTS.points),
                       st.fractions(-2, 2, max_denominator=6))
    return (ring, degree, draw(terms), draw(terms), draw(terms), draw(value),
            draw(st.sampled_from(_CONE.group.elements)),
            {g: Fraction(w, sum(weights))
             for g, w in zip(_Z3.elements, weights)},
            draw(st.lists(values, max_size=5)))


def _canonical(x):
    """Nonzero numerators over the least denominator."""
    assert all(x._num.values())
    assert x._den == lcm(*(v.denominator for _, v in x.items()))


def _same(got, ref):
    assert got.items() == ref.items()
    assert got.support() == ref.support()
    assert repr(got) == repr(ref)
    _canonical(got)


@settings(max_examples=100)
@given(_store_cases())
def test_fraction_free_stores_match_the_fraction_references(case):
    ring, degree, a, b, phi, factor, g, weights, values = case
    c, rc = Chain(degree, ring, a), reference.Chain(degree, ring, a)
    d, rd = Chain(degree, ring, b), reference.Chain(degree, ring, b)
    co, rco = Cochain(degree, ring, phi), reference.Cochain(degree, ring, phi)
    for got, ref in ((c, rc), (co, rco), (c + d, rc + rd), (c - d, rc - rd),
                     (-co, -rco), (c.scaled(factor), rc.scaled(factor)),
                     (co.scaled(factor), rco.scaled(factor))):
        _same(got, ref)
    assert (c == d) == (rc == rd)
    assert c.l1_norm() == rc.l1_norm()
    assert co.linf_norm() == rco.linf_norm()
    assert co.pairing(c) == rco.pairing(rc)

    labels = _CONE_CC.basis(degree - 1)
    _same(_CONE_CC.boundary_of(c), reference.Chain(degree - 1, ring, [
        (labels[row], coef * v) for key, v in rc.items()
        for row, coef in _CONE_CC.column(degree, _CONE_CC.index_of(degree,
                                                                   key))]))
    perms = list(permutations(range(degree + 1)))
    for x, rx in ((c, rc), (co, rco)):
        _same(alternate(x), type(rx)(degree, RING_RAT, [
            (AlgebraicSimplex(key.simplex, tuple(key.vertices[i] for i in p)),
             permutation_sign(p) * Fraction(v, len(perms)))
            for key, v in rx.items() if len(set(key.vertices)) == degree + 1
            for p in perms]))
    _same(act_on_chain(_CONE, g, c), reference.Chain(degree, ring, [
        (act_on_simplex(_CONE, g, key), v) for key, v in rc.items()]))

    mu = FiniteSupportMeasure(_Z3, weights)
    _canonical(mu)
    assert mu.items() == sorted((el, w) for el, w in weights.items() if w)
    f, rf = SparseFunction(values), reference.SparseFunction(values)
    act = _ON_POINTS.oracle()
    _same(f, rf)
    _same(convolve(mu, f, _ON_POINTS), reference.SparseFunction([
        (act(el, x), w * v) for el, w in mu.items() for x, v in rf.items()]))


@settings(max_examples=100)
@given(st.lists(st.integers(-4, 4), min_size=0, max_size=6),
       st.integers(1, 12), st.sampled_from([Chain, Cochain]))
def test_stores_from_numerators_equal_their_fraction_built_twins(
        nums, den, kind):
    # with and without zero numerators, over a denominator that need not
    # be least; a dict with no zero over the least one is kept, not copied
    labels = _CONE_CC.basis(1)
    num = dict(zip(labels, nums))
    got = kind._of_numerators(1, RING_RAT, num, den)
    twin = kind(1, RING_RAT, {key: Fraction(n, den) for key, n in num.items()})
    assert got == twin
    _same(got, reference.Chain(1, RING_RAT, twin.items()) if kind is Chain
          else reference.Cochain(1, RING_RAT, twin.items()))
    least = all(nums[:len(num)]) and got._den == den
    assert (got._num is num) == least
