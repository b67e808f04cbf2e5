"""Chain complexes, projections, alternation, and exact homology."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import random_multicomplex
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
    Cochain,
    NoFundamentalCycleError,
    alternate,
    build_full_chain_complex,
    build_reduced_chain_complex,
    build_relative_complex,
    fundamental_cycle,
    homology,
    is_alternating,
    project_chain,
    section_chain,
)
from multicomplex.fixtures import (
    double_edge,
    seven_vertex_torus,
    tetrahedron_boundary,
    triangle_boundary,
)

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
        assert build_full_chain_complex(mc).boundary_squares_to_zero()
        assert build_reduced_chain_complex(mc).boundary_squares_to_zero()


def test_full_boundary_of_an_edge():
    mc = triangle_boundary()
    cc = build_full_chain_complex(mc)
    e = cc.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1})
    b = cc.boundary_of(e)
    assert b.coefficient(AlgebraicSimplex("y", ("y",))) == 1
    assert b.coefficient(AlgebraicSimplex("x", ("x",))) == -1


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
    sub = mc.submulticomplex([top], close=True).simplex_ids
    for cc in (build_full_chain_complex(mc), build_reduced_chain_complex(mc),
               build_relative_complex(mc, sub, "reduced"),
               build_relative_complex(mc, sub, "full")):
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
    rng = random.Random(11)
    red = build_reduced_chain_complex(seven_vertex_torus())
    for degree in (1, 2):
        for _ in range(10):
            z = _random_full_chain(rng, red, degree)
            assert project_chain(section_chain(z)) == z


def test_section_rejects_unsorted_tuples():
    z = Chain(1, RING_RAT, {AlgebraicSimplex("x,y", ("y", "x")): 1})
    with pytest.raises(StructureError):
        section_chain(z)


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
            assert is_alternating(a)
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
    c = full.chain(1, {AlgebraicSimplex("x,y", ("x", "y")): 1})
    assert alternate(c).l1_norm() == 1


def test_homology_of_circle():
    hom = homology(build_reduced_chain_complex(triangle_boundary()),
                   RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (1, [])


def test_homology_of_double_edge():
    hom = homology(build_reduced_chain_complex(double_edge()), RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (1, [])


def test_homology_of_sphere():
    hom = homology(build_reduced_chain_complex(special_sphere(2)))
    assert [hom.betti(n) for n in (0, 1, 2)] == [1, 0, 1]


def test_homology_of_torus():
    hom = homology(build_reduced_chain_complex(seven_vertex_torus()),
                   RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (2, [])
    assert hom.structure(2) == (1, [])


def test_homology_torsion_of_projective_plane():
    mc = projective_plane()
    assert mc.euler_characteristic() == 1
    hom = homology(build_reduced_chain_complex(mc, ring=RING_INT), RING_INT)
    assert hom.structure(0) == (1, [])
    assert hom.structure(1) == (0, [2])
    assert hom.structure(2) == (0, [])
    rat = homology(build_reduced_chain_complex(mc))
    assert [rat.betti(n) for n in (0, 1, 2)] == [1, 0, 0]
    assert rat.structure(1) == (0, []) and rat.generators(1) == []
    # the torsion generator bounds over Q, and over Z only twice over
    g = hom.generators(1)[0]
    assert hom.is_boundary(g) is None
    assert hom.cc.boundary_of(hom.is_boundary(g.scaled(2))) == g.scaled(2)
    w = rat.is_boundary(Chain(1, RING_RAT, dict(g.items())))
    assert rat.cc.boundary_of(w) == Chain(1, RING_RAT, dict(g.items()))


def test_homology_generators_are_cycles():
    cc = build_reduced_chain_complex(seven_vertex_torus())
    hom = homology(cc)
    for n in (1, 2):
        for g in hom.generators(n):
            assert hom.is_cycle(g)
            assert cc.boundary_of(g).is_zero


def test_is_boundary_returns_checked_witness():
    cc = build_reduced_chain_complex(tetrahedron_boundary())
    hom = homology(cc)
    top = cc.basis(2)[0]
    z = cc.boundary_of(cc.chain(2, {top: Fraction(3)}))
    w = hom.is_boundary(z)
    assert w is not None
    assert cc.boundary_of(w) == z
    assert hom.is_boundary(fundamental_cycle(tetrahedron_boundary(),
                                             ring=RING_RAT)) is None


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
    cc = build_reduced_chain_complex(mc, ring=RING_INT)
    hz, hq = homology(cc, RING_INT), homology(cc, RING_RAT)
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
        cc = build(mc, ring=RING_INT)
        for ring in (RING_INT, RING_RAT):
            hom = homology(cc, ring)
            for n in sorted(cc.degrees()):
                structure, gens = reference.homology_data(cc, n, ring)
                assert hom.structure(n) == structure
                assert hom.generators(n) == [
                    cc.chain_from_vector(n, g, ring) for g in gens]


@given(seeds)
def test_is_boundary_returns_a_witness_for_every_boundary(seed):
    rng = random.Random(seed)
    mc = random_multicomplex(rng)
    cc = build_reduced_chain_complex(mc, ring=RING_INT)
    n = rng.randrange(mc.dimension)
    labels = rng.sample(cc.basis(n + 1), min(4, cc.dim(n + 1)))
    for ring, coeff in (
            (RING_RAT, lambda: Fraction(rng.randint(-3, 3),
                                        rng.randint(1, 3))),
            (RING_INT, lambda: rng.randint(-3, 3))):
        target = cc.boundary_of(
            cc.chain(n + 1, {lab: coeff() for lab in labels}, ring))
        w = homology(cc, ring).is_boundary(target)
        assert w is not None and cc.boundary_of(w) == target


@given(st.integers(-4, 4).filter(bool))
def test_is_boundary_rejects_multiples_of_fundamental_cycles(k):
    for mc in (triangle_boundary(), tetrahedron_boundary(),
               seven_vertex_torus(), special_sphere(3)):
        for ring in (RING_INT, RING_RAT):
            hom = homology(build_reduced_chain_complex(mc, ring=ring))
            z = fundamental_cycle(mc, ring=ring).scaled(k)
            assert hom.is_boundary(z) is None


def test_are_homologous():
    cc = build_reduced_chain_complex(seven_vertex_torus())
    hom = homology(cc)
    z = hom.generators(1)[0]
    b = cc.boundary_of(cc.chain(2, {cc.basis(2)[1]: Fraction(5, 2)}))
    same, witness = hom.are_homologous(z, z + b)
    assert same
    assert cc.boundary_of(witness) == z - (z + b)
    assert hom.are_homologous(z, z.scaled(2)) == (False, None)


def test_fundamental_cycle_of_tetrahedron_boundary():
    z = fundamental_cycle(tetrahedron_boundary())
    assert z.degree == 2
    assert z.l1_norm() == 4
    assert all(abs(v) == 1 for _, v in z.items())
    cc = build_reduced_chain_complex(tetrahedron_boundary(), ring=RING_INT)
    assert cc.boundary_of(z).is_zero


def test_fundamental_cycle_of_special_spheres():
    z1 = fundamental_cycle(special_sphere(1))
    keys = {k.simplex: v for k, v in z1.items()}
    assert keys in ({"north": 1, "south": -1}, {"north": -1, "south": 1})
    z2 = fundamental_cycle(special_sphere(2))
    assert z2.l1_norm() == 2
    assert {k.simplex for k in z2.support()} == {"north", "south"}


def test_fundamental_cycle_of_torus_has_norm_14():
    z = fundamental_cycle(seven_vertex_torus())
    assert z.degree == 2
    assert z.l1_norm() == 14


def test_fundamental_cycle_rejects_impure_complex():
    mc = simplicial_complex([("a", "b", "c"), ("c", "d")])
    with pytest.raises(NoFundamentalCycleError):
        fundamental_cycle(mc)


def test_fundamental_cycle_rejects_wrong_rank():
    # two disjoint circles: H_1 has rank 2
    mc = simplicial_complex([("a", "b"), ("b", "c"), ("a", "c"),
                             ("d", "e"), ("e", "f"), ("d", "f")])
    with pytest.raises(NoFundamentalCycleError):
        fundamental_cycle(mc)


def test_fundamental_cycle_degree_parameter():
    # lower-degree request on a pure complex is rejected unless that
    # homology is infinite cyclic; the 1-sphere in degree 0 works
    z = fundamental_cycle(special_sphere(1), degree=1)
    assert z.degree == 1


def test_relative_complex_of_sphere_mod_equator():
    mc = special_sphere(2)
    equator = [sid for sid in mc.simplex_ids
               if sid not in ("north", "south")]
    rel = build_relative_complex(mc, equator)
    assert rel.dim(2) == 2
    hom = homology(rel)
    assert hom.betti(2) == 2


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


def test_coboundary_pairs_with_boundary():
    rng = random.Random(23)
    cc = build_reduced_chain_complex(seven_vertex_torus())
    labels1, labels2 = cc.basis(1), cc.basis(2)
    for _ in range(10):
        phi = Cochain(1, RING_RAT,
                      {lab: rng.randint(-2, 2) for lab in labels1})
        c = Chain(2, RING_RAT,
                  {lab: rng.randint(-2, 2) for lab in labels2})
        assert cc.coboundary_of(phi).pairing(c) == \
            phi.pairing(cc.boundary_of(c))


@given(seeds)
def test_every_builder_variant_is_a_complex(seed):
    rng = random.Random(seed)
    # dimension 3 at most: a 4-simplex has 1,800 covering 6-tuples
    mc = random_multicomplex(rng, max_dim=3)
    full = build_full_chain_complex(mc)
    red = build_reduced_chain_complex(mc)
    repeats = build_full_chain_complex(mc, max_degree=mc.dimension + 1,
                                       with_repeats=True)
    for cc in (full, red, repeats):
        assert cc.boundary_squares_to_zero()
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
    sub = set(mc.submulticomplex([top], close=True).simplex_ids)
    for variant, cc in (("reduced", red), ("full", full)):
        rel = build_relative_complex(mc, [], variant)
        assert all(rel.basis(n) == cc.basis(n) and
                   rel.boundary_matrix(n) == cc.boundary_matrix(n)
                   for n in cc.degrees())
        # the relative columns are the absolute ones without the rows
        # and columns of the subcomplex
        rel = build_relative_complex(mc, sub, variant)
        for n in cc.degrees():
            kept = [i for i, lab in enumerate(cc.basis(n))
                    if lab.simplex not in sub]
            rows = [i for i, lab in enumerate(cc.basis(n - 1))
                    if lab.simplex not in sub]
            assert rel.basis(n) == tuple(cc.basis(n)[i] for i in kept)
            mat = reference.dense(cc.boundary_matrix(n), cc.dim(n))
            assert reference.dense(rel.boundary_matrix(n), rel.dim(n)) == \
                [[mat[r][j] for j in kept] for r in rows]
