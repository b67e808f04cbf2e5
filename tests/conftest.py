"""Shared generators for randomized tests.

Random multicomplexes are built as a random simplicial complex plus
parallel copies of maximal simplices (copies share every facet pointer
verbatim, so the two-step face composition of the base complex carries
over untouched), occasionally wrapped in a product with the interval.
Everything is driven by seeded random.Random instances, so failures
reproduce.  Property tests draw those seeds through hypothesis, under one
derandomized profile, so every run tries the same examples.
"""

import random
from fractions import Fraction

from hypothesis import settings

from multicomplex import intlinalg
from reference import dense
from multicomplex.chains import RING_RAT, Chain
from multicomplex.core import (Multicomplex, product_with_interval,
                               simplicial_complex)

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("deterministic")


def random_multicomplex(rng: random.Random, max_vertices: int = 7,
                        max_dim: int = 4, allow_product: bool = True):
    nv = rng.randint(3, max_vertices)
    verts = ["v%d" % i for i in range(nv)]
    faces = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(2, min(max_dim + 1, nv))
        faces.append(rng.sample(verts, size))
    mc = simplicial_complex(faces, vertices=verts)

    triples = [(sid, mc.vertex_set(sid), dict(mc.facets(sid)))
               for sid in mc.simplex_ids]
    has_coface = {fid for sid in mc.simplex_ids
                  for fid in mc.facets(sid).values()}
    maximal = [sid for sid in mc.simplex_ids
               if sid not in has_coface and mc.dimension_of(sid) >= 1]
    for i in range(rng.randint(0, 4)):
        if not maximal:
            break
        victim = rng.choice(maximal)
        triples.append(("%s~%d" % (victim, i), mc.vertex_set(victim),
                        dict(mc.facets(victim))))
    out = Multicomplex(verts, triples)

    if allow_product and out.dimension < max_dim and rng.random() < 0.2:
        candidate = product_with_interval(out).complex
        if len(candidate.simplex_ids) <= 200:
            out = candidate
    return out


def random_cycle(rng: random.Random, cc, degree: int, tries: int = 1):
    """A random rational cycle in the given degree, or None.

    Drawn as a small random combination of a rational kernel basis of
    the boundary map.
    """
    cols = cc.dim(degree)
    if cols == 0:
        return None
    kernel = intlinalg.rational_kernel_basis(
        dense(cc.boundary_matrix(degree), cols), cols=cols)
    if not kernel:
        return None
    for _ in range(tries):
        vec = [Fraction(0)] * cols
        k = rng.randint(1, min(3, len(kernel)))
        for row in rng.sample(kernel, k):
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for i, x in enumerate(row):
                vec[i] += q * x
        if any(vec):
            return cc.chain_from_vector(degree, vec, RING_RAT)
    return None


def random_integer_cycle(rng: random.Random, cc, degree: int):
    cols = cc.dim(degree)
    if cols == 0:
        return None
    kernel = intlinalg.integer_kernel_basis(cc.boundary_matrix(degree),
                                            cols)
    if not kernel:
        return None
    vec = [0] * cols
    for row in rng.sample(kernel, rng.randint(1, min(3, len(kernel)))):
        q = rng.randint(-2, 2)
        for i, x in enumerate(row):
            vec[i] += q * x
    if not any(vec):
        return None
    return cc.chain_from_vector(degree, vec, "Z")


def random_zero_trivial_action(rng: random.Random, mc=None):
    """A random vertex-fixing action: cyclically rotate one family of
    parallel simplices (identical vertex set and facets, no cofaces).

    Falls back to the one-element trivial action when the complex has no
    such family.
    """
    from multicomplex.actions import GroupAction, trivial_action
    from multicomplex.core import SimplicialMap
    from multicomplex.groups import cyclic_group

    if mc is None:
        mc = random_multicomplex(rng, allow_product=False)
    has_coface = {fid for sid in mc.simplex_ids
                  for fid in mc.facets(sid).values()}
    families = []
    seen = set()
    for sid in sorted(mc.simplex_ids):
        if sid in seen or mc.dimension_of(sid) < 1:
            continue
        fam = mc.compatible_simplices(sid)
        seen.update(fam)
        if len(fam) >= 2 and all(m not in has_coface for m in fam):
            families.append(fam)
    if not families:
        return trivial_action(mc)
    fam = rng.choice(families)
    k = len(fam)
    group = cyclic_group(k)
    maps = {}
    for j, g in enumerate(group.elements):
        vm = {v: v for v in mc.vertices}
        sm = {s: s for s in mc.simplex_ids}
        for i, s in enumerate(fam):
            sm[s] = fam[(i + j) % k]
        maps[g] = SimplicialMap(mc, mc, vm, sm)
    return GroupAction(group, mc, maps)


def symmetric_group_3():
    """S3 on the permutations of (0, 1, 2), each named by its images; the
    smallest group in which g*h and h*g differ."""
    from itertools import permutations

    from multicomplex.groups import FiniteGroup

    perms = list(permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    table = {name[p]: {name[q]: name[tuple(p[q[i]] for i in range(3))]
                       for q in perms}
             for p in perms}
    return FiniteGroup([name[p] for p in perms], table)
