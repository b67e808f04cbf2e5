"""Seeded inputs and job lists for the three benchmark workloads.

build(workload, seed, work_dir, rounds) writes every input document the
jobs need into work_dir and returns the jobs as a list of rounds.  Every
round runs the same job slots in the same order; only the seeded
contents differ between rounds, so each round costs about the same and
a run that stops at a round boundary always has the same job mix.  Each
job carries a check of its output document (see check.py).

Complexes are built with the program's own constructors and written with
its canonical dumper: producing documents is part of the timed set-up.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from multicomplex import formats
from multicomplex.actions import action_from_vertex_maps
from multicomplex.core import (Multicomplex, product_with_interval,
                               simplicial_complex, special_sphere)
from multicomplex.covers import Cover, nerve
from multicomplex.fixtures import (seven_vertex_torus, tetrahedron_boundary,
                                  triangle_boundary)
from multicomplex.groups import cyclic_group

import check

WORKLOADS = ("lp-seminorm", "homology-snf", "diffusion-averaging")


class Job(NamedTuple):
    kind: str                      # subcommand, plus variant or ring
    argv: list
    check: Callable[[dict], None]  # raises check.CheckFailure


class Docs:
    """Writes numbered documents into the work directory."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.count = 0

    def put(self, doc) -> str:
        self.count += 1
        path = os.path.join(self.work_dir, "d%05d.json" % self.count)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(formats.canonical_dumps(doc))
        return path

    def put_mc(self, mc):
        doc = formats.multicomplex_to_doc(mc)
        return self.put(doc), check.Complex(doc)


# ---------------------------------------------------------------------------
# complexes and chains


def grid_torus(p, q) -> Multicomplex:
    """The p x q grid torus, each square cut along its diagonal."""
    def v(i, j):
        return "v%d_%d" % (i % p, j % q)
    faces = []
    for i in range(p):
        for j in range(q):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return simplicial_complex(faces)


def relabelled(mc, rng) -> Multicomplex:
    """The same simplicial complex with vertices renamed by a seeded
    permutation, which reorders every basis the program builds."""
    names = ["u%02d" % i for i in range(len(mc.vertices))]
    rng.shuffle(names)
    ren = dict(zip(mc.vertices, names))
    sid = {s: ",".join(sorted(ren[v] for v in mc.vertex_set(s)))
           for s in mc.simplex_ids}
    triples = [(sid[s], {ren[v] for v in mc.vertex_set(s)},
                {frozenset(ren[v] for v in b): sid[f]
                 for b, f in mc.facets(s).items()})
               for s in mc.simplex_ids]
    return Multicomplex(sorted(names), triples)


def comma_free(mc):
    """The same complex with simplex ids s0, s1, ... (the --subcomplex
    option splits on commas); returns the complex and the id renaming."""
    ren = {s: "s%d" % i for i, s in enumerate(mc.simplex_ids)}
    triples = [(ren[s], mc.vertex_set(s),
                {b: ren[f] for b, f in mc.facets(s).items()})
               for s in mc.simplex_ids]
    return Multicomplex(mc.vertices, triples), ren


def random_multicomplex(rng, nv, sizes, f_vector, copies=3):
    """A random simplicial complex with faces of the given sizes and
    f_vector[d] simplices of each dimension d, plus parallel copies of
    top-dimensional simplices (each copy shares every facet of its
    original).  Fixed counts keep the cost of a job on it steady."""
    verts = ["v%d" % i for i in range(nv)]
    top = len(f_vector) - 1
    for _ in range(1000):
        mc = simplicial_complex([rng.sample(verts, size) for size in sizes],
                                vertices=verts)
        if tuple(len(mc.simplices_of_dimension(d))
                 for d in range(top + 1)) == f_vector:
            break
    else:
        raise ValueError("no random complex with f-vector %s" % (f_vector,))
    triples = [(s, mc.vertex_set(s), mc.facets(s)) for s in mc.simplex_ids]
    tops = sorted(mc.simplices_of_dimension(top))
    for i in range(copies):
        s = rng.choice(tops)
        triples.append(("%s~%d" % (s, i), mc.vertex_set(s), mc.facets(s)))
    return Multicomplex(verts, triples)


def _edge_key(u, w):
    a, b = sorted((u, w))
    return (a + "," + b, (a, b)), (1 if (a, b) == (u, w) else -1)


def add_loop(terms, path, coeff):
    """Add coeff times the closed edge path to a reduced degree-1 chain."""
    for u, w in zip(path, path[1:] + path[:1]):
        key, sign = _edge_key(u, w)
        terms[key] = terms.get(key, 0) + sign * coeff


def add_triangle_boundary(terms, tri, coeff):
    verts = tuple(sorted(tri))
    for i in range(3):
        face = verts[:i] + verts[i + 1:]
        key = (",".join(face), face)
        terms[key] = terms.get(key, 0) + (-1) ** i * coeff


def chain_doc(terms):
    """A degree-1 rational chain (or cochain) document."""
    return {"schema_version": formats.SCHEMA_VERSION, "degree": 1,
            "ring": "Q",
            "terms": [{"simplex": s, "vertices": list(vs), "coeff": str(c)}
                      for (s, vs), c in sorted(terms.items()) if c]}


# ---------------------------------------------------------------------------
# lp-seminorm


def in_turn(rng, options):
    """The options in one seeded order, repeated forever.  A slot that
    draws its parameters from a cycle covers them evenly over a run, so
    the mix of a run depends little on the seed."""
    order = list(options)
    rng.shuffle(order)
    return itertools.cycle(order)


def _grid_cycle(rng, p, q, triangles, ab, boundaries=2):
    """a meridians + b longitudes of the p x q grid torus plus some
    triangle boundaries, with its l1 seminorm max(p*a, q*b).

    The value needs no LP: the cocycles that measure displacement along
    either axis give the lower bound, and a closed path of min(p*a, q*b)
    diagonal steps and straight steps for the rest gives the upper one,
    in both variants."""
    a, b = ab
    terms = {}
    add_loop(terms, ["v%d_0" % i for i in range(p)], a)
    add_loop(terms, ["v0_%d" % j for j in range(q)], b)
    for tri in rng.sample(triangles, boundaries):
        add_triangle_boundary(terms, tri, rng.choice((-1, 1)))
    return {k: v for k, v in terms.items() if v}, max(p * a, q * b)


def _int_cycle(rng, triangles, a):
    """a meridians of the 3 x 3 grid torus plus two triangle boundaries,
    with the least norm 3a of an integral representative reached by
    boundaries with coefficients in {-1, 0, 1}: the seminorm of the class
    is 3a, and undoing the two boundaries reaches a meridians.  z itself
    is longer, so the search has something to find."""
    while True:
        terms = {}
        add_loop(terms, ["v%d_0" % i for i in range(3)], a)
        for tri in rng.sample(triangles, 2):
            add_triangle_boundary(terms, tri, rng.choice((-1, 1)))
        z = {k: v for k, v in terms.items() if v}
        if sum(abs(v) for v in z.values()) > 3 * a:
            return z, 3 * a


def _triangles(mc):
    return [tuple(sorted(mc.vertex_set(s)))
            for s in sorted(mc.simplices_of_dimension(2))]


def lp_jobs(rng, docs, rounds):
    grids = {pq: grid_torus(*pq) for pq in ((3, 3), (3, 4), (4, 4), (3, 5))}
    grid_files = {pq: docs.put_mc(mc) for pq, mc in grids.items()}
    torus7 = seven_vertex_torus()
    t7_file = docs.put_mc(torus7)
    sphere_files = docs.put_mc(special_sphere(3))

    def lp_job(cmd, variant, files, z, expected=None):
        (path, cx), zpath = files, docs.put(chain_doc(z))
        return Job("%s/%s" % (cmd, variant),
                   [cmd, zpath, "--complex", path, "--variant", variant],
                   lambda out: check.check_seminorm(
                       out, cx, z, variant, dual=cmd == "dual",
                       expected=expected))

    # each function below returns the job factory of one slot

    def on_grid(cmd, variant, pq):
        abs_ = in_turn(rng, itertools.product((1, 2, 3), (0, 1, 2)))
        triangles = _triangles(grids[pq])

        def make():
            z, value = _grid_cycle(rng, *pq, triangles, next(abs_))
            return lp_job(cmd, variant, grid_files[pq], z, value)
        return make

    def on_torus7(cmd, variant):
        # c times the closed path 0, s, 2s, ... (mod 7), started at a
        # seeded vertex, plus one triangle boundary; the value is pinned
        # by the checked representative and certificate
        loops = in_turn(rng, itertools.product((1, 2, 3), (1, 2)))

        def make():
            step, coeff = next(loops)
            start = rng.randrange(7)
            terms = {}
            add_loop(terms, [str((start + i * step) % 7) for i in range(7)],
                     coeff)
            add_triangle_boundary(terms, rng.choice(_triangles(torus7)), 1)
            return lp_job(cmd, variant, t7_file, terms)
        return make

    def on_sphere(cmd, variant):
        # a loop around a triangle of the 3-sphere bounds: seminorm 0
        coeffs = in_turn(rng, (1, 2, 3))

        def make():
            terms = {}
            add_loop(terms, rng.sample(["v0", "v1", "v2", "v3"], 3),
                     next(coeffs))
            return lp_job(cmd, variant, sphere_files, terms, 0)
        return make

    def volume(files, expected):
        path, cx = files
        job = Job("volume", ["volume", path],
                  lambda out: check.check_volume(out, cx, expected))
        return lambda: job

    def int_seminorm():
        path, cx = grid_files[(3, 3)]
        triangles = _triangles(grids[(3, 3)])
        meridians = in_turn(rng, (1, 2, 3))

        def make():
            z, best = _int_cycle(rng, triangles, next(meridians))
            return Job("int-seminorm",
                       ["int-seminorm", docs.put(chain_doc(z)), "--complex",
                        path, "--bound", "1"],
                       lambda out: check.check_int_seminorm(out, cx, z, best))
        return make

    # one slot per command, variant and input family
    slots = [
        volume(grid_files[(4, 4)], 32),
        volume(t7_file, 14),
        volume(sphere_files, 2),
        on_grid("seminorm", "reduced", (3, 3)),
        on_grid("seminorm", "reduced", (4, 4)),
        on_grid("seminorm", "reduced", (3, 5)),
        on_torus7("seminorm", "reduced"),
        on_torus7("seminorm", "full"),
        on_sphere("seminorm", "full"),
        on_grid("dual", "reduced", (3, 4)),
        on_sphere("dual", "reduced"),
        on_sphere("dual", "full"),
        int_seminorm(),
    ]
    return [[make() for make in slots] for _ in range(rounds)]


# ---------------------------------------------------------------------------
# homology-snf


def arc_cover(rng, n_arcs, length):
    """Arcs around a cycle of points, each meeting only its neighbours:
    the nerve is an n_arcs-gon, a circle."""
    points = []
    arcs = {}
    for a in range(n_arcs):
        arcs[str(a)] = list(points[-1:])
        for _ in range(rng.randint(2, length)):
            points.append("p%d" % len(points))
            arcs[str(a)].append(points[-1])
    arcs["0"].append(points[-1])
    return {"schema_version": formats.SCHEMA_VERSION, "host": None,
            "sets": arcs, "amenable": {}}


def random_cover(rng, members, points, size):
    pool = ["p%d" % i for i in range(points)]
    return {"schema_version": formats.SCHEMA_VERSION, "host": None,
            "sets": {"m%02d" % j: sorted(rng.sample(pool, size))
                     for j in range(members)},
            "amenable": {}}


def window_cover(p, q):
    """3 x 3 vertex windows of the p x q grid torus, one per vertex, so
    every closed vertex star fits inside some member."""
    sets = {}
    for i in range(p):
        for j in range(q):
            sets["w%d_%d" % (i, j)] = sorted(
                {"v%d_%d" % ((i + a) % p, (j + b) % q)
                 for a in (-1, 0, 1) for b in (-1, 0, 1)})
    return {"schema_version": formats.SCHEMA_VERSION, "host": None,
            "sets": sets, "amenable": {}}


def homology_jobs(rng, docs, rounds):
    def homology(files, ring, variant="reduced", known=None, sub=None):
        (path, cx) = files
        argv = ["homology", path, "--ring", ring, "--variant", variant]
        if sub is not None:
            argv += ["--subcomplex", ",".join(sorted(sub))]
        sub = frozenset(sub or ())
        return Job("homology/%s/%s" % (ring, variant), argv,
                   lambda out: check.check_homology(out, cx, ring, variant,
                                                    known, sub))

    tet_files = docs.put_mc(product_with_interval(tetrahedron_boundary())
                            .complex)
    grid33 = grid_torus(3, 3)
    sphere_files = docs.put_mc(special_sphere(3))
    small_sphere_files = docs.put_mc(special_sphere(2))
    grid44 = grid_torus(4, 4)
    grid_path, grid_cx = docs.put_mc(grid44)
    prod_path, prod_cx = docs.put_mc(product_with_interval(grid44).complex)
    host_path, host_cx = docs.put_mc(grid_torus(5, 5))
    windows = window_cover(5, 5)
    windows_path = docs.put(windows)

    # one slot per ring, variant and input family, and one
    # per other command; the product of the 4 x 4 grid torus is a
    # document of about 1 MB
    arc_counts = in_turn(rng, (5, 6, 7, 8))
    out = []
    for _ in range(rounds):
        base = relabelled(triangle_boundary(), rng)
        flat, ren = comma_free(product_with_interval(base).complex)
        bottom = {ren[s + "@0"] for s in base.simplex_ids}
        top = {ren[s + "@1"] for s in base.simplex_ids}
        flat_files = docs.put_mc(flat)
        grid_files = docs.put_mc(relabelled(grid33, rng))
        arcs = arc_cover(rng, next(arc_counts), 4)
        arc_nerve = docs.put_mc(nerve(Cover(arcs["sets"])))
        cover = random_cover(rng, 14, 40, 9)
        out.append([
            homology(tet_files, "z", known=(1, 0, 1, 0)),
            homology(tet_files, "q", known=(1, 0, 1, 0)),
            homology(flat_files, "z", "relative", (0, 0, 0), bottom),
            homology(flat_files, "q", "relative", (0, 1, 1), bottom | top),
            homology(small_sphere_files, "z", known=(1, 0, 1)),
            homology(sphere_files, "q", "full"),
            homology(grid_files, "z", "full"),
            homology(grid_files, "q", known=(1, 2, 1)),
            homology(docs.put_mc(random_multicomplex(
                rng, 7, (4, 4, 3, 3, 2), (7, 13, 9, 2))), "z"),
            homology(docs.put_mc(random_multicomplex(
                rng, 6, (3, 3, 2, 2), (6, 7, 2))), "q", "full"),
            homology(arc_nerve, "z", known=(1, 1)),
            homology(arc_nerve, "q", "full"),
            Job("nerve", ["nerve", docs.put(cover), "--max-dim", "3"],
                lambda out, c=cover: check.check_nerve(out, c, 3)),
            Job("coloring", ["coloring", windows_path, "--complex", host_path],
                lambda out: check.check_coloring(out, host_cx, windows)),
            Job("product", ["product", grid_path],
                lambda out: check.check_product(out, grid_cx)),
            Job("validate", ["validate", prod_path], check.check_valid),
            Job("skeleton", ["skeleton", prod_path, "--dim", "2"],
                lambda out: check.check_skeleton(out, prod_cx, 2)),
        ])
    return out


# ---------------------------------------------------------------------------
# diffusion-averaging


def translation_doc(rank, side):
    points = [",".join(map(str, p))
              for p in itertools.product(range(side), repeat=rank)]
    return {"schema_version": formats.SCHEMA_VERSION, "points": points,
            "group": {"kind": "free_abelian", "rank": rank},
            "action": {"kind": "translation"}}


def _function_doc(values):
    return {"schema_version": formats.SCHEMA_VERSION,
            "values": {x: str(v) for x, v in values.items()}}


def _dipole(rng, side, dist):
    """+1 and -1 at two points of the side x side box, dist apart in l1."""
    while True:
        x = (rng.randrange(side), rng.randrange(side))
        dx = rng.randint(0, dist)
        y = (x[0] + rng.choice((-1, 1)) * dx,
             x[1] + rng.choice((-1, 1)) * (dist - dx))
        if all(0 <= c < side for c in y):
            return {"%d,%d" % x: Fraction(1), "%d,%d" % y: Fraction(-1)}


def cone_action(k):
    """Z/k rotating the k triangles (and their base edges) of the cone
    over a k-fold edge; every vertex is fixed."""
    tri_facets = {frozenset("cx"): "cx", frozenset("cy"): "cy"}
    triples = [(v, {v}, {}) for v in "cxy"]
    triples += [("c" + v, {"c", v}, {frozenset("c"): "c", frozenset(v): v})
                for v in "xy"]
    for i in range(k):
        triples.append(("e%d" % i, {"x", "y"},
                        {frozenset("x"): "x", frozenset("y"): "y"}))
        triples.append(("t%d" % i, {"c", "x", "y"},
                        {**tri_facets, frozenset("xy"): "e%d" % i}))
    mc = Multicomplex(["c", "x", "y"], triples)
    group = cyclic_group(k)
    maps = {}
    for j, g in enumerate(group.elements):
        smap = {s: s for s in mc.simplex_ids}
        for i in range(k):
            smap["e%d" % i] = "e%d" % ((i + j) % k)
            smap["t%d" % i] = "t%d" % ((i + j) % k)
        maps[g] = {"vertex_map": {v: v for v in "cxy"}, "simplex_map": smap}
    action = {"schema_version": formats.SCHEMA_VERSION,
              "elements": list(group.elements), "table": group.table,
              "maps": maps}
    return mc, action


def wheel_action(n):
    """The dihedral group of order 2n acting on the wheel with n spokes."""
    rim = ["r%02d" % i for i in range(n)]
    faces = [("c", rim[i], rim[(i + 1) % n]) for i in range(n)]
    mc = simplicial_complex(faces)
    vmaps = {}
    for j in range(n):
        vmaps["rot%d" % j] = dict({rim[i]: rim[(i + j) % n]
                                   for i in range(n)}, c="c")
        vmaps["ref%d" % j] = dict({rim[i]: rim[(j - i) % n]
                                   for i in range(n)}, c="c")
    return mc, formats.action_to_doc(action_from_vertex_maps(mc, vmaps))


def diffusion_jobs(rng, docs, rounds):
    line_path = docs.put(translation_doc(1, 48))
    plane_path = docs.put(translation_doc(2, 10))

    def diffuse(path, f, eps):
        fpath = docs.put(_function_doc(f))
        return Job("diffuse", ["diffuse", fpath, "--action", path,
                               "--epsilon", str(eps)],
                   lambda out: check.check_diffuse(out, f, eps))

    def local(nblocks):
        sizes = [rng.randint(4, 8) for _ in range(nblocks)]
        blocks, f = [], {}
        for b, k in enumerate(sizes):
            pts = ["b%dp%d" % (b, i) for i in range(k)]
            group = cyclic_group(k)
            moves = {g: {pts[i]: pts[(i + j) % k] for i in range(k)}
                     for j, g in enumerate(group.elements)}
            blocks.append({"points": pts,
                           "group": formats.group_to_doc(group),
                           "action": {"kind": "table", "moves": moves},
                           "horizon": b + 1})
            x, y = rng.sample(pts, 2)
            w = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            f[x], f[y] = w, -w
        threshold = rng.randint(0, 2)
        budgets = [Fraction(1, rng.randint(4, 16)) for _ in sizes]
        apath = docs.put({"schema_version": formats.SCHEMA_VERSION,
                          "points": [p for b in blocks for p in b["points"]],
                          "blocks": blocks})
        fpath = docs.put(_function_doc(f))
        pts = [b["points"] for b in blocks]
        return Job("local-diffuse",
                   ["local-diffuse", fpath, "--action", apath, "--epsilons",
                    ",".join(map(str, budgets)), "--threshold",
                    str(threshold)],
                   lambda out: check.check_local_diffuse(out, f, pts, budgets,
                                                         threshold))

    def cone_files(k):
        mc, action = cone_action(k)
        path, cx = docs.put_mc(mc)
        return path, cx, docs.put(action), check.Action(action)

    def toy_vanish(k):
        path, cx, apath, act = cone_files(k)
        i, j = rng.sample(range(k), 2)
        a = rng.randint(1, 3)
        z = {("e%d" % i, ("x", "y")): Fraction(a),
             ("e%d" % j, ("x", "y")): Fraction(-a)}
        zpath = docs.put(chain_doc(z))
        eps = Fraction(1, rng.randint(2, 8))
        return Job("toy-vanish", ["toy-vanish", zpath, "--complex", path,
                                  "--action", apath, "--epsilon", str(eps)],
                   lambda out: check.check_toy_vanish(out, cx, act, z, eps))

    def cone_jobs(k):
        path, cx, apath, act = cone_files(k)
        keys = [("e%d" % i, o) for i in range(k) for o in (("x", "y"),
                                                           ("y", "x"))]
        phi = {key: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for key in rng.sample(keys, k)}
        phi = {key: v for key, v in phi.items() if v}
        ppath = docs.put(chain_doc(phi))
        return [
            Job("average", ["average", apath, "--complex", path,
                            "--cochain", ppath],
                lambda out: check.check_average(out, act, phi)),
            Job("orbits", ["orbits", apath, "--complex", path,
                           "--degree", "2"],
                lambda out: check.check_orbits(out, cx, act, 2)),
            Job("quotient", ["quotient", apath, "--complex", path],
                lambda out: check.check_quotient(out, cx, act)),
        ]

    wheels = {}

    def vanish(n):
        if n not in wheels:
            mc, action = wheel_action(n)
            wheels[n] = (mc, action, docs.put_mc(mc), docs.put(action))
        mc, action, (path, cx), apath = wheels[n]
        rim = sorted(v for v in mc.vertices if v != "c")
        coloring = {"schema_version": formats.SCHEMA_VERSION,
                    "assignment": dict({v: rng.choice("AB") for v in rim},
                                       c="C")}
        witnesses = {}
        for i in range(n):
            u, w = rim[i], rim[(i + 1) % n]
            if coloring["assignment"][u] == coloring["assignment"][w] \
                    and rng.random() < 0.7:
                witnesses[",".join(sorted((u, w)))] = \
                    ["ref%d" % ((2 * i + 1) % n), u, w]
        spokes = {}
        a = Fraction(rng.randint(1, 5))
        for v in rim:
            spokes[("c," + v, ("c", v))] = a
            spokes[("c," + v, (v, "c"))] = -a
        ppath = docs.put(chain_doc(spokes))
        kpath = docs.put(coloring)
        wpath = docs.put({"schema_version": formats.SCHEMA_VERSION,
                          "witnesses": witnesses})
        return Job("vanish-check",
                   ["vanish-check", ppath, "--complex", path, "--action",
                    apath, "--coloring", kpath,
                    "--witnesses", wpath],
                   lambda out: check.check_vanish(out, cx, coloring,
                                                  witnesses, 1))

    # one slot per command and action family, with the Z^2
    # diffusions at two epsilons
    out = []
    for _ in range(rounds):
        x = rng.randrange(0, 38)
        line = {str(x): Fraction(1), str(x + 10): Fraction(-1)}
        if rng.random() < 0.5:
            line = {p: -v for p, v in line.items()}
        out.append([
            diffuse(line_path, line, Fraction(1, 8)),
            diffuse(plane_path, _dipole(rng, 10, 1), Fraction(1, 4)),
            diffuse(plane_path, _dipole(rng, 10, 1), Fraction(1, 8)),
            diffuse(plane_path, _dipole(rng, 10, 2), Fraction(1, 8)),
            local(8),
            local(24),
            toy_vanish(6),
            toy_vanish(12),
            *cone_jobs(9),
            vanish(10),
            vanish(30),
        ])
    return out


_BUILDERS = {"lp-seminorm": lp_jobs, "homology-snf": homology_jobs,
             "diffusion-averaging": diffusion_jobs}


def build(workload, seed, work_dir, rounds):
    """Write the documents of a workload and return its rounds of jobs."""
    rng = random.Random("%s/%d" % (workload, seed))
    return _BUILDERS[workload](rng, Docs(work_dir), rounds)
