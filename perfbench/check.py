"""Independent checks of mcx output documents.

Every check recomputes what it needs from the input and output JSON
documents with plain dicts and fractions.Fraction.  Nothing here imports
the multicomplex package, so a defect in the program cannot hide behind
the same defect in its checker.  A failed check raises CheckFailure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial


class CheckFailure(Exception):
    """An output document that contradicts its inputs."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def rational(s) -> Fraction:
    return Fraction(str(s))


def terms(doc) -> dict:
    """{(simplex, vertices): coefficient} of a chain or cochain document."""
    out = {}
    for t in doc["terms"]:
        key = (t["simplex"], tuple(t["vertices"]))
        out[key] = out.get(key, 0) + rational(t["coeff"])
    return {k: v for k, v in out.items() if v}


def l1(vec: dict) -> Fraction:
    return sum((abs(v) for v in vec.values()), Fraction(0))


def pairing(phi: dict, z: dict) -> Fraction:
    return sum((v * phi.get(k, 0) for k, v in z.items()), Fraction(0))


class Complex:
    """Read-only view of a multicomplex document."""

    def __init__(self, doc):
        self.vertices = list(doc["vertices"])
        self.simplices = {e["id"]: (tuple(sorted(e["vertices"])), e["facets"])
                          for e in doc["simplices"]}

    def dim(self, sid) -> int:
        return len(self.simplices[sid][0]) - 1

    @property
    def top(self) -> int:
        return max((self.dim(s) for s in self.simplices), default=-1)

    def of_dim(self, n) -> list:
        return sorted(s for s in self.simplices if self.dim(s) == n)

    def euler(self, variant="reduced", sub=frozenset()) -> int:
        """Alternating sum of the chain group ranks of the given variant."""
        total = 0
        for sid in self.simplices:
            if sid in sub:
                continue
            d = self.dim(sid)
            total += (-1) ** d * (factorial(d + 1) if variant == "full" else 1)
        return total

    def boundary(self, chain: dict, sub=frozenset()) -> dict:
        """Ordered-simplex boundary; faces in sub are dropped (relative)."""
        out = {}
        for (sid, verts), c in chain.items():
            facets = self.simplices[sid][1]
            for i in range(len(verts)):
                face = verts[:i] + verts[i + 1:]
                if not face:
                    continue
                fid = facets[",".join(sorted(face))]
                if fid in sub:
                    continue
                key = (fid, face)
                out[key] = out.get(key, 0) + (-1) ** i * c
        return {k: v for k, v in out.items() if v}

    def components(self) -> int:
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v
        for verts, _ in self.simplices.values():
            for v in verts[1:]:
                parent[find(v)] = find(verts[0])
        return len({find(v) for v in self.vertices})

    def closed_star(self, v) -> set:
        star = {v}
        for verts, _ in self.simplices.values():
            if v in verts:
                star.update(verts)
        return star


# ---------------------------------------------------------------------------
# homology, products and other complex-valued outputs


def check_homology(out, cx: Complex, ring, variant, known=None,
                   sub=frozenset()):
    expect(out["ring"] == ring.upper(), "ring tag %r" % out["ring"])
    structure = out["structure"]
    expect(sorted(structure, key=int) == [str(n) for n in range(cx.top + 1)],
           "homology degrees %s" % sorted(structure))
    ranks = [structure[str(n)]["betti"] for n in range(cx.top + 1)]
    euler = sum((-1) ** n * r for n, r in enumerate(ranks))
    expect(euler == cx.euler(variant, sub),
           "alternating Betti sum %d != Euler characteristic %d"
           % (euler, cx.euler(variant, sub)))
    if known is not None:
        expect(ranks == list(known), "Betti numbers %s, expected %s"
               % (ranks, list(known)))
    if not sub:
        expect(ranks[0] == cx.components(), "b0 %d != %d components"
               % (ranks[0], cx.components()))
    for n in range(cx.top + 1):
        torsion = structure[str(n)]["torsion"]
        if ring == "q":
            expect(torsion == [], "torsion over Q in degree %d" % n)
        expect(all(t > 1 for t in torsion)
               and all(b % a == 0 for a, b in zip(torsion, torsion[1:])),
               "torsion %s in degree %d is not an invariant factor chain"
               % (torsion, n))
        gens = out["generators"][str(n)]
        expect(len(gens) == ranks[n] + len(torsion),
               "%d generators in degree %d for rank %d, torsion %s"
               % (len(gens), n, ranks[n], torsion))
        for g in gens:
            expect(not cx.boundary(terms(g), sub),
                   "a degree-%d generator is not a relative cycle" % n)


def check_product(out, cx: Complex):
    prod = Complex(out["complex"])
    expect(prod.euler() == cx.euler(), "product Euler characteristic %d != %d"
           % (prod.euler(), cx.euler()))
    expect(len(prod.vertices) == 2 * len(cx.vertices) + len(cx.simplices),
           "product has %d vertices" % len(prod.vertices))
    for end in ("0", "1"):
        vmap = out["bottom" if end == "0" else "top"]["vertex_map"]
        expect(vmap == {v: v + "@" + end for v in cx.vertices},
               "end embedding at %s" % end)


def check_skeleton(out, cx: Complex, dim):
    got = {e["id"] for e in out["simplices"]}
    want = {s for s in cx.simplices if cx.dim(s) <= dim}
    expect(got == want, "skeleton keeps %d simplices, expected %d"
           % (len(got), len(want)))


def check_valid(out):
    expect(out["ok"] is True and out["problems"] == [],
           "a valid complex was rejected: %s" % out["problems"][:1])


def check_nerve(out, cover, max_dim):
    sets = {j: set(pts) for j, pts in cover["sets"].items() if pts}
    nv = Complex(out)
    expect(sorted(nv.vertices) == sorted(sets), "nerve vertices")
    for sid, (verts, _) in nv.simplices.items():
        expect(len(verts) <= max_dim + 1, "nerve simplex %s too big" % sid)
        expect(set.intersection(*(sets[j] for j in verts)),
               "nerve simplex %s has an empty intersection" % sid)
    edges = {verts for verts, _ in nv.simplices.values() if len(verts) == 2}
    for a in sets:
        for b in sets:
            if a < b and sets[a] & sets[b]:
                expect((a, b) in edges, "missing nerve edge %s,%s" % (a, b))


def check_coloring(out, cx: Complex, cover):
    assignment = out["assignment"]
    expect(sorted(assignment) == sorted(cx.vertices), "colored vertices")
    order = sorted(cover["sets"])
    for v, j in assignment.items():
        star = cx.closed_star(v)
        fits = [k for k in order if star <= set(cover["sets"][k])]
        expect(fits and fits[0] == j,
               "vertex %s colored %s, least fitting member is %s"
               % (v, j, fits[:1]))


# ---------------------------------------------------------------------------
# seminorms


def _minus(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def _orderings(cx: Complex, sid, variant):
    verts = cx.simplices[sid][0]
    return permutations(verts) if variant == "full" else [verts]


def in_boundary_span(cx: Complex, chain: dict, degree, variant) -> bool:
    """Whether chain is a rational combination of the boundaries of the
    (degree+1)-simplices, by Fraction elimination on sparse vectors."""
    rows = {}  # leading key -> vector whose leading coefficient is 1

    def reduce(vec):
        while vec:
            lead = max(vec)
            if lead not in rows:
                return vec
            c = vec[lead]
            for k, v in rows[lead].items():
                vec[k] = vec.get(k, 0) - c * v
                if not vec[k]:
                    del vec[k]
        return vec

    for sid in cx.of_dim(degree + 1):
        for w in _orderings(cx, sid, variant):
            vec = reduce(cx.boundary({(sid, tuple(w)): Fraction(1)}))
            if vec:
                lead = max(vec)
                rows[lead] = {k: v / vec[lead] for k, v in vec.items()}
    return not reduce(dict(chain))


def check_dual_certificate(phi: dict, cx: Complex, z: dict, value, variant):
    """phi pairs with z to value, has sup-norm <= 1, kills boundaries."""
    worst = max((abs(v) for v in phi.values()), default=0)
    expect(worst <= 1, "dual certificate sup-norm %s > 1" % worst)
    expect(pairing(phi, z) == value, "certificate pairs to %s, value is %s"
           % (pairing(phi, z), value))
    degree = len(next(iter(z))[1]) - 1 if z else 0
    for sid in cx.of_dim(degree + 1):
        for w in _orderings(cx, sid, variant):
            expect(pairing(phi, cx.boundary({(sid, tuple(w)): 1})) == 0,
                   "certificate does not vanish on the boundary of %s" % sid)


def check_seminorm(out, cx: Complex, z: dict, variant, dual=False,
                   expected=None):
    """expected, when known, is the seminorm derived from the input alone;
    a dual job has no representative, so it must come with one."""
    value = rational(out["value"])
    expect(0 <= value <= l1(z), "value %s outside [0, |z|_1 = %s]"
           % (value, l1(z)))
    if expected is not None:
        expect(value == expected, "value %s, expected %s" % (value, expected))
    check_dual_certificate(terms(out["dual_certificate"]), cx, z, value,
                           variant)
    if dual:
        expect(out["gap_zero"] is True, "duality gap not reported zero")
    else:
        check_representative(terms(out["optimal_representative"]), cx, z,
                             value, variant)


def check_representative(rep: dict, cx: Complex, z: dict, value, variant):
    """rep attains value and lies in the class of z."""
    expect(l1(rep) == value, "representative norm %s != value %s"
           % (l1(rep), value))
    expect(not cx.boundary(rep), "representative is not a cycle")
    degree = len(next(iter(z))[1]) - 1 if z else 0
    expect(in_boundary_span(cx, _minus(rep, z), degree, variant),
           "representative - z is not a boundary")


def check_volume(out, cx: Complex, expected):
    value = rational(out["value"])
    expect(value == expected, "volume %s, expected %s" % (value, expected))
    fc = terms(out["fundamental_cycle"])
    expect(all(v.denominator == 1 for v in fc.values()),
           "fundamental cycle is not integral")
    expect(not cx.boundary(fc), "fundamental cycle is not a cycle")
    check_dual_certificate(terms(out["dual_certificate"]), cx, fc, value,
                           "reduced")


def check_int_seminorm(out, cx: Complex, z: dict, expected):
    best = rational(out["best"])
    expect(out["certified"] is True and out["status"] == "exact",
           "search over the whole box not certified: status %r"
           % out["status"])
    expect(best == expected, "best %s, expected %s" % (best, expected))
    rep = terms(out["representative"])
    expect(all(v.denominator == 1 for v in rep.values()),
           "representative is not integral")
    check_representative(rep, cx, z, best, "reduced")


# ---------------------------------------------------------------------------
# actions, averaging and diffusion


class Action:
    """Read-only view of a group action document on a multicomplex."""

    def __init__(self, doc):
        self.elements = list(doc["elements"])
        self.maps = doc["maps"]

    def key(self, g, key):
        m = self.maps[g]
        return (m["simplex_map"][key[0]],
                tuple(m["vertex_map"][v] for v in key[1]))

    def push(self, g, chain: dict) -> dict:
        return {self.key(g, k): v for k, v in chain.items()}


def check_toy_vanish(out, cx: Complex, action: Action, z: dict, epsilon):
    result = terms(out["result"])
    norm = rational(out["norm"])
    expect(l1(result) == norm, "printed norm %s != %s" % (norm, l1(result)))
    expect(norm <= epsilon, "norm %s above epsilon %s" % (norm, epsilon))
    cert = out["certificate"]
    expect(cx.boundary(terms(cert["bounding_chain"])) == _minus(result, z),
           "bounding chain does not bound result - z")
    expect(sorted(cert["witnesses"]) == sorted(action.elements),
           "one witness per group element")
    for g, b in cert["witnesses"].items():
        expect(cx.boundary(terms(b)) == _minus(action.push(g, z), z),
               "witness for %s does not bound g*z - z" % g)


def _orbit_sums(action: Action, chain: dict, keys) -> dict:
    seen, sums = {}, {}
    for key in keys:
        if key in seen:
            continue
        orb = {action.key(g, key) for g in action.elements}
        for k in orb:
            seen[k] = key
        sums[key] = sum((chain.get(k, 0) for k in orb), Fraction(0))
    return sums


def check_average(out, action: Action, phi: dict):
    avg = terms(out)
    for g in action.elements:
        expect(action.push(g, avg) == avg, "average not invariant under %s"
               % g)
    keys = sorted(set(avg) | set(phi))
    expect(_orbit_sums(action, avg, keys) == _orbit_sums(action, phi, keys),
           "averaging changed an orbit sum")


def check_orbits(out, cx: Complex, action: Action, degree):
    orbits = [[(k["simplex"], tuple(k["vertices"])) for k in orb]
              for orb in out["orbits"]]
    members = [k for orb in orbits for k in orb]
    total = factorial(degree + 1) * len(cx.of_dim(degree))
    expect(len(members) == len(set(members)) == total,
           "orbits cover %d keys, expected %d" % (len(set(members)), total))
    for orb in orbits:
        block = set(orb)
        for g in action.elements:
            expect(all(action.key(g, k) in block for k in orb),
                   "orbit of %s is not closed under %s" % (orb[0], g))


def check_quotient(out, cx: Complex, action: Action):
    orbit_count = len({frozenset(action.maps[g]["simplex_map"][s]
                                 for g in action.elements)
                       for s in cx.simplices})
    quo = Complex(out["complex"])
    expect(len(quo.simplices) == orbit_count, "quotient has %d simplices, "
           "expected %d orbits" % (len(quo.simplices), orbit_count))
    expect(sorted(quo.vertices) == sorted(cx.vertices), "quotient vertices")
    for s, t in out["projection"]["simplex_map"].items():
        expect(quo.simplices[t][0] == cx.simplices[s][0],
               "projection moves the vertices of %s" % s)


def check_vanish(out, cx: Complex, coloring, witnesses, degree):
    colors = coloring["assignment"]
    repeated = set()
    for sid in cx.of_dim(degree):
        cs = [colors[v] for v in cx.simplices[sid][0]]
        if len(set(cs)) < len(cs):
            repeated.add(sid)
    all_ids = set(cx.of_dim(degree))
    expect(set(out["unconstrained"]) == all_ids - repeated,
           "unconstrained simplices")
    expect(set(out["verified"]) == repeated & set(witnesses),
           "verified simplices")
    expect(set(out["missing_witnesses"]) == repeated - set(witnesses),
           "missing witnesses")
    expect(out["complete"] is (not out["missing_witnesses"]),
           "complete flag")


def check_diffuse(out, f: dict, epsilon):
    values = {x: rational(v) for x, v in out["result"]["values"].items()}
    norm = rational(out["norm"])
    total = sum(f.values(), Fraction(0))
    expect(l1(values) == norm, "printed norm %s != %s" % (norm, l1(values)))
    expect(rational(out["certified_bound"]) == abs(total) + epsilon,
           "certified bound %s != |sum f| + epsilon" % out["certified_bound"])
    expect(norm <= abs(total) + epsilon, "norm %s above the bound" % norm)
    expect(sum(values.values(), Fraction(0)) == total, "total not preserved")
    weights = [rational(w) for w in out["measure"]["weights"].values()]
    expect(all(w > 0 for w in weights) and sum(weights) == 1,
           "measure is not a probability measure")


def check_local_diffuse(out, f: dict, blocks, budgets, threshold):
    values = {x: rational(v) for x, v in out["result"]["values"].items()}
    expect(len(out["blocks"]) == len(blocks), "one entry per block")
    for s, (points, entry) in enumerate(zip(blocks, out["blocks"])):
        total = sum((values.get(x, 0) for x in points), Fraction(0))
        norm = sum((abs(values.get(x, 0)) for x in points), Fraction(0))
        expect(total == sum((f.get(x, 0) for x in points), Fraction(0)),
               "sum over block %d not preserved" % s)
        expect(rational(entry["sum"]) == total
               and rational(entry["norm"]) == norm,
               "printed figures of block %d" % s)
        if s >= threshold:
            expect(norm <= budgets[s], "block %d norm %s above budget %s"
                   % (s, norm, budgets[s]))
