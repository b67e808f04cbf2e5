"""Diffusion of finitely supported functions under group actions.

A probability measure mu with finite support on a group acting on a set
spreads a function out: (mu * f)(x) = sum_gamma mu(gamma) f(gamma^{-1}x).
Diffusion never increases the l1 norm, preserves the sum of f over every
invariant subset, and its failure to shrink the norm is controlled by
the discrete derivative of mu.  Amenability enters only through the two
shipped group models: finite groups average exactly, and free abelian
groups carry uniform box measures with arbitrarily small derivative.

Measures are stored fraction-free: integer numerators over one common
denominator (the lcm of the weight denominators), so derivatives and
convolutions run on ints and build a Fraction only for a value that
leaves the module, in the manner of the fraction-free eliminations of
Bareiss (1968).

The module covers measures and their derivatives, box (Folner) measures,
single-orbit diffusion with a certified bound, sequential diffusion over
the orbits of a truncated locally finite action, and finally the toy
vanishing pipeline, which drives the l1 norm of an alternating cycle to
zero by group averaging while certifying that its class is kept.  Its
orbit check reads the orbit totals off the group average.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

# orbits is unused, but perfbench/layers.py patches diffusion.orbits
from .actions import (GroupAction, ValidationReport, act_on_chain,
                      act_on_simplex, average_cochain, orbits)
from .chains import (Chain, RING_RAT, _numerators, alternate,
                     build_full_chain_complex, homology)
from .core import (InternalInvariantError, Multicomplex, MulticomplexError,
                   StructureError)
from .groups import FiniteGroup, FreeAbelianGroup, generating_set


class DiffusionError(MulticomplexError):
    """A diffusion request whose hypotheses fail.

    When the failure has an explicit certificate (for instance a bounding
    chain showing [g*z] = -[z]), it is attached as .witness.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# measures


class FiniteSupportMeasure:
    """A probability measure with finite support on a group model.

    Weights are positive rationals summing to exactly 1; entries with
    weight zero are dropped on construction.  They are kept as positive
    int numerators _num[el] over one common denominator _den, so that
    sum(_num.values()) == _den; weight() and items() return them as
    reduced Fractions.
    """

    def __init__(self, group, weights):
        items = weights.items() if hasattr(weights, "items") else weights
        den, nums = _numerators((group.coerce(el), Fraction(w))
                                for el, w in items)
        self._check(group, nums, den)

    @classmethod
    def _of_numerators(cls, group, pairs, den):
        """The measure with weight n/den at el for each (el, n) in pairs;
        the elements must already be coerced."""
        mu = cls.__new__(cls)
        mu._check(group, pairs, den)
        return mu

    def _check(self, group, pairs, den):
        """Check the weights n/den and store them, summing repeats."""
        num = {}
        for el, n in pairs:
            if n < 0:
                raise StructureError(
                    "measure weights must be nonnegative, got %s at %r"
                    % (Fraction(n, den), el))
            if n:
                num[el] = num.get(el, 0) + n
        total = sum(num.values())
        if total != den:
            raise StructureError(
                "measure weights must sum to 1, got %s" % Fraction(total, den))
        self.group = group
        self._num = num
        self._den = den

    def weight(self, el) -> Fraction:
        return Fraction(self._num.get(self.group.coerce(el), 0), self._den)

    def support(self) -> list:
        return sorted(self._num)

    def items(self) -> list:
        # one Fraction per distinct weight: a box measure has one for all
        weights = {n: Fraction(n, self._den) for n in set(self._num.values())}
        return sorted((el, weights[n]) for el, n in self._num.items())

    def __len__(self) -> int:
        return len(self._num)

    def __repr__(self) -> str:
        return "FiniteSupportMeasure(%d atoms)" % len(self._num)


def delta_measure(group, el) -> FiniteSupportMeasure:
    return FiniteSupportMeasure._of_numerators(
        group, [(group.coerce(el), 1)], 1)


def uniform_measure(group, support) -> FiniteSupportMeasure:
    support = {group.coerce(el) for el in support}
    if not support:
        raise StructureError("a measure needs a nonempty support")
    return FiniteSupportMeasure._of_numerators(
        group, [(el, 1) for el in support], len(support))


# ---------------------------------------------------------------------------
# actions on sets


class OrbitBlock:
    """One orbit of a truncated locally finite action.

    points: the orbit.  group and act: the designated subgroup, given as
    its own group model acting on the ambient points through act(element,
    point).  horizon: the index into the block list from which later
    subgroups must not move anything in this orbit or in the set of
    points this subgroup moves.
    """

    def __init__(self, points, group, act, horizon):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise StructureError("an orbit block has repeated points")
        self.group = group
        self.act = act
        self.horizon = int(horizon)


class ActionOnSet:
    """A group model acting on a finite enumerated set of opaque points.

    act is an oracle (element, point) -> point.  For a truncated locally
    finite action, pass blocks: the ambient group may then be omitted,
    since every computation goes through the per-block subgroups.
    """

    def __init__(self, group, points, act, blocks=None):
        self.group = group
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise StructureError("the point enumeration has repeats")
        self.act = act
        self.blocks = tuple(blocks) if blocks else ()
        if group is None and not self.blocks:
            raise StructureError(
                "an action needs an ambient group or orbit blocks")
        pts = set(self.points)
        for i, b in enumerate(self.blocks):
            if not isinstance(b, OrbitBlock):
                raise StructureError("block %d is not an OrbitBlock" % i)
            stray = [x for x in b.points if x not in pts]
            if stray:
                raise StructureError(
                    "block %d contains %r, which is not an enumerated point"
                    % (i, stray[0]))

    def oracle(self):
        """The ambient oracle act(element, point).

        It takes elements already coerced into self.group and does not
        check them again: apply coerces its element, and convolve,
        _transporters and validate_action_on_set pass only elements
        that a measure, generating_set or the group itself produced.
        """
        if self.act is None:
            raise StructureError(
                "this action has no ambient oracle; use its blocks")
        return self.act

    def apply(self, el, x):
        return self.oracle()(self.group.coerce(el), x)

    def __repr__(self) -> str:
        return "ActionOnSet(%d points%s)" % (
            len(self.points),
            ", %d blocks" % len(self.blocks) if self.blocks else "")


class SparseFunction:
    """A finitely supported rational function on opaque points."""

    def __init__(self, values=None):
        self._vals = {}
        if values:
            items = values.items() if hasattr(values, "items") else values
            for x, v in items:
                # repeated points add up; a mapping never repeats one
                v = Fraction(v)
                if x in self._vals:
                    v += self._vals[x]
                if v:
                    self._vals[x] = v
                else:
                    self._vals.pop(x, None)

    def value(self, x) -> Fraction:
        return self._vals.get(x, Fraction(0))

    def support(self) -> list:
        return sorted(self._vals, key=repr)

    def items(self) -> list:
        return sorted(self._vals.items(), key=lambda kv: repr(kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self._vals

    def l1_norm(self) -> Fraction:
        return sum((abs(v) for v in self._vals.values()), Fraction(0))

    def total(self) -> Fraction:
        return sum(self._vals.values(), Fraction(0))

    def sum_over(self, points) -> Fraction:
        return sum((self._vals.get(x, Fraction(0)) for x in set(points)),
                   Fraction(0))

    def norm_over(self, points) -> Fraction:
        return sum((abs(self._vals.get(x, Fraction(0))) for x in set(points)),
                   Fraction(0))

    def restrict(self, points) -> "SparseFunction":
        keep = set(points)
        return SparseFunction({x: v for x, v in self._vals.items()
                               if x in keep})

    def scaled(self, factor) -> "SparseFunction":
        factor = Fraction(factor)
        return SparseFunction({x: v * factor for x, v in self._vals.items()})

    def __add__(self, other):
        out = dict(self._vals)
        for x, v in other._vals.items():
            cur = out.get(x, Fraction(0)) + v
            if cur == 0:
                out.pop(x, None)
            else:
                out[x] = cur
        return SparseFunction(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        return (isinstance(other, SparseFunction)
                and self._vals == other._vals)

    def __repr__(self) -> str:
        body = ", ".join("%r: %s" % (x, v) for x, v in self.items())
        return "SparseFunction({%s})" % body


# ---------------------------------------------------------------------------
# convolution and derivatives


def convolve(mu: FiniteSupportMeasure, f: SparseFunction,
             a: ActionOnSet) -> SparseFunction:
    """(mu * f)(x) = sum_gamma mu(gamma) f(gamma^{-1} x).

    Computed over the supports: the atom at gamma moves the mass f(y)
    from y to gamma.y, so the support never leaves supp(mu).supp(f).
    The values of f are scaled to ints over their lcm, so the sums run
    on ints over the denominator _den * lcm.  mu must be a measure on
    a.group: its stored elements were coerced when it was built and go
    to the oracle as they are.
    """
    act = a.oracle()
    fden, fnum = _numerators(f.items())
    acc = {}
    # atoms in the order of mu.items(), so a failing oracle fails on the
    # same atom as it would there
    for gamma, w in sorted(mu._num.items()):
        for y, v in fnum:
            x = act(gamma, y)
            acc[x] = acc.get(x, 0) + w * v
    den = mu._den * fden
    out = SparseFunction()
    out._vals = {x: Fraction(n, den) for x, n in acc.items() if n}
    return out


def measure_derivative(mu: FiniteSupportMeasure, phi) -> Fraction:
    """The l1 norm of gamma -> mu(gamma*phi) - mu(gamma).

    That function is nu - mu for nu(gamma) = mu(gamma*phi), the measure
    with nu(s*phi^-1) = mu(s), so one product per atom builds nu.  The
    group must satisfy the group laws (FiniteGroup.validate); a table on
    which s -> s*phi^-1 folds two atoms together raises StructureError.
    """
    g = mu.group
    inv = g.inverse(g.coerce(phi))
    product = g._product
    num = mu._num
    shifted = {product(s, inv): n for s, n in num.items()}
    if len(shifted) != len(num):
        raise StructureError(
            "right multiplication by %r is not injective: the group "
            "table fails the group laws" % (phi,))
    return Fraction(sum(abs(shifted.get(gamma, 0) - num.get(gamma, 0))
                        for gamma in shifted.keys() | num.keys()), mu._den)


def derivative_norm(mu: FiniteSupportMeasure, phis) -> Fraction:
    """The largest derivative of mu along any element of phis."""
    return max((measure_derivative(mu, phi) for phi in phis),
               default=Fraction(0))


# ---------------------------------------------------------------------------
# Folner measures


# The most atoms a Folner box may have.  The box side grows like
# 2|phi|_1/epsilon, so a small epsilon asks for a box that cannot be
# built; such a request fails at once instead.  At the limit, a unit
# dipole's box takes folner_measure 9.2 s and convolve 15.2 s at 367 MiB
# peak RSS in Z^1 (side 1,000,001), and 11.3 s and 17.1 s at 382 MiB in
# Z^2 (side 1,001), on one core of an Intel Xeon under CPython 3.11;
# time and memory grow linearly in the atoms from there.
MAX_BOX_ATOMS = 10 ** 6


def _box_points(rank: int, n: int) -> list:
    return list(iter_product(range(n), repeat=rank))


def folner_measure(group, phis, epsilon) -> FiniteSupportMeasure:
    """A finitely supported measure whose derivative along each element
    of phis is below epsilon.

    Finite groups take the uniform measure (derivative exactly zero).
    Z^d takes the uniform measure on the box {0..N-1}^d: shifting the box
    by phi moves at most a 2*min(|phi_i|, N)/N fraction of its mass per
    axis, which picks N; the derivative of the returned measure is then
    re-checked by direct evaluation.  A box of more than MAX_BOX_ATOMS
    atoms raises DiffusionError before any atom is built.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise StructureError("epsilon must be positive")
    if isinstance(group, FiniteGroup):
        return uniform_measure(group, group.elements)
    if not isinstance(group, FreeAbelianGroup):
        raise StructureError("unsupported group model %r" % (group,))
    phis = [group.coerce(p) for p in phis]
    largest = max((sum(abs(x) for x in p) for p in phis), default=0)
    n = int(2 * largest / epsilon) + 1
    while True:
        atoms = n ** group.rank
        if atoms > MAX_BOX_ATOMS:
            raise DiffusionError(
                "the Folner box of side %d in Z^%d would have %d atoms, "
                "over the limit of %d" % (n, group.rank, atoms, MAX_BOX_ATOMS))
        # the box points are distinct int tuples: no coercion needed
        mu = FiniteSupportMeasure._of_numerators(
            group, [(p, 1) for p in _box_points(group.rank, n)], atoms)
        if derivative_norm(mu, phis) < epsilon:
            return mu
        n += 1  # unreachable given the bound; kept as the honest fallback


# ---------------------------------------------------------------------------
# certified single-orbit diffusion


def _transporters(a: ActionOnSet, base):
    """One group element per enumerated point sending base there.

    Finite groups are enumerated outright.  For Z^d the points are walked
    by generator steps inside the enumeration, so the enumerated set must
    be connected under unit moves; either way a point that cannot be
    reached makes the action non-transitive on the enumerated range.
    """
    pts = set(a.points)
    act = a.oracle()  # elements and generators need no coercion
    if a.group.is_finite:
        reach = {}
        for g in a.group.elements:
            reach.setdefault(act(g, base), g)
    else:
        reach = {base: a.group.identity}
        queue = [base]
        gens = generating_set(a.group)
        product = a.group._product
        while queue:
            x = queue.pop(0)
            for gen in gens:
                y = act(gen, x)
                if y in pts and y not in reach:
                    reach[y] = product(gen, reach[x])
                    queue.append(y)
    missing = [p for p in sorted(pts, key=repr) if p not in reach]
    if missing:
        raise DiffusionError(
            "the action is not transitive on the enumerated points: "
            "%r is not reachable from %r" % (missing[0], base))
    return reach


def diffuse_to_epsilon(a: ActionOnSet, f: SparseFunction, epsilon):
    """Diffuse f until its norm certifiably drops to |sum f| + epsilon.

    Picks a base point in supp(f), collects transporters carrying it to
    the rest of the support, and convolves with a measure whose
    derivative along the inverted transporters is below epsilon/|f|_1.
    Returns (mu, f') with the bound |f'|_1 <= |sum f| + epsilon checked
    exactly before returning.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise StructureError("epsilon must be positive")
    if a.group is None:
        raise StructureError("diffusion needs an ambient group model")
    if f.is_zero:
        return delta_measure(a.group, a.group.identity), f
    pts = set(a.points)
    for x in f.support():
        if x not in pts:
            raise DiffusionError(
                "f is supported at %r, outside the enumerated points" % (x,))
    base = f.support()[0]
    reach = _transporters(a, base)
    inverted = {a.group.inverse(reach[y]) for y in f.support()}
    mu = folner_measure(a.group, inverted, epsilon / f.l1_norm())
    out = convolve(mu, f, a)
    bound = abs(f.total()) + epsilon
    if out.l1_norm() > bound:
        raise InternalInvariantError(
            "diffusion exceeded its certified bound: %s > %s"
            % (out.l1_norm(), bound))
    return mu, out


# ---------------------------------------------------------------------------
# truncated locally finite actions

COMPOSITION_SAMPLES = 64  # triples sampled per oracle when there are more
SAMPLE_SEED = 0


def validate_action_on_set(a: ActionOnSet) -> ValidationReport:
    """Sampled action axioms plus the orbit-structure checks.

    The identity axiom is checked on every enumerated point; composition
    on sampled (or, when small, all) triples.  With blocks: the blocks
    partition the points; every designated subgroup is transitive on its
    own block and maps every block onto itself; and whenever s' is at or
    past the horizon of s, subgroup s' moves nothing in block s or in the
    set of points subgroup s moves.  Everything runs on the enumerated
    range only, which the notes record.
    """
    problems = []
    notes = []
    rng = random.Random(SAMPLE_SEED)

    def sample_elements(group, k):
        if group.is_finite:
            els = list(group.elements)
            return els if len(els) <= k else rng.sample(els, k)
        return [tuple(rng.randint(-3, 3) for _ in range(group.rank))
                for _ in range(k)]

    def check_oracle(label, group, act, points):
        e = group.identity
        for x in points:
            if act(e, x) != x:
                problems.append(
                    "%s: identity moves %r to %r" % (label, x, act(e, x)))
        if not points:
            return
        if group.is_finite and \
                len(group.elements) ** 2 * len(points) <= 4096:
            pairs = [(g, h) for g in group.elements for h in group.elements]
            triples = [(g, h, x) for (g, h) in pairs for x in points]
        else:
            triples = [(g, h, rng.choice(points))
                       for g in sample_elements(group, 8)
                       for h in sample_elements(group, 8)]
            triples = triples[:COMPOSITION_SAMPLES]
        for g, h, x in triples:
            gh = group.multiply(g, h)
            if act(gh, x) != act(g, act(h, x)):
                problems.append(
                    "%s: composition fails at (%r, %r, %r)" % (label, g, h, x))
        notes.append("%s: composition checked on %d triples"
                     % (label, len(triples)))

    if a.group is not None and a.act is not None:
        check_oracle("ambient action", a.group, a.act, list(a.points))

    if a.blocks:
        counts = {}
        for b in a.blocks:
            for x in b.points:
                counts[x] = counts.get(x, 0) + 1
        for x in a.points:
            n = counts.get(x, 0)
            if n != 1:
                problems.append(
                    "blocks do not partition the points: %r appears in %d "
                    "blocks" % (x, n))
        moved = []
        for s, b in enumerate(a.blocks):
            check_oracle("block %d" % s, b.group, b.act, list(b.points))
            try:
                _transporters(ActionOnSet(b.group, b.points, b.act),
                              sorted(b.points, key=repr)[0])
            except DiffusionError as exc:
                problems.append("block %d: %s" % (s, exc))
            except IndexError:
                problems.append("block %d is empty" % s)
            # every block must be carried onto itself by every subgroup;
            # images[k][x] is the image of x under the k-th generator
            images = [{x: b.act(gen, x) for x in a.points}
                      for gen in generating_set(b.group)]
            for t, other in enumerate(a.blocks):
                target = set(other.points)
                for image in images:
                    escaped = [x for x in other.points
                               if image[x] not in target]
                    if escaped:
                        problems.append(
                            "subgroup of block %d moves %r out of block %d"
                            % (s, escaped[0], t))
                        break
            moved.append({x for x in a.points
                          if any(image[x] != x for image in images)})
        for s, b in enumerate(a.blocks):
            guarded = set(b.points) | moved[s]
            for t in range(len(a.blocks)):
                if t >= b.horizon and t != s:
                    overlap = moved[t] & guarded
                    if overlap:
                        problems.append(
                            "blocks %d and %d are not asymptotically "
                            "disjoint: stage %d is past the horizon %d but "
                            "moves %r" % (s, t, t, b.horizon,
                                          sorted(overlap, key=repr)[0]))
        notes.append("asymptotic disjointness checked on the enumerated "
                     "range only")
    return ValidationReport(problems, notes)


def local_diffuse(a: ActionOnSet, f: SparseFunction, epsilons,
                  threshold: int) -> SparseFunction:
    """Sequential per-orbit diffusion on a truncated locally finite action.

    Blocks are processed in list order.  Stages before threshold get a
    fixed uniform smoothing (the uniform measure on a finite subgroup,
    nothing for a free abelian one); from threshold on, stage s runs
    diffuse_to_epsilon against its budget epsilons[s], which requires the
    current function to sum to zero on that block.  Later stages never
    hurt earlier bounds: every block is invariant under every subgroup,
    so convolution preserves each block sum and never increases a block
    norm.  Both facts are re-checked exactly before returning.
    """
    if not a.blocks:
        raise StructureError("local diffusion needs orbit blocks")
    report = validate_action_on_set(a)
    if not report.ok:
        raise DiffusionError(
            "invalid orbit structure: " + "; ".join(report.problems))
    blocks = a.blocks
    if len(epsilons) != len(blocks):
        raise StructureError(
            "expected %d budgets, one per block, got %d"
            % (len(blocks), len(epsilons)))
    budgets = [Fraction(e) for e in epsilons]
    threshold = int(threshold)
    for s, b in enumerate(blocks):
        if s >= threshold:
            if budgets[s] <= 0:
                raise StructureError("budget for block %d must be positive" % s)
            total = f.sum_over(b.points)
            if total != 0:
                raise DiffusionError(
                    "the function has nonzero sum %s on block %d, so its "
                    "norm there cannot drop below |%s|" % (total, s, total))
    cur = f
    for s, b in enumerate(blocks):
        everywhere = ActionOnSet(b.group, a.points, b.act)
        if s < threshold:
            if b.group.is_finite:
                mu = uniform_measure(b.group, b.group.elements)
            else:
                mu = delta_measure(b.group, b.group.identity)
        else:
            own = ActionOnSet(b.group, b.points, b.act)
            mu, _ = diffuse_to_epsilon(own, cur.restrict(b.points),
                                       budgets[s])
        cur = convolve(mu, cur, everywhere)
    for s, b in enumerate(blocks):
        if s >= threshold and cur.norm_over(b.points) > budgets[s]:
            raise InternalInvariantError(
                "block %d norm %s exceeds its budget %s"
                % (s, cur.norm_over(b.points), budgets[s]))
        if cur.sum_over(b.points) != f.sum_over(b.points):
            raise InternalInvariantError(
                "the sum over block %d was not preserved" % s)
    return cur


# ---------------------------------------------------------------------------
# the toy vanishing pipeline


class ToyVanishCertificate:
    """Data certifying that toy_vanish kept the homology class.

    bounding_chain B satisfies boundary(B) = c' - z, where c' is the
    returned chain; it is assembled from the alternation witness and the
    per-element witnesses (one chain b_g with boundary(b_g) = g*z - z per
    group element), which are kept for auditing.
    """

    def __init__(self, bounding_chain: Chain, witnesses: dict):
        self.bounding_chain = bounding_chain
        self.witnesses = dict(witnesses)

    def verify(self, cc, z: Chain, result: Chain) -> bool:
        zq = Chain(z.degree, RING_RAT, dict(z.items()))
        return cc.boundary_of(self.bounding_chain) == result - zq


def toy_vanish(mc: Multicomplex, a: GroupAction, z: Chain, epsilon):
    """Average an alternating cycle to l1 norm <= epsilon, certifiably.

    Pipeline: alternate z and average the alternation with
    average_cochain.  The average at a key is the orbit total over the
    orbit size, so a nonzero one names an orbit that averaging cannot
    cancel, and the request is rejected; otherwise the zero average is
    the result c'.  Every group element must preserve the class of z,
    with an explicit bounding chain as witness; averaging these carries
    a bounding chain B with boundary(B) = c' - z.  Returns (c',
    certificate); the final boundary check and the norm bound are
    verified exactly before returning.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise StructureError("epsilon must be positive")
    if a.complex is not mc and a.complex != mc:
        raise StructureError("the action lives on a different complex")
    cc = build_full_chain_complex(mc, ring=RING_RAT)
    zq = Chain(z.degree, RING_RAT, dict(z.items()))
    if not cc.boundary_of(zq).is_zero:
        raise StructureError("toy_vanish expects a cycle")
    hom = homology(cc)
    c = alternate(zq)

    # orbitwise cancellation: the average is (orbit total)/(orbit size)
    avg = average_cochain(a, c)
    if not avg.is_zero:
        key = avg.support()[0]
        size = len({act_on_simplex(a, g, key) for g in a.group.elements})
        raise DiffusionError(
            "the alternation of z has nonzero total %s on the orbit "
            "of %s; group averaging cannot cancel it there"
            % (avg.coefficient(key) * size, key))

    # class preservation, with explicit witnesses
    witnesses = {}
    for g in a.group.elements:
        gz = act_on_chain(a, g, zq)
        b = hom.is_boundary(gz - zq)
        if b is None:
            flip = hom.is_boundary(gz + zq)
            if flip is not None:
                raise DiffusionError(
                    "element %r does not preserve the class of z: "
                    "[g*z] = -[z], certified by a chain bounding g*z + z"
                    % (g,), witness=flip)
            raise DiffusionError(
                "element %r does not preserve the class of z: g*z - z "
                "is not a boundary" % (g,))
        witnesses[g] = b

    # with no degenerate simplices, alternation need not keep the class
    bounding = hom.is_boundary(c - zq)
    if bounding is None:
        raise DiffusionError("the alternation of z is not homologous to z, "
                             "so averaging it cannot keep the class of z")

    if not c.is_zero:  # a zero alternation keeps its own witness
        # g.c - z = g(c - z) + (g.z - z) is the boundary of g.B + w_g
        w = sum(witnesses.values(), Chain(c.degree + 1, RING_RAT))
        bounding = average_cochain(a, bounding) + w.scaled(
            Fraction(1, len(a.group)))
    c = avg
    if cc.boundary_of(bounding) != c - zq:
        raise InternalInvariantError(
            "the certificate does not bound the difference")
    if c.l1_norm() > epsilon:
        raise InternalInvariantError(
            "final norm %s exceeds epsilon %s" % (c.l1_norm(), epsilon))
    return c, ToyVanishCertificate(bounding, witnesses)
