"""Diffusion of finitely supported functions under group actions.

A probability measure mu with finite support on a group acting on a set
spreads a function out: (mu * f)(x) = sum_gamma mu(gamma) f(gamma^{-1}x).
Diffusion never increases the l1 norm, preserves the sum of f over every
invariant subset, and its failure to shrink the norm is controlled by
the discrete derivative of mu.  Amenability enters only through the two
shipped group models: finite groups average exactly, and free abelian
groups carry uniform box measures with arbitrarily small derivative.

Measures and functions keep their values in the fraction-free store of
chains (chains._FractionFree), so derivatives and convolutions run on
int numerators.

The module covers measures and their derivatives, box (Folner) measures,
single-orbit diffusion with a certified bound, sequential diffusion over
the orbits of a truncated locally finite action (local_diffuse and the
diffuse command validate their actions first), and the toy
vanishing pipeline, which drives the l1 norm of an alternating cycle to
zero by group averaging while certifying that its class is kept.  Its
orbit check reads the orbit totals the group average divides.

The work follows the generators and the moved points.  A move table
fixes every point its rows do not name, so validate_action_on_set checks
and local_diffuse convolves a table block on the points it names only;
toy_vanish solves for the class witnesses of the generators only and
builds and checks the others.  A Folner box on Z^d costs its boundary,
not its atoms: measure_derivative reads the derivative off the box side
in closed form, and convolve sums the function over the shifted boxes by
a sweep along each coordinate of a translation oracle's chart, writing a
point only where mass is left.  Each shortcut is exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import product as iter_product
from math import prod

# orbits is unused, but perfbench/layers.py patches diffusion.orbits
from .actions import (GroupAction, _orbit_totals, act_on_chain,
                      average_cochain, orbits)
from .chains import (Chain, HomologyResult, RING_RAT, _FractionFree,
                     alternate, build_full_chain_complex)
from .core import (InternalInvariantError, Multicomplex, MulticomplexError,
                   StructureError, _Memo)
from .groups import (FiniteGroup, FreeAbelianGroup, _composition_failures,
                     generating_set)


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


class FiniteSupportMeasure(_FractionFree):
    """A probability measure with finite support on a group model.

    Weights are positive rationals summing to exactly 1; entries with
    weight zero are dropped on construction.  The elements are coerced
    into the group, and the numerators of the weights sum to the
    denominator; items() returns reduced Fractions.  side is the side n
    of the box {0..n-1}^d when folner_measure built the measure as the
    uniform measure on that box, and None otherwise.
    """

    side = None

    def __init__(self, group, weights):
        items = weights.items() if hasattr(weights, "items") else weights
        # repeated elements add up before the weights are checked
        self._store_values((group.coerce(el), Fraction(w))
                           for el, w in items)._check(group)

    @classmethod
    def _of_numerators(cls, group, num, den):
        """The measure with weight n/den at el for each el: n in the
        mapping num; the elements must already be coerced."""
        return cls.__new__(cls)._store(num, den)._check(group)

    def _check(self, group):
        """Check the stored weights and set the group."""
        num, den = self._num, self._den
        if num and min(num.values()) < 0:
            el, n = next((el, n) for el, n in num.items() if n < 0)
            raise StructureError(
                "measure weights must be nonnegative, got %s at %r"
                % (Fraction(n, den), el))
        total = sum(num.values())
        if total != den:
            raise StructureError(
                "measure weights must sum to 1, got %s" % Fraction(total, den))
        self.group = group
        return self

    def _like(self, num, den):
        return self._of_numerators(self.group, num, den)

    def _space(self) -> tuple:
        return (self.group,)

    def __repr__(self) -> str:
        return "FiniteSupportMeasure(%d atoms)" % len(self._num)


def delta_measure(group, el) -> FiniteSupportMeasure:
    return FiniteSupportMeasure._of_numerators(
        group, {group.coerce(el): 1}, 1)


def uniform_measure(group, support) -> FiniteSupportMeasure:
    num = dict.fromkeys(map(group.coerce, support), 1)
    if not num:
        raise StructureError("a measure needs a nonempty support")
    return FiniteSupportMeasure._of_numerators(group, num, len(num))


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
        check them again: convolve, _transporters and
        validate_action_on_set pass only elements that a measure,
        generating_set or the group itself produced.
        """
        if self.act is None:
            raise StructureError(
                "this action has no ambient oracle; use its blocks")
        return self.act

    def __repr__(self) -> str:
        return "ActionOnSet(%d points%s)" % (
            len(self.points),
            ", %d blocks" % len(self.blocks) if self.blocks else "")


class SparseFunction(_FractionFree):
    """A finitely supported rational function on opaque points, listed
    in the order of their reprs; items() returns reduced Fractions."""

    _order = repr

    def __init__(self, values=None):
        items = values.items() if hasattr(values, "items") else values or ()
        # repeated points add up; a mapping has none
        self._store_values((x, Fraction(v)) for x, v in items)

    @classmethod
    def _of_numerators(cls, num, den):
        """The function with value n/den at x for each x: n in num."""
        return cls.__new__(cls)._store(num, den)

    def _like(self, num, den):
        return self._of_numerators(num, den)

    def sum_over(self, points) -> Fraction:
        get = self._num.get
        return Fraction(sum(get(x, 0) for x in set(points)), self._den)

    def norm_over(self, points) -> Fraction:
        get = self._num.get
        return Fraction(sum(abs(get(x, 0)) for x in set(points)), self._den)

    def restrict(self, points) -> "SparseFunction":
        keep = set(points)
        return self._of_numerators(
            {x: n for x, n in self._num.items() if x in keep}, self._den)

    def __repr__(self) -> str:
        body = ", ".join("%r: %s" % (x, v) for x, v in self.items())
        return "SparseFunction({%s})" % body


# ---------------------------------------------------------------------------
# convolution and derivatives


def _box_sums(boxes, n) -> dict:
    """{x: s} for the int tuples x at which s, the sum of v over the (c,
    v) of boxes with x in the box c + {0..n-1}^d, is nonzero.

    All c have one length d.  The sweep reads the first coordinate: its
    endpoints c_0 and c_0 + n cut the line into intervals on each of
    which the same boxes are open, and the sums over the other
    coordinates of those boxes hold all along the interval.  So the work
    follows the boxes and the points written, not the box atoms.
    """
    if not boxes:
        return {}
    if not boxes[0][0]:  # d = 0: one point, ()
        total = sum(v for _, v in boxes)
        return {(): total} if total else {}
    ends = sorted({e for c, _ in boxes for e in (c[0], c[0] + n)})
    out = {}
    for lo, hi in zip(ends, ends[1:]):
        rest = _box_sums([(c[1:], v) for c, v in boxes
                          if c[0] <= lo < c[0] + n], n)
        if rest:
            out.update(((x,) + t, s) for x in range(lo, hi)
                       for t, s in rest.items())
    return out


def convolve(mu: FiniteSupportMeasure, f: SparseFunction,
             a: ActionOnSet) -> SparseFunction:
    """(mu * f)(x) = sum_gamma mu(gamma) f(gamma^{-1} x).

    Computed over the supports: the atom at gamma moves the mass f(y)
    from y to gamma.y, so the support never leaves supp(mu).supp(f).
    The sums run on the int numerators of both, over the denominator
    mu._den * f._den.  mu must be a measure on a.group: its stored
    elements were coerced when it was built and go to the oracle as
    they are.

    A box measure of side n (see folner_measure) on a translation oracle
    of a set-action document needs no atom.  That oracle carries its
    chart: act.coords(y) is the int tuple of a point it moves, () for a
    point it fixes, and act.point(t) writes the point of a tuple.  The
    box spreads a moved y evenly over c + {0..n-1}^d for c = coords(y),
    so the numerator at x is the sum of f(y) over the boxes that hold
    x; _box_sums sweeps the coordinates for it and writes a point only
    where that sum is nonzero.  A fixed point y keeps mu._den * f(y).
    Every other measure and oracle is called on every pair.
    """
    act = a.oracle()
    den = mu._den * f._den
    coords = getattr(act, "coords", None)
    if mu.side is not None and coords is not None:
        out, moved = {}, []
        for y, v in f._num.items():
            c = coords(y)
            if c:
                moved.append((c, v))
            else:
                out[y] = mu._den * v
        point = act.point
        # a written point parses, so it is never a fixed point
        out.update((point(t), s)
                   for t, s in _box_sums(moved, mu.side).items())
        return SparseFunction._of_numerators(out, den)
    # atoms in the order of mu.items() and points in the order of
    # f.items(), so that a failing oracle fails on the first such pair
    fnum = sorted(f._num.items(), key=lambda kv: repr(kv[0]))
    acc = {}
    for gamma, w in sorted(mu._num.items()):
        for y, v in fnum:
            x = act(gamma, y)
            acc[x] = acc.get(x, 0) + w * v
    return SparseFunction._of_numerators(acc, den)


def measure_derivative(mu: FiniteSupportMeasure, phi) -> Fraction:
    """The l1 norm of gamma -> mu(gamma*phi) - mu(gamma).

    That function is nu - mu for nu(gamma) = mu(gamma*phi), the measure
    with nu(s*phi^-1) = mu(s).  Both have total 1, so the norm is twice
    the mass by which nu exceeds mu.  On the box B = {0..n-1}^d of a box
    measure of side n (see folner_measure), nu is uniform on B - phi,
    which meets B in prod max(n - |phi_i|, 0) points, so the norm is
    2 * (1 - prod max(n - |phi_i|, 0) / n^d) with no atom read.  Any
    other measure takes one product per atom to build nu.  The group
    must satisfy the group laws (FiniteGroup.validate); a table on which
    s -> s*phi^-1 folds two atoms together raises StructureError.
    """
    g = mu.group
    if mu.side is not None:
        inside = prod(max(mu.side - abs(x), 0) for x in g.coerce(phi))
        return Fraction(2 * (mu._den - inside), mu._den)
    inv = g.inverse(g.coerce(phi))
    product = g._product
    num = mu._num
    shifted = {product(s, inv): n for s, n in num.items()}
    if len(shifted) != len(num):
        raise StructureError(
            "right multiplication by %r is not injective: the group "
            "table fails the group laws" % (phi,))
    get = num.get
    return Fraction(2 * sum(n - m for gamma, n in shifted.items()
                            if n > (m := get(gamma, 0))), mu._den)


def derivative_norm(mu: FiniteSupportMeasure, phis) -> Fraction:
    """The largest derivative of mu along any element of phis."""
    return max((measure_derivative(mu, phi) for phi in phis),
               default=Fraction(0))


# ---------------------------------------------------------------------------
# Folner measures


# The most atoms a Folner box may have.  The box side grows like
# 2|phi|_1/epsilon, so a small epsilon asks for a box that cannot be
# built; such a request fails at once instead.  At the limit, a unit
# dipole's box takes folner_measure 0.3 s in Z^1 (side 1,000,000) and
# 0.4 s in Z^2 (side 1,000); convolve takes under 1 ms and 4 ms, as the
# sweep reads no atom and writes only the 2 and 2,000 points left.
# Writing the measure and the result as one document takes another
# 1.3 s in Z^1 and 1.7 s in Z^2, most of the time now, and the peak RSS
# is 356 MiB in Z^1 and 342 MiB in Z^2, reached while writing.  These
# are the best of three runs on one core of a 2-vCPU Intel Xeon under
# CPython 3.11.  Building and writing the atoms grow linearly from
# there.
MAX_BOX_ATOMS = 10 ** 6


def folner_measure(group, phis, epsilon) -> FiniteSupportMeasure:
    """A finitely supported measure whose derivative along each element
    of phis is below epsilon.

    Finite groups take the uniform measure (derivative exactly zero).
    Z^d takes the uniform measure on the box {0..N-1}^d, whose derivative
    along phi is at most 2*sum|phi_i|/N, for N the least side past
    2*sum|phi_i|/epsilon for every phi.  The measure records N as its
    side, from which measure_derivative gives the exact derivative in
    closed form and convolve sweeps the box by its ends; the derivative
    is then checked, and one not below epsilon raises
    InternalInvariantError.  The atoms are built all the same, one per
    point, since the measure is written out atom by atom.  A box of more
    than MAX_BOX_ATOMS atoms raises DiffusionError before any atom is
    built.
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
    atoms = n ** group.rank
    if atoms > MAX_BOX_ATOMS:
        raise DiffusionError(
            "the Folner box of side %d in Z^%d would have %d atoms, "
            "over the limit of %d" % (n, group.rank, atoms, MAX_BOX_ATOMS))
    # the box points are distinct int tuples: no coercion needed
    mu = FiniteSupportMeasure._of_numerators(
        group, dict.fromkeys(iter_product(range(n), repeat=group.rank), 1),
        atoms)
    mu.side = n
    norm = derivative_norm(mu, phis)
    if norm >= epsilon:
        raise InternalInvariantError(
            "the Folner box of side %d has derivative %s, not below %s"
            % (n, norm, epsilon))
    return mu


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
    support = f.support()
    for x in support:
        if x not in pts:
            raise DiffusionError(
                "f is supported at %r, outside the enumerated points" % (x,))
    base = support[0]
    reach = _transporters(a, base)
    # the base's own transporter is the identity on Z^d, whose derivative
    # is 0, and a finite group's measure takes no phis
    inverted = {a.group.inverse(reach[y]) for y in support[1:]}
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

SAMPLE_SEED = 0


def _checked_points(act, points) -> list:
    """The points, in their order, at which oracle act can move anything.

    A table oracle of a set-action document names in act.named every
    point its move rows mention.  Every element with a row fixes every
    other point, so there the identity, composition and block checks
    hold and nothing is moved.  When it names none of the points, the
    first stands in, so that an element without a row still raises.
    Any other oracle is checked on every point.
    """
    named = getattr(act, "named", None)
    if named is None:
        return list(points)
    return [x for x in points if x in named] or list(points[:1])


def validate_action_on_set(a: ActionOnSet) -> list[str]:
    """The problems that the action axioms of every oracle and the
    orbit-structure checks find; an empty list means valid.

    The identity must fix every enumerated point.  A finite group's table
    must be a group, and composition is proved through the generators
    (groups._composition_failures) on the points closed under them, which
    an action keeps within |G| times as many.  Z^d has no finite set of
    elements to check, so composition is sampled on 64 triples; a
    translation oracle acts by construction.  With blocks, they
    partition the points; every designated subgroup acts on all the
    points, is transitive on its own block and maps every block onto
    itself; and whenever s' is at or past the horizon of s, subgroup s'
    moves nothing in block s or in the points subgroup s moves.  Once a
    subgroup acts, its generators tell what it moves and where.
    Everything runs on the enumerated range only.

    Each check reads only the points _checked_points gives: a table
    oracle's rows fix every point they do not name, so a block costs its
    own points, not all of them.  The problems are those of checking
    every point.
    """
    problems = []
    rng = random.Random(SAMPLE_SEED)
    # group -> its generators and table problems: blocks that share a
    # group object find and check them once
    group_checks = _Memo(lambda group: (
        generating_set(group), group.validate() if group.is_finite else []))

    def check_oracle(label, group, act, points):
        """Check one oracle on points and return the maps of its
        generators, which compute each image once, and the points it
        can move."""
        gens, table = group_checks[group]
        maps = {s: _Memo(partial(act, s)) for s in gens}
        checked = _checked_points(act, points)
        if group.is_finite:
            problems.extend("%s: group table: %s" % (label, p) for p in table)
            if table:
                return maps, checked
            # the kernel proves composition on points the generators carry
            # into themselves, so it runs on the points closed under them;
            # an action reaches at most |G| times as many, the fixed points
            # left out of checked counted too
            closed, seen = list(checked), set(checked)
            cap = len(group) * len(points)
            fixed = len(points) - len(checked)
            for x in closed:
                for s in gens:
                    if maps[s][x] not in seen:
                        seen.add(maps[s][x])
                        closed.append(maps[s][x])
                if len(closed) + fixed > cap:
                    problems.append(
                        "%s: the generators carry the points to over %d "
                        "points, more than any action of the group reaches"
                        % (label, cap))
                    return maps, checked
            every = {g: maps[g] if g in maps else
                     {x: act(g, x) for x in closed} for g in group.elements}
            identity = every[group.identity].__getitem__
        else:
            identity = partial(act, group.identity)
        problems.extend("%s: identity moves %r to %r" % (label, x, identity(x))
                        for x in checked if identity(x) != x)
        if group.is_finite:
            broken = _composition_failures(group, every, closed, gens)
        else:  # Z^d has no finite set of elements to check
            draw = [tuple(rng.randint(-3, 3) for _ in range(group.rank))
                    for _ in range(16)]
            broken = [(g, h, x) for g in draw[:8] for h in draw[8:]
                      for x in rng.sample(points, min(1, len(points)))
                      if act(group._product(g, h), x) != act(g, act(h, x))]
        problems.extend("%s: composition fails at (%r, %r, %r)"
                        % (label, g, h, x) for g, h, x in broken)
        return maps, checked

    if a.group is not None and a.act is not None:
        check_oracle("ambient action", a.group, a.act, a.points)

    if a.blocks:
        counts = {}
        owners = {}  # point -> the blocks that list it
        for t, b in enumerate(a.blocks):
            for x in b.points:
                counts[x] = counts.get(x, 0) + 1
                owners.setdefault(x, []).append(t)
        for x in a.points:
            n = counts.get(x, 0)
            if n != 1:
                problems.append(
                    "blocks do not partition the points: %r appears in %d "
                    "blocks" % (x, n))
        targets = [set(b.points) for b in a.blocks]
        moved = []
        for s, b in enumerate(a.blocks):
            # local_diffuse applies every subgroup to every point, so each
            # must act on all of them, not only on its block
            maps, checked = check_oracle("block %d" % s, b.group, b.act,
                                         a.points)
            images = maps.values()
            try:
                _transporters(ActionOnSet(b.group, b.points, b.act),
                              sorted(b.points, key=repr)[0])
            except DiffusionError as exc:
                problems.append("block %d: %s" % (s, exc))
            except IndexError:
                problems.append("block %d is empty" % s)
            # every block must be carried onto itself by every subgroup;
            # each of images maps a point to its image under a generator,
            # and only the checked points can leave their blocks
            mine = set(checked)
            for t in sorted({t for x in checked for t in owners.get(x, ())}):
                target = targets[t]
                inside = [x for x in a.blocks[t].points if x in mine]
                for image in images:
                    escaped = [x for x in inside if image[x] not in target]
                    if escaped:
                        problems.append(
                            "subgroup of block %d moves %r out of block %d"
                            % (s, escaped[0], t))
                        break
            moved.append({x for x in checked
                          if any(image[x] != x for image in images)})
        for s, b in enumerate(a.blocks):
            guarded = targets[s] | moved[s]
            for t in range(len(a.blocks)):
                if t >= b.horizon and t != s:
                    overlap = moved[t] & guarded
                    if overlap:
                        problems.append(
                            "blocks %d and %d are not asymptotically "
                            "disjoint: stage %d is past the horizon %d but "
                            "moves %r" % (s, t, t, b.horizon,
                                          sorted(overlap, key=repr)[0]))
    return problems


def local_diffuse(a: ActionOnSet, f: SparseFunction, epsilons,
                  threshold: int) -> SparseFunction:
    """Sequential per-orbit diffusion on a truncated locally finite action.

    Blocks are processed in list order.  threshold runs from 0 to the
    number of blocks; any other value raises StructureError.  Stages
    before threshold get a fixed uniform smoothing (the uniform measure
    on a finite subgroup, nothing for a free abelian one); from
    threshold on, stage s runs diffuse_to_epsilon against its budget
    epsilons[s], which requires the current function to sum to zero on
    that block.  Later stages never hurt earlier bounds: every block is
    invariant under every subgroup, so convolution preserves each block
    sum and never increases a block norm.  Both facts are re-checked
    exactly before returning.  A table block convolves only the values at
    the points its rows name (see _checked_points) and keeps the others,
    which its elements all fix.
    """
    if not a.blocks:
        raise StructureError("local diffusion needs orbit blocks")
    threshold = int(threshold)
    if not 0 <= threshold <= len(a.blocks):
        raise StructureError(
            "the threshold must be between 0 and %d, the number of "
            "blocks, got %d" % (len(a.blocks), threshold))
    problems = validate_action_on_set(a)
    if problems:
        raise DiffusionError(
            "invalid orbit structure: " + "; ".join(problems))
    blocks = a.blocks
    if len(epsilons) != len(blocks):
        raise StructureError(
            "expected %d budgets, one per block, got %d"
            % (len(blocks), len(epsilons)))
    budgets = [Fraction(e) for e in epsilons]
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
        own = ActionOnSet(b.group, b.points, b.act)
        if s < threshold:
            if b.group.is_finite:
                mu = uniform_measure(b.group, b.group.elements)
            else:
                mu = delta_measure(b.group, b.group.identity)
        else:
            mu, _ = diffuse_to_epsilon(own, cur.restrict(b.points),
                                       budgets[s])
        # mu is a probability measure of elements that all fix the points
        # a table does not name, so it leaves cur there as it is
        named = getattr(b.act, "named", None)
        moving = cur if named is None else cur.restrict(named)
        cur = cur - moving + convolve(mu, moving, own)
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
    per-element witnesses (one chain w_g with boundary(w_g) = g*z - z per
    group element, in element order), which are kept for auditing.  Only
    the generators' witnesses are solved for; the others are built from
    them, and each is checked against its boundary.
    """

    def __init__(self, bounding_chain: Chain, witnesses: dict):
        self.bounding_chain = bounding_chain
        self.witnesses = dict(witnesses)


def _solved_witnesses(a: GroupAction, hom, z: Chain, elements) -> dict:
    """A chain w_g with boundary g*z - z for each g of elements, solved
    for in their order; the first g with none raises DiffusionError,
    with a chain bounding g*z + z as witness when [g*z] = -[z]."""
    witnesses = {}
    for g in elements:
        gz = act_on_chain(a, g, z)
        w = hom.is_boundary(gz - z)
        if w is None:
            flip = hom.is_boundary(gz + z)
            if flip is not None:
                raise DiffusionError(
                    "element %r does not preserve the class of z: "
                    "[g*z] = -[z], certified by a chain bounding g*z + z"
                    % (g,), witness=flip)
            raise DiffusionError(
                "element %r does not preserve the class of z: g*z - z "
                "is not a boundary" % (g,))
        witnesses[g] = w
    return witnesses


def _class_witnesses(a: GroupAction, hom, z: Chain) -> dict:
    """w_g with boundary(w_g) = g*z - z for every element g, in element
    order, from one solve per generator.

    g*s*z - z = g(s*z - z) + (g*z - z), so w_{g*s} = g.w_s + w_g, and
    the right products of the generators reach every element from the
    identity, whose witness is 0.  Every w_g is checked exactly.  When a
    generator does not keep the class, the elements are solved in order,
    so the error names the first element that does not, as a solve per
    element would.
    """
    group = a.group
    try:
        solved = _solved_witnesses(a, hom, z, generating_set(group))
    except DiffusionError:
        _solved_witnesses(a, hom, z, group.elements)
        raise
    product = group._product
    built = {group.identity: Chain(z.degree + 1, RING_RAT)}
    reached = [group.identity]
    for g in reached:
        for s, w in solved.items():
            gs = product(g, s)
            if gs not in built:
                built[gs] = act_on_chain(a, g, w) + built[g]
                reached.append(gs)
    for g in group.elements:
        if g not in built or hom.cc.boundary_of(built[g]) != \
                act_on_chain(a, g, z) - z:
            raise InternalInvariantError(
                "the witness of element %r does not bound g*z - z" % (g,))
    return {g: built[g] for g in group.elements}


def toy_vanish(mc: Multicomplex, a: GroupAction, z: Chain, epsilon):
    """Average an alternating cycle to l1 norm <= epsilon, certifiably.

    Pipeline: alternate z and average the alternation.  The average at a key
    is the orbit total over the orbit size, so a nonzero total names an
    orbit that averaging cannot cancel, and the request is rejected;
    otherwise the average is the result c' = 0.  Every group element must
    preserve the class of z, with an explicit bounding chain as witness,
    solved for on the generators only (_class_witnesses); averaging these
    carries a bounding chain B with boundary(B) = c' - z.  Returns (c',
    certificate); the witnesses, the final boundary check and the norm
    bound are verified exactly before returning.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise StructureError("epsilon must be positive")
    if a.complex is not mc and a.complex != mc:
        raise StructureError("the action lives on a different complex")
    cc = build_full_chain_complex(mc)
    zq = z.as_rational()
    if not cc.boundary_of(zq).is_zero:
        raise StructureError("toy_vanish expects a cycle")
    hom = HomologyResult(cc, RING_RAT)
    c = alternate(zq)

    # orbitwise cancellation: the average is (orbit total)/(orbit size)
    for orb, total in _orbit_totals(a, c):
        if total:
            raise DiffusionError(
                "the alternation of z has nonzero total %s on the orbit "
                "of %s; group averaging cannot cancel it there"
                % (total, orb[0]))

    # class preservation, with explicit witnesses
    witnesses = _class_witnesses(a, hom, zq)

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
    c = Chain(c.degree, RING_RAT)
    if cc.boundary_of(bounding) != c - zq:
        raise InternalInvariantError(
            "the certificate does not bound the difference")
    if c.l1_norm() > epsilon:
        raise InternalInvariantError(
            "final norm %s exceeds epsilon %s" % (c.l1_norm(), epsilon))
    return c, ToyVanishCertificate(bounding, witnesses)
