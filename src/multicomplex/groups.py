"""Group models: finite groups by explicit tables, and free abelian groups.

A finite group is a list of element ids with a full composition table;
nothing is presented or generated, so amenability questions never arise
for it (averaging is a finite sum).  The free abelian model Z^d keeps
elements as integer d-tuples.  Both expose the same small interface:
identity, multiply, inverse, containment, and a string key per element
for serialization.

The public methods check their arguments.  Each model also has _product,
the product of elements that are already coerced (decoded, generated or
returned by the model itself), which the inner loops of diffusion call
without checking them again.
"""

from __future__ import annotations

from operator import add

from .core import StructureError, UnknownIdError


class FiniteGroup:
    """A finite group given by its element list and composition table.

    The table is a nested mapping with table[g][h] = g*h.  The constructor
    enforces referential integrity only; the group laws are checked by
    validate(), so deliberately broken tables can be built and reported
    instead of raising.
    """

    is_finite = True

    def __init__(self, elements, table):
        self._elements = tuple(elements)
        if not self._elements:
            raise StructureError("a group needs at least one element")
        seen = set()
        for g in self._elements:
            if not isinstance(g, str) or not g:
                raise UnknownIdError("element ids must be nonempty strings")
            if g in seen:
                raise UnknownIdError("duplicate element id %r" % g)
            seen.add(g)
        self._table = {}
        for g in self._elements:
            try:
                row = table[g]
            except (KeyError, TypeError):
                raise StructureError(
                    "composition table has no row for %r" % g) from None
            self._table[g] = {}
            for h in self._elements:
                try:
                    gh = row[h]
                except (KeyError, TypeError):
                    raise StructureError(
                        "composition table is missing the product %r * %r"
                        % (g, h)) from None
                if gh not in seen:
                    raise UnknownIdError(
                        "%r * %r is %r, which is not an element" % (g, h, gh))
                self._table[g][h] = gh
        self._identity = None
        self._inverses = None

    @property
    def elements(self) -> tuple:
        return self._elements

    @property
    def table(self) -> dict:
        return {g: dict(row) for g, row in self._table.items()}

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, g) -> bool:
        return g in self._table

    def _product(self, g, h):
        return self._table[g][h]

    def multiply(self, g, h):
        try:
            return self._product(g, h)
        except KeyError:
            raise UnknownIdError(
                "unknown group element in product (%r, %r)" % (g, h)) from None

    def validate(self) -> list[str]:
        """All group-law violations (empty list means the table is a group).

        Associativity is checked on generators by Light's test."""
        problems = []
        els = self._elements
        tab = self._table
        ids = [e for e in els
               if all(tab[e][g] == g == tab[g][e] for g in els)]
        if len(ids) != 1:
            problems.append(
                "table has %d two-sided identities (expected exactly 1)"
                % len(ids))
        for a, s, c in _composition_failures(self, tab, els,
                                             generating_set(self)):
            problems.append(
                "associativity fails at (%r, %r, %r): "
                "(%r*%r)*%r = %r but %r*(%r*%r) = %r"
                % (a, s, c, a, s, c, tab[tab[a][s]][c],
                   a, s, c, tab[a][tab[s][c]]))
        if len(ids) == 1:
            e = ids[0]
            for g in els:
                inv = [h for h in els if tab[g][h] == e and tab[h][g] == e]
                if len(inv) != 1:
                    problems.append(
                        "element %r has %d two-sided inverses" % (g, len(inv)))
        return problems

    @property
    def identity(self):
        if self._identity is None:
            for e in self._elements:
                if all(self._table[e][g] == g == self._table[g][e]
                       for g in self._elements):
                    self._identity = e
                    break
            else:
                raise StructureError("the table has no two-sided identity")
        return self._identity

    def inverse(self, g):
        if self._inverses is None:
            e = self.identity
            inverses = {}
            for a in self._elements:
                for b in self._elements:
                    if self._table[a][b] == e and self._table[b][a] == e:
                        inverses[a] = b
                        break
            self._inverses = inverses
        try:
            return self._inverses[g]
        except KeyError:
            raise StructureError(
                "element %r has no two-sided inverse" % (g,)) from None

    def coerce(self, g):
        if g not in self._table:
            raise UnknownIdError("unknown group element %r" % (g,))
        return g

    # string keys for the file formats
    def element_key(self, g) -> str:
        return self._key(self.coerce(g))

    @staticmethod
    def _key(g) -> str:
        """The key of an element already coerced."""
        return g

    def element_from_key(self, key: str):
        if key not in self._table:
            raise UnknownIdError("unknown group element %r" % (key,))
        return key

    def __repr__(self) -> str:
        return "FiniteGroup(%d elements)" % len(self._elements)


class FreeAbelianGroup:
    """Z^d under componentwise addition; elements are integer d-tuples."""

    is_finite = False

    def __init__(self, rank: int):
        if not isinstance(rank, int) or rank < 1:
            raise StructureError("free abelian rank must be a positive integer")
        self.rank = rank
        # "%d" writes an int as str() does
        self._format = ",".join(["%d"] * rank)

    def coerce(self, el) -> tuple:
        try:
            t = tuple(el)
        except TypeError:
            raise StructureError(
                "elements of Z^%d are integer %d-tuples, not %r"
                % (self.rank, self.rank, el)) from None
        if len(t) != self.rank or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in t):
            raise StructureError(
                "elements of Z^%d are integer %d-tuples, not %r"
                % (self.rank, self.rank, el))
        return t

    @property
    def identity(self) -> tuple:
        return (0,) * self.rank

    def _product(self, g, h) -> tuple:
        return tuple(map(add, g, h))

    def multiply(self, g, h) -> tuple:
        return self._product(self.coerce(g), self.coerce(h))

    def inverse(self, g) -> tuple:
        return tuple(-x for x in self.coerce(g))

    def __contains__(self, el) -> bool:
        try:
            self.coerce(el)
        except StructureError:
            return False
        return True

    def element_key(self, el) -> str:
        return self._key(self.coerce(el))

    def _key(self, el) -> str:
        """The key of an element already coerced."""
        return self._format % el

    def element_from_key(self, key: str) -> tuple:
        """The element whose key is key.  int() also reads "01", " 1",
        "+1" and "-0", which _key never writes; such a key is refused, so
        that no two keys name one element."""
        try:
            t = tuple(int(p) for p in key.split(","))
        except ValueError:
            raise StructureError(
                "cannot parse %r as an element of Z^%d" % (key, self.rank)
            ) from None
        el = self.coerce(t)
        if self._key(el) != key:
            raise UnknownIdError(
                "%r is not the key of an element of Z^%d; the key of %r is "
                "%r" % (key, self.rank, el, self._key(el)))
        return el

    def __repr__(self) -> str:
        return "FreeAbelianGroup(rank=%d)" % self.rank


def generating_set(group) -> list:
    """A small finite generating set: for a finite group, each element,
    in element order with the idempotents (in a group, the identity)
    last, that the left-normed products ((s1*s2)*...)*sk of those taken
    before it do not reach, so that these products reach every element
    of the table, group or not; for Z^d, the positive and negative unit
    vectors.

    A point of an acted-on set fixed by all of these is fixed by the
    whole group, which is what the support computations rely on.
    """
    if group.is_finite:
        tab = group._table
        gens, reached = [], set()
        for g in sorted(group.elements, key=lambda g: tab[g][g] == g):
            if g not in reached:
                gens.append(g)
                # the products that end in g, then all a new one starts
                fresh = [g, *(tab[r][g] for r in reached)]
                while fresh:
                    x = fresh.pop()
                    if x not in reached:
                        reached.add(x)
                        fresh.extend(tab[x][s] for s in gens)
        return gens
    return [tuple(sign if j == i else 0 for j in range(group.rank))
            for i in range(group.rank) for sign in (1, -1)]


def _composition_failures(group, maps, points, gens) -> list:
    """(g, s, x) for each element g and generator s in gens of a finite
    group with maps[g*s][x] != maps[g][maps[s][x]], at the first point x
    that fails: the one check of the group laws and of both action
    validators.  gens is generating_set(group), which the caller has.

    On an associative table, and points that maps[s] carries into points
    for every s in gens, it proves maps[g*h] = maps[g] o maps[h] on the
    points for every h, by induction on the length of h as a left-normed
    product of generators; the step reads the hypothesis at maps[s][x],
    so on points that are not closed it proves nothing.  For maps[g][x] =
    g*x it is Light's associativity test: the s that pass are closed
    under products (Clifford and Preston, The Algebraic Theory of
    Semigroups I, 1961, section 1.2).
    """
    images = {g: list(map(maps[g].__getitem__, points))
              for g in group.elements}
    broken = []
    for g in group.elements:
        mine = maps[g].__getitem__
        for s in gens:
            then = list(map(mine, images[s]))
            got = images[group._product(g, s)]
            if got != then:
                broken.append((g, s, next(
                    x for x, p, q in zip(points, got, then) if p != q)))
    return broken


def cyclic_group(n: int, names=None) -> FiniteGroup:
    """Z/n with elements r0 (identity), r1, ..., r{n-1}."""
    if n < 1:
        raise StructureError("cyclic group order must be >= 1")
    if names is None:
        names = ["r%d" % i for i in range(n)]
    names = list(names)
    if len(names) != n:
        raise StructureError("expected %d element names" % n)
    table = {names[i]: {names[j]: names[(i + j) % n] for j in range(n)}
             for i in range(n)}
    return FiniteGroup(names, table)
