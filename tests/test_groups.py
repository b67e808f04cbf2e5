"""Group models: the public methods check their arguments, the
unchecked product the diffusion loops use agrees with multiply, and the
group laws are checked on a small generating set."""

from fractions import Fraction

import pytest
import reference
from conftest import symmetric_group_3, wheel_action
from hypothesis import given, settings
from hypothesis import strategies as st

from multicomplex.core import StructureError, UnknownIdError
from multicomplex.diffusion import FiniteSupportMeasure
from multicomplex.groups import (FiniteGroup, FreeAbelianGroup, cyclic_group,
                                 generating_set)


Z2 = FreeAbelianGroup(2)


@pytest.mark.parametrize("bad", [(1, True), (1,), "x"])
def test_the_public_methods_of_z2_reject_a_non_element(bad):
    message = "elements of Z^2 are integer 2-tuples, not %r" % (bad,)
    for call in (lambda: Z2.multiply(bad, (0, 0)),
                 lambda: Z2.multiply((0, 0), bad),
                 lambda: Z2.inverse(bad),
                 lambda: Z2.element_key(bad),
                 lambda: FiniteSupportMeasure(Z2, {bad: Fraction(1)})):
        with pytest.raises(StructureError) as exc:
            call()
        assert str(exc.value) == message
    assert bad not in Z2


_INTS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                  st.sampled_from([2 ** 64, -2 ** 64 - 1]))


@settings(max_examples=100)
@given(st.lists(_INTS, min_size=1, max_size=4).map(tuple))
def test_the_key_of_an_element_of_z_d_joins_its_ints(el):
    group = FreeAbelianGroup(len(el))
    key = ",".join(map(str, el))
    assert group._key(el) == group.element_key(el) == key
    assert group.element_from_key(key) == el


@pytest.mark.parametrize("rank, key, el", [
    (1, "00", (0,)), (1, " 1", (1,)), (1, "+1", (1,)), (1, "-0", (0,)),
    (1, "1_0", (10,)), (1, "\u0663", (3,)), (2, "1, 2", (1, 2)),
    (2, "01,2", (1, 2))])
def test_z_d_refuses_a_key_it_never_writes(rank, key, el):
    group = FreeAbelianGroup(rank)
    with pytest.raises(UnknownIdError) as exc:
        group.element_from_key(key)
    assert str(exc.value) == (
        "%r is not the key of an element of Z^%d; the key of %r is %r"
        % (key, rank, el, group._key(el)))


def test_the_public_methods_of_a_finite_group_reject_a_non_element():
    g = cyclic_group(3)
    cases = [(lambda: g.multiply("x", "r0"), UnknownIdError,
              "unknown group element in product ('x', 'r0')"),
             (lambda: g.multiply("r0", "x"), UnknownIdError,
              "unknown group element in product ('r0', 'x')"),
             (lambda: g.inverse("x"), StructureError,
              "element 'x' has no two-sided inverse"),
             (lambda: g.element_key("x"), UnknownIdError,
              "unknown group element 'x'"),
             (lambda: FiniteSupportMeasure(g, {"x": Fraction(1)}),
              UnknownIdError, "unknown group element 'x'")]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


_finite = st.sampled_from([cyclic_group(1), cyclic_group(5),
                           symmetric_group_3()])


def test_s3_is_a_nonabelian_group():
    g = symmetric_group_3()
    assert g.validate() == []
    assert g.multiply("102", "021") != g.multiply("021", "102")


@given(st.data())
def test_the_unchecked_product_is_multiply(data):
    # multiply calls _product, so both are also held to the definition:
    # the composition table, or componentwise addition
    if data.draw(st.booleans()):
        group = data.draw(_finite)
        elements = st.sampled_from(group.elements)
        product = lambda g, h: group.table[g][h]  # noqa: E731
    else:
        group = FreeAbelianGroup(data.draw(st.integers(1, 3)))
        elements = st.tuples(*[st.integers(-5, 5)] * group.rank)
        product = lambda g, h: tuple(x + y for x, y in zip(g, h))  # noqa: E731
    g, h = data.draw(elements), data.draw(elements)
    assert group._product(g, h) == group.multiply(g, h) == product(g, h)


def _left_normed_products(table, gens) -> set:
    """Every ((s1*s2)*...)*sk with each si in gens, k >= 1."""
    reached, fresh = set(), list(gens)
    while fresh:
        x = fresh.pop()
        if x not in reached:
            reached.add(x)
            fresh.extend(table[x][s] for s in gens)
    return reached


def test_a_generating_set_takes_one_element_per_cyclic_block():
    # the identity comes last, so only the trivial group takes it
    assert generating_set(cyclic_group(1)) == ["r0"]
    assert generating_set(cyclic_group(12)) == ["r1"]
    assert generating_set(wheel_action(30).group) == ["ref0", "rot1"]
    assert generating_set(symmetric_group_3()) == ["021", "102"]
    assert generating_set(FreeAbelianGroup(2)) == [(1, 0), (-1, 0),
                                                   (0, 1), (0, -1)]


@st.composite
def _tables(draw):
    """A group table with up to two products changed, or any table."""
    if draw(st.booleans()):
        group = draw(_finite)
        els = group.elements
        table = group.table
        for _ in range(draw(st.integers(0, 2))):
            g, h, gh = (draw(st.sampled_from(els)) for _ in range(3))
            table[g][h] = gh
        return FiniteGroup(els, table)
    els = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    return FiniteGroup(els, {g: {h: draw(st.sampled_from(els)) for h in els}
                             for g in els})


@settings(max_examples=200)
@given(_tables())
def test_the_group_laws_fail_on_generators_exactly_when_they_fail(group):
    gens = generating_set(group)
    assert _left_normed_products(group.table, gens) == set(group.elements)
    assert bool(group.validate()) == bool(reference.group_problems(group))
    assert any("associativity" in p for p in group.validate()) == \
        any("associativity" in p for p in reference.group_problems(group))


def test_associativity_that_fails_only_past_the_powers_of_r1_is_found():
    # r1*r1 = r0, so the products of r1 reach only r0 and r1, and every
    # failing triple has r2 or r3 third; r2 joins the generators, and the
    # check finds the failures with a generator in the middle
    table = {"r0": {"r0": "r0", "r1": "r1", "r2": "r2", "r3": "r3"},
             "r1": {"r0": "r1", "r1": "r0", "r2": "r0", "r3": "r1"},
             "r2": {"r0": "r2", "r1": "r3", "r2": "r0", "r3": "r1"},
             "r3": {"r0": "r3", "r1": "r2", "r2": "r1", "r3": "r0"}}
    group = FiniteGroup(["r0", "r1", "r2", "r3"], table)
    failing = reference.group_problems(group)
    assert failing and all(p.endswith(("'r2')", "'r3')")) for p in failing)
    assert generating_set(group) == ["r1", "r2"]
    assert group.validate() == [
        "associativity fails at (%r, %r, 'r2'): (%r*%r)*'r2' = %r but "
        "%r*(%r*'r2') = %r" % (a, s, a, s, left, a, s, right)
        for a, s, left, right in [("r1", "r1", "r2", "r1"),
                                  ("r1", "r2", "r2", "r1"),
                                  ("r2", "r1", "r1", "r2"),
                                  ("r3", "r1", "r0", "r3"),
                                  ("r3", "r2", "r0", "r3")]]
