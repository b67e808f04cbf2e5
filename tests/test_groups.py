"""Group models: the public methods check their arguments, and the
unchecked product the diffusion loops use agrees with multiply."""

from fractions import Fraction

import pytest
from conftest import symmetric_group_3
from hypothesis import given
from hypothesis import strategies as st

from multicomplex.core import StructureError, UnknownIdError
from multicomplex.diffusion import FiniteSupportMeasure
from multicomplex.groups import FreeAbelianGroup, cyclic_group


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
