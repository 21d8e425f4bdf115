from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpic.picard import rational

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


def test_rational_parsing():
    assert rational("5/3") == Fraction(5, 3)
    assert rational("-7") == Fraction(-7)
    assert rational("+4/6") == Fraction(2, 3)
    assert rational(9) == Fraction(9)
    assert rational(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "a", "", "1/0", "1//2", "1e3", "3/-4", "1/+2", "-3/-4"])
def test_rational_rejects_non_fractions(bad):
    with pytest.raises(ValueError):
        rational(bad)


def test_rational_zero_denominator_message_drops_whitespace():
    # the same message as parse_class gives for a zero denominator in a term
    with pytest.raises(ValueError) as raised:
        rational(" 1 / 0 ")
    assert str(raised.value) == "zero denominator: '1/0'"


@pytest.mark.parametrize("bad", [0.5, True, False])
def test_rational_rejects_floats(bad):
    # a bool is an int, but reading True as 1 would let a flag pass for a coefficient
    with pytest.raises(TypeError):
        rational(bad)


@given(rationals, rationals)
def test_addition_cancels_exactly(p, q):
    assert (p + q) - q == p


@given(rationals, rationals.filter(lambda q: q != 0))
def test_multiplication_cancels_exactly(p, q):
    assert (p * q) / q == p


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_canonical_form_idempotent(num, den):
    once = Fraction(num, den)
    assert Fraction(once.numerator, once.denominator) == once
    assert once.denominator > 0
