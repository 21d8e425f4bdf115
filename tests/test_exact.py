import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpic.errors import SingularMatrixError
from spinpic.picard import rational
from spinpic.testcurves import _solve3

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mat_vec(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


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


# The exact 3x3 solve behind the theta-null re-derivation. It is private to
# testcurves but exercised here, beside the other exact-arithmetic properties.


def test_solve_identity():
    b = [Fraction(1, 4), Fraction(1, 16), Fraction(0)]
    assert _solve3(_identity(3), b) == b


def test_solve_pencil_relation_system():
    # the 3x3 system of the pencil relations at genus 5
    a = [
        [Fraction(1), Fraction(-12), Fraction(0)],
        [Fraction(3), Fraction(-12), Fraction(-12)],
        [Fraction(0), Fraction(0), Fraction(4)],
    ]
    b = [Fraction(-1, 2), Fraction(0), Fraction(0)]
    assert _solve3(a, b) == [Fraction(1, 4), Fraction(1, 16), Fraction(0)]


def test_solve_singular():
    a = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    with pytest.raises(SingularMatrixError):
        _solve3(a, [Fraction(1), Fraction(1), Fraction(1)])


def test_solve_seeded_3x3_resubstitution():
    rng = random.Random(20260810)
    solved = 0
    for _ in range(25):
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)] for _ in range(3)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)]
        try:
            x = _solve3(a, b)
        except SingularMatrixError:
            continue
        solved += 1
        assert all(type(v) is Fraction for v in x)
        assert _mat_vec(a, x) == b
    assert solved > 0


@given(st.data())
def test_solve_round_trip(data):
    a = data.draw(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3)
    )
    x = data.draw(st.lists(rationals, min_size=3, max_size=3))
    try:
        got = _solve3(a, _mat_vec(a, x))
    except SingularMatrixError:
        return
    assert got == x
