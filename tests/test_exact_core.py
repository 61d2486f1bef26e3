"""Rational primitives and the eps-Laurent coefficient type."""

import pytest

from p1gw.eps import EPS_ONE, EPS_ZERO, EpsLaurent, s_power
from p1gw.rational import (
    Rat,
    binomial,
    decimal_str,
    factorial,
    rat_from_str,
    rat_str,
)


def test_rat_normalizes():
    assert Rat(2, 4) == Rat(1, 2)
    assert rat_str(Rat(-6, 4)) == "-3/2"
    assert rat_str(Rat(8, 4)) == "2"
    assert Rat(8, 4).denominator == 1
    assert Rat(1, 3).denominator == 3


def test_rat_from_str_round_trip():
    for s in ("0", "7", "-7", "1/3", "-22/7", "228191040"):
        assert rat_str(rat_from_str(s)) == s
    with pytest.raises(ValueError):
        rat_from_str("1.5")


def test_binomial_outside_range_is_zero():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


@pytest.mark.parametrize(
    "x, want",
    [
        (Rat(1, 3), "0.333333333333"),
        (Rat(2, 3), "0.666666666667"),
        (Rat(27, 8), "3.375"),
        (Rat(-1, 7000), "-0.000142857142857"),
        (Rat(0), "0"),
        (Rat(3, 8 * 9**10), "1.07548949655e-10"),
    ],
)
def test_decimal_str(x, want):
    assert decimal_str(x) == want


def test_decimal_str_rounding_carries_into_new_digit():
    # 0.9999999999996 rounds up to 1.00000000000 at 12 digits
    assert decimal_str(Rat(9999999999996, 10**13)) == "1"
    assert decimal_str(Rat(999999999999999, 1)) == "1e+15"


def test_decimal_str_small_sig():
    assert decimal_str(Rat(27, 8), sig=2) == "3.4"
    assert decimal_str(Rat(1, 3), sig=1) == "0.3"
    with pytest.raises(ValueError):
        decimal_str(Rat(1, 3), sig=0)


def test_eps_laurent_ring_ops():
    a = EpsLaurent({-2: Rat(3), 0: Rat(1, 2)})
    b = EpsLaurent({2: Rat(4)})
    assert (a + (-a)) == EPS_ZERO
    assert a * EPS_ONE == a
    assert a * EPS_ZERO == EPS_ZERO
    prod = a * b
    assert prod.coeff(0) == Rat(12)
    assert prod.coeff(2) == Rat(2)
    assert (a - a) == EPS_ZERO
    assert a.shift(2).coeff(0) == Rat(3)
    assert (a / 2).coeff(-2) == Rat(3, 2)


def test_eps_laurent_exponent_queries():
    a = EpsLaurent({-2: Rat(3), 4: Rat(1)})
    assert a.min_exp() == -2
    assert a.max_exp() == 4
    assert EPS_ZERO.min_exp() is None
    assert a.is_even()
    assert not EpsLaurent({1: Rat(1)}).is_even()


def test_s_power_head():
    # kernel S = sum eps^(2m) / (4^m (2m+1)!), so S @ eps^2 is 1/24
    s1 = s_power(1, 6)
    assert s1.coeff(0) == Rat(1)
    assert s1.coeff(2) == Rat(1, 24)
    assert s1.coeff(4) == Rat(1, 1920)
    # squaring doubles the eps^2 slope
    assert s_power(2, 4).coeff(2) == Rat(1, 12)
    # the inverse power flips the slope sign
    assert s_power(-1, 4).coeff(2) == Rat(-1, 24)
    assert s_power(-1, 4).coeff(0) == Rat(1)


def test_s_power_inverse_is_exact():
    prod = s_power(3, 10) * s_power(-3, 10)
    # truncated product of S^3 and S^-3 is 1 through the common order
    for e in range(0, 11, 2):
        assert prod.coeff(e) == (Rat(1) if e == 0 else Rat(0))
