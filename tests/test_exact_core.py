"""Rational primitives and the eps-Laurent coefficient type."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from brute_force import s_power, s_power_squaring
from p1gw.eps import EPS_ONE, EPS_ZERO, EpsLaurent
from p1gw.errors import MalformedValue
from p1gw.packed import (
    graded_from_packed,
    graded_pack,
    graded_repack,
    graded_trim,
    graded_unpack,
    graded_width,
)
from p1gw.rational import (
    Rat,
    bernoulli_even,
    binomial,
    factorial,
    rat_from_str,
    rat_str,
)
from p1gw.render import decimal_str


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


def test_bernoulli_even_from_tangent_numbers():
    want = [Rat(1, 6), Rat(-1, 30), Rat(1, 42), Rat(-1, 30), Rat(5, 66), Rat(-691, 2730)]
    assert [bernoulli_even(n) for n in range(1, 7)] == want
    with pytest.raises(ValueError):
        bernoulli_even(0)


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


def test_s_power_matches_repeated_squaring():
    # Miller's recurrence over Q[p] against inversion and repeated squaring
    for p in range(-9, 10):
        for order in range(0, 21, 2):
            assert s_power(p, order) == s_power_squaring(p, order), (p, order)


def test_s_power_table_fresh_equals_warm():
    warm = [s_power(p, 16) for p in (-7, -1, 0, 3, 11)]
    with mock.patch.object(brute_force, "_S_POWERS", ((1, (1,)),)):
        fresh = [s_power(p, 16) for p in (-7, -1, 0, 3, 11)]
        # the table grows only to the order asked for
        assert len(brute_force._S_POWERS) == 9
        assert s_power(5, 4) == s_power_squaring(5, 4)
        assert len(brute_force._S_POWERS) == 9
    assert fresh == warm
    with pytest.raises(ValueError):
        s_power(2, 3)


def _graded_poly(parity):
    # coefficients indexed by eps exponent, zero at the other parity,
    # trailing zeros stripped
    def build(cs):
        row = [0] * (2 * len(cs) + parity)
        row[parity::2] = cs
        while row and not row[-1]:
            row.pop()
        return row

    return st.lists(st.integers(-(10**6), 10**6), max_size=6).map(build)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 1), st.integers(0, 1), st.integers(0, 12), st.integers(0, 9))
def test_graded_packing_is_an_exact_ring_map(data, pa, pb, cap, extra):
    a, b = data.draw(_graded_poly(pa)), data.draw(_graded_poly(pb))
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    while prod and not prod[-1]:
        prod.pop()
    # the l1 norm bound of the product covers every coefficient in sight
    bound = max(sum(map(abs, a)) * sum(map(abs, b)), sum(map(abs, a)), sum(map(abs, b)), 1)
    width = graded_width(bound)
    assert width % 2 == 0 and width >= bound.bit_length() + 2
    xa, xb = graded_pack(a, width, pa), graded_pack(b, width, pb)
    assert xa == sum(c * 2 ** (width // 2 * e) for e, c in enumerate(a))  # eps = 2**(width/2)
    assert graded_unpack(xa, width, pa) == a
    assert graded_unpack(xa * xb, width, pa ^ pb) == prod
    kept = [c if e <= cap else 0 for e, c in enumerate(prod)]
    while kept and not kept[-1]:
        kept.pop()
    assert graded_trim(width, cap, pa ^ pb)(xa * xb) == graded_pack(kept, width, pa ^ pb)
    wider = width + 2 * extra
    assert graded_repack(xa, width, wider, pa) == graded_pack(a, wider, pa)
    assert graded_from_packed(xa, width, pa, 3, -2) == EpsLaurent({e - 2: Rat(c, 3) for e, c in enumerate(a)})


def test_graded_pack_refuses_a_term_of_the_other_parity():
    assert graded_pack([0, 5, 0, -1], 8, 1) == (5 + -1 * 2**8) << 4
    with pytest.raises(MalformedValue, match="parity"):
        graded_pack([1, 5], 8, 1)
    with pytest.raises(MalformedValue, match="parity"):
        graded_pack([1, 5], 8, 0)
