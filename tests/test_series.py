"""Truncated Laurent series, 2x2 matrices, and the multivariate ring."""

import pytest

from brute_force import MultiSeries, inv_diff_expand
from p1gw.eps import EPS_ONE, EPS_ZERO, EpsLaurent
from p1gw.errors import DepthExceeded
from p1gw.rational import Rat
from p1gw.series import INF, LambdaSeries, Mat2


def _ls(d, depth=INF):
    return LambdaSeries({e: EpsLaurent.const(c) for e, c in d.items()}, depth)


def test_lambda_series_coeff_and_depth_guard():
    s = _ls({1: 2, -3: 5}, depth=4)
    assert s.coeff(1) == EpsLaurent.const(2)
    assert s.coeff(-4) == EPS_ZERO
    with pytest.raises(DepthExceeded):
        s.coeff(-5)


def test_lambda_series_drops_below_depth_on_build():
    s = _ls({-9: 1, 0: 1}, depth=4)
    assert -9 not in s.coeffs


def test_add_takes_min_depth():
    a = _ls({0: 1}, depth=6)
    b = _ls({-5: 1}, depth=3)
    c = a + b
    assert c.depth == 3
    assert -5 not in c.coeffs


def test_mul_depth_follows_the_min_rule():
    # multiplying by a polynomial of degree m costs m orders of validity
    a = _ls({2: 1, -3: 1}, depth=5)
    b = _ls({-1: 1}, depth=4)
    prod = a * b
    assert prod.depth == min(5 - 0, 4 - 2)
    assert prod.coeff(1) == EpsLaurent.const(1)
    with pytest.raises(DepthExceeded):
        prod.coeff(-4)


def test_scalar_multiplication():
    a = _ls({-1: 3}, depth=4)
    assert (a * 2).coeff(-1) == EpsLaurent.const(6)
    assert (2 * a).coeff(-1) == EpsLaurent.const(6)
    assert (a * Rat(1, 3)).coeff(-1) == EpsLaurent.const(1)
    e = EpsLaurent.monomial(Rat(1), 2)
    assert (a * e).coeff(-1) == EpsLaurent.monomial(Rat(3), 2)


def test_shift_plus_minus_parts():
    s = _ls({2: 1, 0: 1, -1: 1}, depth=3)
    up = s.lam_shift(2)
    assert up.depth == 1
    assert up.coeff(1) == EpsLaurent.const(1)
    plus = s.plus_part()
    assert plus.depth == INF
    assert set(plus.coeffs) == {0, 2}
    with pytest.raises(DepthExceeded):
        s.lam_shift(5).plus_part()  # depth went negative, split is unknown


def _m(a, b, c, d, depth=10):
    return Mat2(_ls(a, depth), _ls(b, depth), _ls(c, depth), _ls(d, depth))


def test_mat2_commutator_antisymmetry():
    x = _m({0: 1}, {-1: 2}, {-2: 1}, {0: -1})
    y = _m({-1: 1}, {0: 3}, {-1: -1}, {-2: 2})
    lhs = x.commutator(y)
    rhs = -(y.commutator(x))
    for name in "abcd":
        assert getattr(lhs, name).coeffs == getattr(rhs, name).coeffs


def test_mat2_trace_is_cyclic():
    x = _m({0: 1}, {-1: 2}, {-2: 1}, {0: -1})
    y = _m({-1: 1}, {0: 3}, {-1: -1}, {-2: 2})
    assert (x * y).trace().coeffs == (y * x).trace().coeffs


def test_mat2_trace_of_commutator_vanishes():
    x = _m({0: 1}, {-1: 2}, {-2: 1}, {0: -1})
    y = _m({-1: 1}, {0: 3}, {-1: -1}, {-2: 2})
    assert not x.commutator(y).trace()


def test_multi_series_from_lambda_and_coeff():
    ls = _ls({-2: 7}, depth=5)
    ms = MultiSeries.from_lambda(ls, 3, 1)
    assert ms.coeff((0, -2, 0)) == EpsLaurent.const(7)
    assert ms.coeff((0, -5, 0)) == EPS_ZERO
    with pytest.raises(DepthExceeded):
        ms.coeff((0, -6, 0))


def test_multi_series_window_guard():
    lam = LambdaSeries({-1: EPS_ONE}, 6)
    a = MultiSeries.from_lambda(lam, 2, 0)
    b = MultiSeries.from_lambda(lam, 2, 1)
    prod = a.mul(b, window=(-2, -2))
    assert prod.coeff((-1, -1)) == EPS_ONE
    with pytest.raises(DepthExceeded):
        prod.coeff((-2, -1))  # total -3 is outside the kept window


def test_inv_diff_expand_multiplicative_identity():
    lam = LambdaSeries({1: EPS_ONE}, INF)
    L = [MultiSeries.from_lambda(lam, 2, v) for v in (0, 1)]
    jmax = 5
    for pair, power in [((0, 1), 1), ((1, 0), 1), ((0, 1), 2)]:
        x, y = pair
        diff = L[x] - L[y]
        prod = diff
        for _ in range(power - 1):
            prod = prod.mul(diff, keep_all=True)
        out = prod.mul(inv_diff_expand(2, pair, power, jmax=jmax), keep_all=True)
        assert out.coeff((0, 0)) == EPS_ONE
        deep = min(pair)
        for key, val in out.coeffs.items():
            if key == (0, 0) or not val:
                continue
            # residue of the truncation: pushed beyond the requested order
            assert key[deep] <= -(jmax + 1)


def test_inv_diff_expand_sign_convention():
    jmax = 4
    plus = inv_diff_expand(2, (0, 1), 1, jmax=jmax)
    minus = inv_diff_expand(2, (1, 0), 1, jmax=jmax)
    assert (plus + minus).coeffs in ({}, {k: EPS_ZERO for k in ()})
    assert not (plus + minus)
