"""Correlator engines: one-point series and cycle sums."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import n_point_product, two_point_product
from p1gw import correlators
from p1gw.correlators import (
    correlator,
    default_depth,
    n_point,
    one_point,
    split_by_genus,
    stability_check,
    two_point,
)
from p1gw.eps import EPS_ONE, EPS_ZERO, EpsLaurent, pack, repack, unpack
from p1gw.errors import (
    CancellationFailure,
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    UnstableExtraction,
)
from p1gw.rational import Rat, factorial
from p1gw import reference
from p1gw.resolvent import entry_table


@pytest.mark.parametrize("k", [0, 2, 4])
def test_one_point_matches_frozen_heads(k):
    head = reference.one_point_head(k)
    scaled = (one_point(k) * factorial(k + 1)).shift(1)
    assert dict(scaled.terms) == head


def test_one_point_odd_vanishes_and_validates():
    assert one_point(1) == EPS_ZERO
    assert one_point(7) == EPS_ZERO
    with pytest.raises(IndexOutOfRange):
        one_point(-2)


def test_two_point_is_symmetric():
    assert two_point(0, 4) == two_point(4, 0)
    assert two_point(3, 5) == two_point(5, 3)


def test_two_point_flagship_row():
    want = {e: v for e, v in reference.flagship_series()[4][1].items()}
    assert dict(two_point(6, 6).terms) == want


_PAIRS = [(k1, k2) for k1 in range(7) for k2 in range(7)] + [(0, 9), (9, 0), (8, 3), (3, 8)]


@pytest.mark.parametrize("extra", [0, 4])
def test_two_point_matches_bivariate_product(extra):
    for k1, k2 in _PAIRS:
        depth = default_depth((k1, k2)) + extra
        assert two_point(k1, k2, depth=depth) == two_point_product(k1, k2, depth), (k1, k2)


_SWEEP_KS = (
    [ks for ks in itertools.product(range(7), repeat=2)]
    + [ks for ks in itertools.product(range(5), repeat=3)]
    + [ks for ks in itertools.product(range(3), repeat=4)]
)


def test_shallow_depths_raise_or_return_the_default_value():
    # a depth below the spend budget sum(ks) + n raises; every depth from
    # there up returns the exact value, never a truncated sum
    for ks in _SWEEP_KS:
        evaluate = two_point if len(ks) == 2 else (lambda *ks, depth: n_point(ks, depth=depth))
        want = evaluate(*ks, depth=default_depth(ks))
        for depth in range(default_depth(ks)):
            if depth < sum(ks) + len(ks):
                with pytest.raises(DepthExceeded):
                    evaluate(*ks, depth=depth)
            else:
                assert evaluate(*ks, depth=depth) == want, (ks, depth)


def test_n_point_flagship_six_ones():
    want = reference.flagship_series()[0][1]
    assert dict(n_point((1,) * 6).terms) == want


@pytest.mark.parametrize("ks", [(2, 1, 1), (2, 2, 2), (1, 1, 1, 1), (3, 2, 1)])
def test_cycle_sum_agrees_with_product_expansion(ks):
    assert n_point(ks) == n_point_product(ks)


def test_n_point_odd_total_vanishes():
    assert n_point((1, 1, 1)) == EPS_ZERO
    assert n_point((2, 2, 1)) == EPS_ZERO
    # correlator returns an odd sum's zero without running the cycle DP,
    # with the depth and stability flag it would have reported
    with mock.patch.object(correlators, "_cycle_sum", side_effect=AssertionError):
        rec = correlator((1,) * 7)
        assert (rec.value, rec.by_genus) == (EPS_ZERO, ())
        assert (rec.depth_used, rec.stability_verified) == (default_depth((1,) * 7), True)
        rec = correlator((2, 1), depth=4, stability=False)
        assert (rec.value, rec.depth_used, rec.stability_verified) == (EPS_ZERO, 4, False)


def test_validation_errors():
    with pytest.raises(MalformedValue):
        n_point((1, 1))  # too few for the cycle engine
    with pytest.raises(MalformedValue):
        correlator(())
    with pytest.raises(MalformedValue):
        correlator((0,) * 9)
    with pytest.raises(IndexOutOfRange):
        correlator((1, -1))


def test_correlator_record_fields():
    rec = correlator((2, 2, 2))
    assert rec.insertions == (2, 2, 2)
    assert rec.stability_verified
    want = [Rat("1"), Rat("25/24"), Rat("19/192"), Rat("1/13824")]
    got = [v for _, _, v in rec.by_genus]
    assert got[: len(want)] == want
    assert all(v == 0 for v in got[len(want):])
    # degrees descend as genus grows
    assert [(g, d) for g, d, _ in rec.by_genus][:2] == [(0, 4), (1, 3)]


def test_correlator_canonicalizes_order():
    assert correlator((1, 3, 2)).insertions == (3, 2, 1)


def test_split_by_genus_rejects_stray_exponent():
    bad = EpsLaurent({-1: Rat(1)})
    with pytest.raises(MalformedValue):
        split_by_genus(bad, (0, 0))


def test_split_by_genus_keeps_explicit_zeros():
    rows = split_by_genus(two_point(1, 1), (1, 1))
    assert (1, 1, Rat(0)) in rows  # odd insertions kill the d=1 cell


def test_stability_check_passes_and_fails():
    assert stability_check((2, 2, 2), 12, 16)
    with pytest.raises(UnstableExtraction):
        stability_check((2, 2, 2), 4, 16)
    with pytest.raises(UnstableExtraction):
        stability_check((6, 6), 4, 16)


def test_unstable_explicit_depth_in_correlator():
    with pytest.raises(UnstableExtraction):
        correlator((2, 2, 2), depth=4)
    # below the default depth a fixed depth is unstable or exact, with or
    # without the deeper recheck
    for ks in [(2, 2, 2), (4, 4, 4), (3, 1), (6, 6), (2, 1, 1, 0)]:
        want = correlator(ks).value
        for depth in range(default_depth(ks)):
            for stability in (True, False):
                try:
                    got = correlator(ks, depth=depth, stability=stability).value
                except UnstableExtraction:
                    continue
                assert got == want, (ks, depth, stability)


def test_two_point_cancellation_probe_fires_on_corruption():
    # a unit spike at lam^-1 in the (1,1) entry, as in a corrupted resolvent
    orig = correlators.entry_table

    def bad(depth):
        table = dict(orig(depth))
        a, b, c, d = table[-1]
        table[-1] = (a + EPS_ONE, b, c, d)
        return table

    correlators._scaled_table.cache_clear()
    try:
        with mock.patch.object(correlators, "entry_table", bad):
            for ks in [(0, 0), (2, 2), (4, 0), (0, 4)]:
                with pytest.raises(CancellationFailure):
                    two_point(*ks, depth=8)
    finally:
        correlators._scaled_table.cache_clear()


def test_n_point_probe_fires_when_shallow_sum_survives():
    orig = correlators._cycle_sum

    def bad(targets, depth):
        if any(t > -2 for t in targets):
            return EpsLaurent.const(1)
        return orig(targets, depth)

    with mock.patch.object(correlators, "_cycle_sum", bad):
        with pytest.raises(CancellationFailure):
            n_point((0, 0, 0), depth=8)


def test_two_point_probe_reads_exactly_the_disconnected_term():
    nonzero = 0
    for k0 in range(7):
        for k1 in range(4):
            depth = default_depth((k0, k1))
            for v, p in correlators._probe_plan(2):
                probe = [-k0 - 2, -k1 - 2]
                probe[v] = -p
                z = correlators._disconnected(probe)
                assert correlators._cycle_sum(tuple(probe), depth) == z
                nonzero += bool(z)
    # only slot 1 at exponent 0 against slot 0 at index 0 meets the term
    assert nonzero == 4


def test_default_depth_covers_all_contributions():
    ks = (4, 2)
    d = default_depth(ks)
    assert two_point(*ks, depth=d) == two_point(*ks, depth=d + 6)


_LAURENT = correlators._Ring(EPS_ZERO, EPS_ONE, True)


def _laurent_cycle_sum(targets, depth):
    # reference: the same DP body over the exact rational entry table
    return correlators._seed_total(targets, depth, entry_table(depth), _LAURENT)


def _cycle_case(ks, draw):
    targets = [-k - 2 for k in ks]
    # a probe puts one slot at exponent 0 or -1, as the cancellation check does
    slot = st.tuples(st.integers(0, len(ks) - 1), st.sampled_from((0, 1)))
    probe = draw(st.one_of(st.none(), slot))
    if probe is not None:
        v, p = probe
        targets[v] = -p
    extra = draw(st.sampled_from((0, 4)))
    return tuple(targets), default_depth(ks) + extra


_CYCLE_KS = st.lists(st.integers(0, 5), min_size=3, max_size=4).filter(lambda ks: sum(ks) <= 10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_CYCLE_KS, st.data())
def test_packed_cycle_sum_matches_rational_dp(ks, data):
    targets, depth = _cycle_case(ks, data.draw)
    assert correlators._cycle_sum(targets, depth) == _laurent_cycle_sum(targets, depth)


def test_pack_round_trip():
    coeffs = [3, -5, 0, 7, -1, -128]
    assert unpack(pack(coeffs, 9), 9) == coeffs
    assert repack(pack(coeffs, 9), 9, 14) == pack(coeffs, 14)
    top = 2**9 - 1
    for edge in ([top], [-top], [top, -top, 0, top], [-top, top, -top]):
        assert unpack(pack(edge, 10), 10) == edge
    assert pack([], 10) == 0
    assert pack([0, 0, 0], 10) == 0
    assert unpack(0, 10) == []


def test_flagship_packing_width_is_proven():
    checked = 0
    for ks, _ in reference.flagship_series():
        if len(ks) < 3:
            continue
        targets = tuple(-k - 2 for k in ks)
        depth = default_depth(ks)
        res = correlators._packed_cycle_sum(targets, depth)
        assert res.width == res.bound.bit_length() + 2
        coeffs = unpack(res.packed, res.width)
        assert coeffs and all(abs(c) <= res.bound for c in coeffs), ks
        assert pack(coeffs, res.width) == res.packed
        assert correlators._cycle_sum(targets, depth) == _laurent_cycle_sum(targets, depth), ks
        checked += 1
    assert checked == 4
