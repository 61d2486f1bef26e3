"""Correlator engines: one-point series and cycle sums."""

import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from brute_force import n_point_product, s_power_coeff, s_power_squaring, two_point_product
from p1gw import completed, correlators, cycle, recursion, resolvent
from p1gw.correlators import (
    correlator,
    default_depth,
    default_extract_depth,
    extract_bij,
    n_point,
    one_point,
    split_by_genus,
    two_point,
)
from p1gw.eps import EPS_ONE, EPS_ZERO, EpsLaurent
from p1gw.packed import pack, repack, unpack
from p1gw.errors import (
    CancellationFailure,
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    P1GWError,
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


def _one_point_squaring(k):
    # the one-point formula over the repeated-squaring oracle for S**p
    terms = {}
    for g in range(k // 2 + 2):
        d = (k + 2 - 2 * g) // 2
        terms[2 * g - 2] = s_power_squaring(2 * d - 1, 2 * g).coeff(2 * g) / factorial(d) ** 2
    return EpsLaurent(terms)


def test_one_point_matches_the_squaring_oracle():
    for k in range(61):
        got = one_point(k)
        if k % 2:
            assert got == EPS_ZERO, k
        else:
            assert got == _one_point_squaring(k), k


def _one_point_miller(k):
    # the one-point formula over Miller's S-power table, which served
    # one_point before the central factorial row
    terms = {}
    for g in range(k // 2 + 2):
        d = (k + 2 - 2 * g) // 2
        terms[2 * g - 2] = s_power_coeff(2 * d - 1, g) / factorial(d) ** 2
    return EpsLaurent(terms)


def test_one_point_from_a_fresh_table_equals_warm():
    ks = (0, 2, 14, 38)
    warm = [one_point(k) for k in ks]
    with mock.patch.object(brute_force, "_S_POWERS", ((1, (1,)),)):
        fresh = [_one_point_miller(k) for k in ks]
    assert fresh == warm


def test_one_point_matches_the_miller_table():
    for k in range(0, 161, 2):
        assert one_point(k) == _one_point_miller(k), k


def _one_point_cell(g, d):
    # <tau_k>_{g,d}, d >= 1 and k = 2g + 2d - 2, by the binomial theorem on
    # (2 sinh(x/2))^(2d-1): sum_j (-1)^j C(2d-1, j) (d - 1/2 - j)^(k+1),
    # over (k+1)! (d!)^2
    k, p = 2 * g + 2 * d - 2, 2 * d - 1
    total = sum((-1) ** j * math.comb(p, j) * (p - 2 * j) ** (k + 1) for j in range(p + 1))
    return Rat(total, 2 ** (k + 1) * factorial(k + 1) * factorial(d) ** 2)


def test_one_point_cells_match_the_alternating_sum():
    for k in range(0, 61, 2):
        value = one_point(k)
        for g in range(k // 2 + 1):
            assert value.coeff(2 * g - 2) == _one_point_cell(g, k // 2 + 1 - g), (k, g)
    # large genus: every cell of degree <= 12 at k = 800
    value = one_point(800)
    for d in range(1, 13):
        g = 401 - d
        assert value.coeff(2 * g - 2) == _one_point_cell(g, d), d


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
    with mock.patch.object(cycle, "_cycle_sum", side_effect=AssertionError):
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
    assert correlator((2, 2, 2), depth=12).stability_verified
    with pytest.raises(UnstableExtraction):
        correlator((2, 2, 2), depth=4)
    with pytest.raises(UnstableExtraction):
        correlator((6, 6), depth=4)


def test_negative_depth_is_malformed_on_every_shape():
    # one-point, odd sums, pass, recursion and all-zero shapes, with or
    # without the recheck; the check comes before any engine runs
    with mock.patch.object(
        completed, "pass_correlator", side_effect=AssertionError
    ), mock.patch.object(recursion, "pair_correlator", side_effect=AssertionError):
        for ks in [(4,), (3,), (0,), (3, 2), (2, 2, 2), (18, 18), (0, 0), (5, 1, 0)]:
            for stability in (True, False):
                with pytest.raises(MalformedValue, match=r"depth must be >= 0, got -5$"):
                    correlator(ks, depth=-5, stability=stability)
    # depth 0 keeps its meaning: exact for one insertion, too shallow for more
    assert correlator((4,), depth=0).value == one_point(4)
    assert correlator((3, 2), depth=0).value == EPS_ZERO
    with pytest.raises(UnstableExtraction):
        correlator((2, 2), depth=0)


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
    orig = resolvent.entry_table

    def bad(depth):
        table = dict(orig(depth))
        a, b, c, d = table[-1]
        table[-1] = (a + EPS_ONE, b, c, d)
        return table

    cycle._scaled_table.cache_clear()
    try:
        with mock.patch.object(resolvent, "entry_table", bad):
            for ks in [(0, 0), (2, 2), (4, 0), (0, 4)]:
                with pytest.raises(CancellationFailure):
                    two_point(*ks, depth=8)
    finally:
        cycle._scaled_table.cache_clear()


def test_n_point_probe_fires_when_shallow_sum_survives():
    orig = cycle._cycle_sum

    def bad(targets, depth):
        if any(t > -2 for t in targets):
            return EpsLaurent.const(1)
        return orig(targets, depth)

    with mock.patch.object(cycle, "_cycle_sum", bad):
        with pytest.raises(CancellationFailure):
            n_point((0, 0, 0), depth=8)


def test_two_point_probe_reads_exactly_the_disconnected_term():
    nonzero = 0
    for k0 in range(7):
        for k1 in range(4):
            depth = default_depth((k0, k1))
            for v, p in cycle._probe_plan(2):
                probe = [-k0 - 2, -k1 - 2]
                probe[v] = -p
                z = cycle._disconnected(probe)
                assert cycle._cycle_sum(tuple(probe), depth) == z
                nonzero += bool(z)
    # only slot 1 at exponent 0 against slot 0 at index 0 meets the term
    assert nonzero == 4


def test_default_depth_covers_all_contributions():
    ks = (4, 2)
    d = default_depth(ks)
    assert two_point(*ks, depth=d) == two_point(*ks, depth=d + 6)


def _laurent_cycle_sum(targets, depth):
    # reference: the same DP body over the exact rational entry table; its
    # int seeds and zeros act on EpsLaurent as scalars
    return EPS_ZERO + cycle._seed_total(targets, depth, entry_table(depth), True)


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
    assert cycle._cycle_sum(targets, depth) == _laurent_cycle_sum(targets, depth)


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
        res = cycle._packed_cycle_sum(targets, depth)
        assert res.width == res.bound.bit_length() + 2
        coeffs = unpack(res.packed, res.width)
        assert coeffs and all(abs(c) <= res.bound for c in coeffs), ks
        assert pack(coeffs, res.width) == res.packed
        assert cycle._cycle_sum(targets, depth) == _laurent_cycle_sum(targets, depth), ks
        checked += 1
    assert checked == 4


# correlator() serves one-point, the divisor equation and the recursion's
# pair extraction; _evaluate with its probes on is the cycle DP, an
# independent route
_SERVED_KS = st.lists(st.integers(0, 5), min_size=2, max_size=6).filter(
    lambda ks: sum(ks) <= 12 and sum(ks) % 2 == 0
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_SERVED_KS)
def test_served_route_matches_the_cycle_dp(ks):
    ks = tuple(sorted(ks, reverse=True))
    assert correlator(ks).value == cycle._evaluate(ks, default_depth(ks), True)


@pytest.mark.parametrize(
    "ks", [(0,), (0, 0), (0, 0, 0), (6, 0), (5, 2, 1, 0), (2, 2, 1, 1), (3, 2, 2, 1)]
)
def test_served_route_explicit_cases(ks):
    want = cycle._evaluate(ks, default_depth(ks), True)
    assert correlator(ks).value == want
    budget = sum(ks) + len(ks)
    for stability in (True, False):
        rec = correlator(ks[::-1], depth=budget, stability=stability)
        assert (rec.value, rec.depth_used, rec.stability_verified) == (want, budget, stability)
        if len(ks) >= 2:
            with pytest.raises(UnstableExtraction):
                correlator(ks, depth=budget - 1, stability=stability)


def test_divisor_equation_scales_each_genus_by_its_degree():
    # <tau_0 X>_{g,d} = d <X>_{g,d}, once per index-0 insertion
    x = correlator((5, 2, 1)).value
    for zeros in (1, 2, 3):
        got = correlator((5, 2, 1) + (0,) * zeros).value
        assert got == EpsLaurent({e: c * ((8 - e) // 2) ** zeros for e, c in x.terms.items()})


def test_served_route_never_runs_the_cycle_dp():
    with mock.patch.object(cycle, "_cycle_sum", side_effect=AssertionError):
        for ks in [(1,) * 6, (3, 2, 2, 1), (6, 6), (4, 0, 0), (0,) * 8]:
            correlator(ks)
        assert correlator((2, 2, 2), depth=12).stability_verified


def test_direct_engines_never_call_the_recursion():
    want = [correlator(ks).value for ks in [(3, 1), (2, 1, 1, 0), (2, 2)]]
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError), mock.patch.object(
        recursion, "pair_correlator", side_effect=AssertionError
    ), mock.patch.object(completed, "pass_correlator", side_effect=AssertionError):
        got = [two_point(3, 1), n_point((2, 1, 1, 0)), cycle._evaluate((2, 2), 8, True)]
    assert got == want


def test_stability_check_reruns_the_served_route():
    orig = completed._connected

    def drifting(counts, sums, d_max):
        # a value that depends on the q-series length, as a truncation bug would
        out = orig(counts, sums, d_max)
        return out[:-1] + [[x + d_max for x in out[-1]]]

    with mock.patch.object(completed, "_connected", drifting):
        with pytest.raises(UnstableExtraction, match=r"\(2, 2, 2\) changed between depths 12 and 16$"):
            correlator((2, 2, 2))
    # past the cost rule the pair extraction serves, and reruns deeper
    orig_pair = recursion.pair_correlator

    def drifting_pair(ks, depth):
        return orig_pair(ks, depth) + EpsLaurent.const(depth)

    with mock.patch.object(recursion, "pair_correlator", drifting_pair):
        with pytest.raises(UnstableExtraction, match=r"\(18, 18\) changed between depths 40 and 44$"):
            correlator((18, 18))


# extract_bij: the same cost rule as correlator(), with the recursion's contract

_PAIR_GRID = list(itertools.product((1, 2, 3), range(4), range(1, 5), range(1, 5)))
# past the rule, d_max = (b*m + i + j) / 2 + 1 > PASS_DEGREE
_PAST_RULE = [(6, 3, 8, 8), (5, 4, 8, 6), (1, 0, 18, 18), (2, 1, 18, 16)]


def _is_on_pass(b, m, i, j):
    return correlators._on_pass((b,) * m + (i, j))


def test_extract_bij_equals_the_recursion_on_both_sides_of_the_rule():
    assert all(_is_on_pass(*case) for case in _PAIR_GRID)
    assert not any(_is_on_pass(*case) for case in _PAST_RULE)
    for case in _PAIR_GRID + _PAST_RULE:
        assert extract_bij(*case) == recursion.extract_bij(*case), case
    for case in [(2, 1, 2, 2), (3, 3, 4, 1), (1, 0, 3, 3)] + _PAST_RULE[2:]:
        budget = default_extract_depth(*case)
        want = recursion.extract_bij(*case)
        for depth, cap in ((budget, None), (budget + 3, budget), (None, budget + 2)):
            # the public call takes no cap; the recursion's keeps it
            assert extract_bij(*case, depth=depth) == want, (case, depth)
            assert recursion.extract_bij(*case, depth=depth, eps_cap=cap) == want, (case, depth, cap)


_INVALID_PAIRS = [
    ((0, 1, 1, 1), {}),
    ((1, 1, 0, 1), {}),
    ((1, 1, 1, 0), {}),
    ((0, -1, 0, 0), {}),  # i, j are checked before b and m
    ((0, -1, 1, 1), {}),
    ((2, -1, 1, 1), {}),
    ((2, 1, 2, 2), {"depth": 8}),  # the budget is 9
    ((2, 1, 2, 2), {"depth": -1}),
    ((6, 3, 8, 8), {"depth": 38}),  # past the rule; the budget is 39
]
# the eps cap is the recursion's own parameter, not p1gw.extract_bij's
_INVALID_CAPS = [
    ((1, 4, 1, 1), {"eps_cap": 3}),
    ((1, 1, 1, 1), {"eps_cap": 5, "depth": 1}),  # the cap before the odd-sum shortcut
    ((1, 2, 1, 1), {"eps_cap": -1}),
    ((6, 3, 8, 8), {"eps_cap": 38}),
]


def test_extract_bij_errors_match_the_recursion():
    for args, kwargs in _INVALID_PAIRS:
        with pytest.raises(P1GWError) as want:
            recursion.extract_bij(*args, **kwargs)
        # every check runs before either engine
        with mock.patch.object(recursion, "_levels", side_effect=AssertionError), mock.patch.object(
            completed, "pass_correlator", side_effect=AssertionError
        ):
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$") as got:
                extract_bij(*args, **kwargs)
            assert type(got.value) is type(want.value), (args, kwargs)
    for args, kwargs in _INVALID_CAPS:
        with pytest.raises(P1GWError) as want:
            recursion.extract_bij(*args, **kwargs)
        # the cap is checked before the recursion builds a level
        with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$") as got:
                recursion.extract_bij(*args, **kwargs)
            assert type(got.value) is type(want.value), (args, kwargs)
        with pytest.raises(TypeError):
            extract_bij(*args, **kwargs)
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError), mock.patch.object(
        completed, "pass_correlator", side_effect=AssertionError
    ):
        # an odd index sum is zero at any depth, on both sides of the rule,
        # and at once for any level m
        for case, depth in (
            ((1, 2, 1, 2), -3),
            ((2, 3, 1, 2), 1),
            ((5, 5, 9, 9), None),
            ((1, 10**12 + 1, 1, 1), None),
        ):
            assert extract_bij(*case, depth=depth) == EPS_ZERO


def test_extract_bij_takes_one_route_on_each_side_of_the_rule():
    inside = [(1, 4, 5, 3), (4, 3, 2, 2), (2, 0, 1, 1)]
    want = {case: recursion.extract_bij(*case) for case in inside + _PAST_RULE[:2]}
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
        for case in inside:
            assert extract_bij(*case) == want[case], case
            assert extract_bij(*case, depth=default_extract_depth(*case) + 3) == want[case], case
    with mock.patch.object(completed, "pass_correlator", side_effect=AssertionError):
        for case in _PAST_RULE[:2]:
            assert extract_bij(*case) == want[case], case
