"""The completed-cycle pass against the engines it replaced or stands
beside: the recursion rows of the tables, the cycle DP and the pair
extraction of correlator()."""

import json
from unittest import mock

import pytest

from brute_force import zeta_term_recurrence
from p1gw import cli, completed, correlators, oracles, recursion, reference
from p1gw.completed import (
    CACHED_DEGREE,
    PASS_DEGREE,
    _cached_p,
    _cached_shapes,
    _sums,
    _zeta_term,
    pass_correlator,
    polygon_table,
)
from p1gw.correlators import STABILITY_STEP, correlator, n_point, one_point, two_point
from p1gw.eps import EPS_ZERO
from p1gw.errors import UnstableExtraction
from p1gw.rational import Rat, factorial, rat_from_str
from p1gw.recursion import extract_bij, pair_correlator


def test_partition_sums_follow_the_branching_rule():
    # sum over |lam| = d of (dim lam)^2 is d!, whatever P groups them: the
    # sub-key (0,) of every pass
    for k in (1, 2, 5):
        assert [row[0] for row in _sums((k,), (0,), 9)] == [factorial(d) for d in range(10)]
    # k = 2: 4 p_2 is 8 times the content sum and zeta(-2) = 0
    assert _zeta_term(2) == (0, 1)
    assert _cached_shapes(2)[0] == ((2,), (1, 1)) and _cached_p(2, 2) == (8, -8)
    assert _sums((2,), (2,), 2)[2] == [2, 0, 128]
    assert _zeta_term(1) == (-1, 12) and _zeta_term(3) == (7, 120)


def test_zeta_terms_equal_the_bernoulli_recurrence():
    # tangent numbers against the defining recurrence of the Bernoulli numbers
    for k in range(120):
        assert _zeta_term(k) == zeta_term_recurrence(k), k


def test_streamed_degrees_equal_the_cached_ones():
    # degrees past CACHED_DEGREE are grown from the one below and dropped
    want = _sums((4, 2), (2, 3), 12)
    with mock.patch.object(completed, "CACHED_DEGREE", 3):
        assert _sums((4, 2), (2, 3), 12) == want
    # the caches hold only the degrees correlator() reaches, whatever a
    # table walks
    assert CACHED_DEGREE == PASS_DEGREE + STABILITY_STEP
    _cached_shapes.cache_clear()
    _cached_p.cache_clear()
    assert polygon_table(6, 8).stability_verified  # walks to degree 25 + STABILITY_STEP
    assert _cached_shapes.cache_info().currsize == CACHED_DEGREE + 1
    assert _cached_p.cache_info().currsize == CACHED_DEGREE + 1


def test_stability_reruns_the_pass_with_longer_series():
    lengths = []
    run = completed._rows

    def drifting(b, n_max, g_max, sums, d_max):
        lengths.append(d_max)
        rows = run(b, n_max, g_max, sums, d_max)
        return rows if len(lengths) == 1 else rows[:-1] + [(rows[-1][0] + 1,) + rows[-1][1:]]

    # (2, 4): top = 4, so the series stop after q^5, and the rerun after q^9
    with mock.patch.object(completed, "_rows", drifting):
        with pytest.raises(UnstableExtraction, match="changed between q-series lengths 5 and 9$"):
            polygon_table(2, 4)
    assert lengths == [5, 5 + STABILITY_STEP]
    # one partition walk, to the rerun's length, serves both
    with mock.patch.object(completed, "_sums", wraps=_sums) as walk:
        assert polygon_table(2, 4).stability_verified
    assert [c.args[2] for c in walk.call_args_list] == [5 + STABILITY_STEP]
    # no rerun without stability, for weight 0 or for a single row
    with mock.patch.object(completed, "_rows", wraps=run) as once:
        for args, kw in (((2, 4), {"stability": False}), ((0, 4), {}), ((2, 1), {})):
            assert not polygon_table(*args, **kw).stability_verified
    assert once.call_count == 3


def test_completed_cycle_tables_equal_the_recursion_rows():
    # row 1 is the one-point series, row n >= 2 the pair extraction
    # (b, n - 2, b, b), an odd b * n row zero, at every b * n_max <= 20
    series = {}
    checked = 0
    for b in range(1, 21):
        for n_max in range(1, 20 // b + 1):
            for g_max in (None, b * n_max // 2 + 3):
                tab = polygon_table(b, n_max, g_max=g_max)
                for n in range(1, n_max + 1):
                    if (b, n) not in series and (b * n) % 2 == 0:
                        series[(b, n)] = one_point(b) if n == 1 else extract_bij(b, n - 2, b, b)
                    want = series.get((b, n))
                    for g in range(tab.g_max + 1):
                        assert tab.cell(n, g) == (want.coeff(2 * g - 2) if want else 0), (b, n_max, n, g)
                        checked += 1
    assert (len(series), checked) == (44, 6267)


def test_completed_cycles_adjudicate_the_known_conflicts():
    # the quarantined single-insertion cells are the one-point values, not
    # the tabulated ones, on a route that shares no code with one_point
    for (b, n, g), (tabulated, one_point_value) in reference.KNOWN_CONFLICTS.items():
        cell = polygon_table(b, n, g_max=g).cell(n, g)
        assert cell == Rat(one_point_value) == one_point(b).coeff(2 * g - 2)
        assert cell != Rat(tabulated)
    assert polygon_table(4, 1, g_max=1).cell(1, 1) == Rat(1, 32)


def test_cli_hurwitz_counts_equal_the_recursion_oracle(capsys):
    # `p1gw hurwitz` reads the completed-cycle table; oracles.hurwitz stays
    # on the pair extraction
    assert cli.main(["hurwitz", "--n-max", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 14
    for row in rows:
        assert rat_from_str(row["count"]) == oracles.hurwitz(row["g"], row["d"]), row


def test_cost_rule_is_one_degree_bound():
    # the pass serves the nonzero indices xs iff d_max = sum(xs) / 2 + 1 is
    # at most PASS_DEGREE
    assert PASS_DEGREE == 17
    for xs in ((16, 16), (2,) * 8, (12, 10, 8, 2), (1, 1), (17, 16)):
        assert correlators._on_pass(xs), xs
    for xs in ((18, 16), (18, 18), (20, 20), (12, 10, 8, 4)):
        assert not correlators._on_pass(xs), xs


def test_each_side_of_the_rule_takes_one_route():
    # the other route raises, and each value is the cycle DP's
    with mock.patch.object(recursion, "pair_correlator", side_effect=AssertionError):
        assert correlator((16, 16)).value == two_point(16, 16)
        assert correlator((10, 10, 10)).value == n_point((10, 10, 10))
        assert correlator((16, 16, 0)).value == n_point((16, 16, 0))
    with mock.patch.object(completed, "pass_correlator", side_effect=AssertionError):
        assert correlator((18, 18)).value == two_point(18, 18)
        assert correlator((12, 12, 12)).value == n_point((12, 12, 12))
        assert correlator((18, 16, 0)).value == n_point((18, 16, 0))


def test_correlator_rerun_lengthens_the_series_of_one_walk():
    # (2, 2, 2): d_max = 4; the rerun runs the connecting step again at
    # length 8 over the partition sums of the one walk to degree 8
    for stability, lengths in ((True, [4, 4 + STABILITY_STEP]), (False, [4])):
        with mock.patch.object(completed, "_sums", wraps=_sums) as walk, mock.patch.object(
            completed, "_connected", wraps=completed._connected
        ) as connect:
            rec = correlator((2, 2, 2), stability=stability)
        assert rec.stability_verified == stability
        assert [c.args[2] for c in walk.call_args_list] == lengths[-1:]
        assert [c.args[2] for c in connect.call_args_list] == lengths


@pytest.mark.parametrize(
    "ks",
    [(1,) * 12, (2,) * 10, (4, 2, 2, 1, 1, 1, 1, 1, 1), (3, 3, 2, 2, 1, 1, 1, 1, 1, 1), (12, 10, 8), (20, 20)],
)
def test_pass_equals_the_pair_extraction_beyond_the_cycle_dp(ks):
    # past n = 8 the cycle DP cannot check the pass; the pair extraction can
    want = pair_correlator(ks)
    assert want != EPS_ZERO
    assert pass_correlator(ks, rerun=True) == (want, want)
