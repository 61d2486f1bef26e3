"""The completed-cycle tables against the engines they replaced."""

import json
from unittest import mock

import pytest

from p1gw import cli, completed, oracles, reference
from p1gw.completed import _partition_sums, _zeta_term, polygon_table
from p1gw.correlators import STABILITY_STEP, one_point
from p1gw.errors import UnstableExtraction
from p1gw.rational import Rat, factorial, rat_from_str
from p1gw.recursion import extract_bij


def test_partition_sums_follow_the_branching_rule():
    # sum over |lam| = d of (dim lam)^2 is d!, whatever P groups them
    for k in (1, 2, 5):
        num, den = _zeta_term(k)
        sums = _partition_sums(k, num, den, 9)
        assert [sum(s.values()) for s in sums] == [factorial(d) for d in range(10)]
    # k = 2: 4 p_2 is 8 times the content sum and zeta(-2) = 0
    assert _zeta_term(2) == (0, 1)
    assert _partition_sums(2, 0, 1, 2)[2] == {8: 1, -8: 1}
    assert _zeta_term(1) == (-1, 12) and _zeta_term(3) == (7, 120)


def test_stability_reruns_the_pass_with_longer_series():
    lengths = []
    run = completed._rows

    def drifting(b, n_max, g_max, d_max):
        lengths.append(d_max)
        rows = run(b, n_max, g_max, d_max)
        return rows if len(lengths) == 1 else rows[:-1] + [(rows[-1][0] + 1,) + rows[-1][1:]]

    # (2, 4): top = 4, so the series stop after q^5, and the rerun after q^9
    with mock.patch.object(completed, "_rows", drifting):
        with pytest.raises(UnstableExtraction, match="changed between q-series lengths 5 and 9$"):
            polygon_table(2, 4)
    assert lengths == [5, 5 + STABILITY_STEP]
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
