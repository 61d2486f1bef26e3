"""Independent oracle layer: closed forms, identities, asymptotics."""

import json
from unittest import mock

import pytest

from p1gw import cli, completed, oracles
from p1gw.correlators import default_depth, two_point
from p1gw.errors import IdentityViolation, IndexOutOfRange, MalformedValue
from p1gw.rational import Rat, factorial, rat_from_str
from p1gw import reference


def test_c2m_values():
    assert oracles.c2m(0) == 1
    assert oracles.c2m(1) == Rat(1, 24)
    assert oracles.c2m(2) == Rat(1, 1920)
    assert oracles.c2m(3) == Rat(1, 322560)
    with pytest.raises(IndexOutOfRange):
        oracles.c2m(-1)


def test_degree_one_products_and_vanishing():
    assert oracles.degree_one((2,) * 5) == Rat(1, 24**5)
    assert oracles.degree_one((4,) * 3) == Rat(1, 1920**3)
    assert oracles.degree_one((6, 6)) == Rat(1, 322560**2)
    assert oracles.degree_one((2, 4, 0)) == Rat(1, 24) * Rat(1, 1920)
    assert oracles.degree_one((1, 2)) == 0
    with pytest.raises(MalformedValue):
        oracles.degree_one(())
    with pytest.raises(IndexOutOfRange):
        oracles.degree_one((2, -2))


@pytest.mark.parametrize("g,d", [(g, d) for g in range(4) for d in range(1, 5)])
def test_closed_two_point_families_match_engine(g, d):
    assert oracles.two_point_tau0_closed(g, d) == two_point(0, 2 * g + 2 * d - 2).coeff(2 * g - 2)
    k1 = 2 * g + 2 * d - 3
    if k1 >= 0:
        assert oracles.two_point_tau1_closed(g, d) == two_point(1, k1).coeff(2 * g - 2)


def test_closed_tau1_vanishes_in_degree_one():
    for g in range(0, 8):
        assert oracles.two_point_tau1_closed(g, 1) == 0


def test_closed_two_point_validation():
    with pytest.raises(MalformedValue):
        oracles.two_point_tau0_closed(-1, 2)
    with pytest.raises(MalformedValue):
        oracles.two_point_tau0_closed(0, 0)


@pytest.mark.parametrize("ident", oracles.IDENTITY_IDS)
def test_identities_hold_at_depth_eight(ident):
    rep = oracles.identity_check(ident, 8)
    assert rep.coefficients_checked == 12
    assert rep.depth == 8


def test_identity_check_validation():
    with pytest.raises(MalformedValue):
        oracles.identity_check("I9", 8)
    with pytest.raises(MalformedValue):
        oracles.identity_check("I1", 3)


def test_identity_check_reports_first_bad_coefficient(monkeypatch):
    # wire identity I1 to the wrong resolvent combination
    monkeypatch.setitem(oracles.IDENTITIES, "I1", ((0,), lambda a, b, c: b))
    with pytest.raises(IdentityViolation, match="lam"):
        oracles.identity_check("I1", 6)


def test_trace_det_check_depth_twenty():
    rep = oracles.trace_det_check(20)
    assert rep.coefficients_checked == 42


def test_asymptotic_constant_specializations():
    for d in range(1, 7):
        h = Rat(2 * d - 1, 2)
        lead = h ** (2 * d) / (factorial(d) * factorial(d - 1))
        assert oracles.asymptotic_constant(0, d) == 2 * lead / h
        if d >= 2:
            assert oracles.asymptotic_constant(1, d) == (d - 1) * lead / h**2
        assert (
            oracles.asymptotic_constant(2, d)
            == Rat(4 * d * d - 6 * d + 3, 12) * lead / h**3
        )


def test_asymptotic_constant_validation():
    with pytest.raises(MalformedValue):
        oracles.asymptotic_constant(1, 1)
    with pytest.raises(IndexOutOfRange):
        oracles.asymptotic_constant(-1, 2)
    with pytest.raises(IndexOutOfRange):
        oracles.asymptotic_constant(0, 0)


def test_ratio_families_small_genus():
    for g in range(0, 9):
        assert oracles.asymptotic_ratio(0, g, 1) == 1
        assert abs(oracles.asymptotic_ratio(0, g, 2) - Rat(27, 8)) == Rat(3, 8 * 9**g)


def test_asymptotic_report_shape():
    rep = oracles.asymptotic_report(0, 2, 5)
    assert rep.limit == Rat(27, 8)
    assert rep.limit_decimal == "3.375"
    assert [g for g, _, _ in rep.rows] == list(range(6))
    g0 = rep.rows[0]
    assert g0[1] == 3 and g0[2] == "3"
    with pytest.raises(MalformedValue):
        oracles.asymptotic_report(0, 2, 41)


def test_asymptotic_report_engine_route_starts_at_valid_genus():
    rep = oracles.asymptotic_report(2, 1, 3)
    # (k=2, d=1) has no genus-0 partner; rows begin at g=1
    assert rep.rows[0][0] == 1


def test_hurwitz_values_and_validation():
    assert oracles.hurwitz(0, 3) == 4
    assert oracles.hurwitz(1, 2) == Rat(1, 2)
    assert oracles.hurwitz(2, 4) == 206640
    assert oracles.hurwitz(1, 1) == 0
    with pytest.raises(MalformedValue):
        oracles.hurwitz(0, 1)
    with pytest.raises(MalformedValue):
        oracles.hurwitz(-1, 3)


def test_hurwitz_oracle_never_runs_the_completed_cycle_pass(capsys):
    # the counts `p1gw hurwitz` prints come from the pass; the oracle must
    # reach them on the recursion alone to check it
    assert cli.main(["hurwitz", "--n-max", "6"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 9
    with mock.patch.object(completed, "_sums", side_effect=AssertionError), mock.patch.object(
        completed, "pass_correlator", side_effect=AssertionError
    ):
        for row in rows:
            assert oracles.hurwitz(row["g"], row["d"]) == rat_from_str(row["count"]), row


def test_verify_suites_all_green():
    for name, fn in oracles.VERIFY_SUITES.items():
        rep = fn(8) if name == "identities" else fn()
        assert rep["suite"] == name
        assert rep["failures"] == [], name
        assert rep["checks"] > 0


def test_verify_stability_reports_every_drifting_flagship(capsys):
    orig = completed._connected

    def drifting(counts, sums, d_max):
        # a value that depends on the q-series length, as a truncation bug would
        out = orig(counts, sums, d_max)
        return out[:-1] + [[x + d_max for x in out[-1]]]

    with mock.patch.object(completed, "_connected", drifting):
        rep = oracles.verify_stability()
        code = cli.main(["verify", "stability"])
    want = []
    for ks, _ in reference.FLAGSHIP:
        d = default_depth(ks)
        want.append(f"{ks}: correlator {ks} changed between depths {d} and {d + 4}")
    assert rep == {"suite": "stability", "checks": len(want), "failures": want}
    assert code == 1
    assert json.loads(capsys.readouterr().out) == rep


def test_verify_tables_reports_quarantined_cells():
    rep = oracles.verify_tables()
    assert len(rep["known_conflicts"]) == len(reference.KNOWN_CONFLICTS)
    joined = "\n".join(rep["known_conflicts"])
    for (b, n, g), (tabulated, engine) in reference.KNOWN_CONFLICTS.items():
        assert f"b={b} n={n} g={g}" in joined
        assert tabulated in joined and engine in joined
