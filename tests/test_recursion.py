"""Commutator recursion on resolvents and the coefficient extraction."""

import itertools
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import windowed_extract
from p1gw import completed, cycle, recursion
from p1gw.completed import PolygonTable, polygon_table
from p1gw.correlators import MAX_POINTS, STABILITY_STEP, correlator, n_point, two_point
from p1gw.eps import EPS_ZERO, EpsLaurent
from p1gw.packed import graded_unpack
from p1gw.errors import DepthExceeded, IndexOutOfRange, MalformedValue, UnstableExtraction
from p1gw.rational import Rat, splits
from p1gw.recursion import MAX_KEY, default_extract_depth, extract_bij, r_family, rm_equal
from p1gw import reference
from p1gw.resolvent import resolvent_bundle
from p1gw.series import LambdaSeries, Mat2


def test_recursion_key_validation():
    # float weights that are whole numbers normalise to int
    assert r_family([1.0, 2], 10) == r_family((1, 2), 10)
    assert r_family((1,) * MAX_KEY, 12) == rm_equal(1, MAX_KEY, 12)
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
        with pytest.raises(IndexOutOfRange):
            r_family((1, 0), 10)
        with pytest.raises(MalformedValue):
            r_family((1,) * (MAX_KEY + 1), 10)
        with pytest.raises(MalformedValue):
            r_family((1, 2), -1)


def test_family_is_label_order_independent():
    depth = 14
    weights = (1, 2, 3)
    base = r_family(weights, depth)
    for perm in itertools.permutations(weights):
        assert r_family(perm, depth) == base, perm


def test_family_key_may_be_an_iterator():
    assert r_family(iter([1, 2]), 10) == r_family((1, 2), 10)


def test_equal_weight_shortcut_matches_general_family():
    depth = 16
    for b, m in [(1, 2), (2, 2), (1, 3)]:
        shortcut = rm_equal(b, m, depth)
        general = r_family((b,) * m, depth)
        assert shortcut == general


def test_level_matrices_have_no_positive_powers():
    mat = rm_equal(2, 2, 16)
    for name in "abcd":
        assert getattr(mat, name).deg_plus() == 0


def test_extract_matches_direct_engine_spot():
    for b, m, i, j in [(1, 1, 1, 3), (2, 1, 2, 3), (3, 2, 2, 2)]:
        ks = tuple(sorted((b,) * m + (i, j), reverse=True))
        direct = two_point(*ks) if len(ks) == 2 else n_point(ks)
        assert extract_bij(b, m, i, j) == direct


def test_extract_is_symmetric_in_the_two_targets():
    assert extract_bij(2, 1, 1, 3) == extract_bij(2, 1, 3, 1)


def test_extract_validation():
    with pytest.raises(IndexOutOfRange):
        extract_bij(2, 1, 0, 2)  # index-0 targets are outside this route
    with pytest.raises(IndexOutOfRange):
        extract_bij(0, 1, 1, 1)
    with pytest.raises(MalformedValue):
        extract_bij(2, -1, 1, 1)


def test_eps_cap_does_not_change_values():
    full = extract_bij(2, 1, 2, 2)
    capped = extract_bij(2, 1, 2, 2, eps_cap=3 * 3 + 2)
    assert full == capped
    assert extract_bij(2, 1, 2, 2, eps_cap=default_extract_depth(2, 1, 2, 2)) == full


def test_eps_cap_below_the_exponent_bound_raises():
    # these caps drop true genus terms: (1, 4, 1, 1) is 120/eps^2 + 40 +
    # eps^2/2, and (1, 0, 3, 3) has no eps^4 term
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
        with pytest.raises(MalformedValue, match="eps_cap must be >= 12"):
            extract_bij(1, 4, 1, 1, eps_cap=3)
        with pytest.raises(MalformedValue, match="eps_cap must be >= 8"):
            extract_bij(1, 0, 3, 3, eps_cap=4)
        with pytest.raises(MalformedValue):
            extract_bij(1, 1, 1, 1, eps_cap=5)  # before the odd-sum shortcut
        for call in (
            lambda: rm_equal(1, 2, 10, eps_cap=-1),
            lambda: r_family((1, 2), 10, eps_cap=-1),
            lambda: extract_bij(1, 2, 1, 1, eps_cap=-1),
        ):
            with pytest.raises(MalformedValue, match="eps_cap"):
                call()
    # from the bound up the capped value is the true one
    assert extract_bij(1, 4, 1, 1, eps_cap=12) == EpsLaurent({-2: 120, 0: 40, 2: Rat(1, 2)})
    assert extract_bij(1, 0, 3, 3, eps_cap=8) == extract_bij(1, 0, 3, 3)


_EVEN_GRID = [
    (b, m, i, j)
    for b in range(1, 4)
    for m in range(5)
    for i in range(1, 4)
    for j in range(1, 4)
    if (b * m + i + j) % 2 == 0
]


def _budget(b, m, i, j):
    ks = (b,) * m + (i, j)
    return sum(ks) + len(ks)  # the cycle DP's spend budget


def test_extraction_raises_exactly_below_the_budget():
    assert len(_EVEN_GRID) == 71
    budget = {case: _budget(*case) for case in _EVEN_GRID}
    assert all(default_extract_depth(*case) == d for case, d in budget.items())
    # below the budget: DepthExceeded at once, before any level is built
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
        for case, d in budget.items():
            for depth in range(d):
                with pytest.raises(DepthExceeded):
                    extract_bij(*case, depth=depth)
    # from the budget through budget + 4: the default value; depth-major, so
    # the levels at one depth serve every case
    want = {case: extract_bij(*case) for case in _EVEN_GRID}
    for depth in range(max(budget.values()) + STABILITY_STEP + 1):
        for case, d in budget.items():
            if d <= depth <= d + STABILITY_STEP:
                assert extract_bij(*case, depth=depth) == want[case], (case, depth)


def test_odd_weight_extraction_is_zero_at_once():
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
        for b, m, i, j, depth in ((1, 2, 1, 2, None), (2, 3, 1, 2, 1), (3, 1, 2, 2, 30)):
            assert extract_bij(b, m, i, j, depth=depth) == EPS_ZERO
        with pytest.raises(IndexOutOfRange):
            extract_bij(2, 1, 0, 1)  # arguments are still validated first


def test_polygon_table_against_frozen_rows():
    tab = polygon_table(2, 4)
    for n in (2, 3, 4):
        row = reference.table_row(2, n)
        for g in range(min(tab.g_max, len(row) - 1) + 1):
            assert tab.cell(n, g) == row[g], (n, g)
    assert tab.stability_verified


def test_polygon_table_odd_rows_vanish():
    tab = polygon_table(1, 5)
    for n in (1, 3, 5):
        assert all(tab.cell(n, g) == 0 for g in range(tab.g_max + 1))


def test_polygon_table_weight_zero_routes():
    tab = polygon_table(0, 4)
    assert tab.g_max == 0
    assert all(tab.cell(n, 0) == 1 for n in range(1, 5))
    # the table keeps its depth rule: the budget n_max, and below it raises
    assert tab.depth_used == 4
    with pytest.raises(UnstableExtraction):
        polygon_table(0, 4, depth=3)
    # one completed-cycle pass gives every row; no cycle DP runs
    with mock.patch.object(cycle, "_cycle_sum", side_effect=AssertionError):
        tab = polygon_table(0, 12, g_max=2, depth=15)
    assert tab.depth_used == 15 and not tab.stability_verified
    assert tab.rows[0] == (1, Rat(-1, 24), 0)
    assert all(tab.rows[n - 1] == (1, 0, 0) for n in range(2, 13))
    # rows n <= 8 are the cycle DP's values, the route they took before
    for n in range(2, MAX_POINTS + 1):
        direct = two_point(0, 0, 8) if n == 2 else n_point((0,) * n, 8)
        assert tab.rows[n - 1] == tuple(direct.coeff(2 * g - 2) for g in range(3)), n


def test_polygon_table_bounds_and_validation():
    tab = polygon_table(1, 4)
    with pytest.raises(MalformedValue):
        tab.cell(5, 0)
    with pytest.raises(MalformedValue):
        tab.cell(1, tab.g_max + 1)
    with pytest.raises(IndexOutOfRange):
        polygon_table(-1, 3)
    with pytest.raises(MalformedValue):
        polygon_table(1, 0)
    # table rows need no cycle DP, so its insertion limit does not bound them
    with mock.patch.object(cycle, "_cycle_sum", side_effect=AssertionError):
        assert polygon_table(0, MAX_POINTS + 1).rows == ((1,),) * (MAX_POINTS + 1)
    assert isinstance(tab, PolygonTable)


def test_polygon_table_runs_neither_the_recursion_nor_the_cycle_dp():
    # every row, weight 0 and row 1 included, comes from the completed-cycle pass
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError), mock.patch.object(
        cycle, "_cycle_sum", side_effect=AssertionError
    ):
        for b, n_max in ((0, 4), (1, 8), (2, 5), (3, 4), (6, 2)):
            tab = polygon_table(b, n_max)
            assert tab.stability_verified == (b >= 1)
            assert tab.depth_used == (b + 1) * (n_max - (b * n_max) % 2)


def test_polygon_table_depth_override_consistent():
    base = polygon_table(2, 3)
    deeper = polygon_table(2, 3, depth=base.depth_used + 6)
    assert base.rows == deeper.rows


@pytest.mark.parametrize("b, n_max", [(1, 12), (2, 8), (3, 4), (4, 3), (1, 6), (2, 5), (3, 5)])
def test_polygon_table_runs_at_its_deepest_row_budget(b, n_max):
    top = n_max - (b * n_max) % 2  # the deepest row with an even total weight
    budget = _budget(b, top - 2, b, b)
    tab = polygon_table(b, n_max)
    assert (tab.depth_used, tab.stability_verified) == (budget, True)
    for n in range(2, n_max + 1):
        if (b * n) % 2:
            assert set(tab.rows[n - 1]) == {0}, n
            continue
        frozen = reference.table_row(b, n)
        assert tab.rows[n - 1][: len(frozen)] == frozen[: tab.g_max + 1], n
    # one below the budget raises before any row is computed
    with mock.patch.object(completed, "_sums", side_effect=AssertionError):
        with pytest.raises(UnstableExtraction, match=f"needs depth >= {budget}"):
            polygon_table(b, n_max, depth=budget - 1, stability=False)


_GRID = [
    (b, m, i, j)
    for b in range(1, 4)
    for m in range(4)
    for i in range(1, 4)
    for j in range(1, 4)
]


def test_direct_extraction_matches_windowed_product():
    assert len(_GRID) == 108
    for b, m, i, j in _GRID:
        # the bivariate product's validity floors are more conservative than
        # the direct sum's budget, so it runs deeper; both values are exact
        depth = (b + 2) * (m + 2) + max(i, j) + 4
        got = extract_bij(b, m, i, j)
        assert got == windowed_extract(b, m, i, j, depth), (b, m, i, j)


def test_direct_extraction_never_misreads_a_shallow_depth():
    # every depth up to the default either raises or gives the default value;
    # a depth below the default reads the levels past their validity floors
    # unless the budget check stops it
    raised = 0
    for b in range(1, 4):
        cases = {case[1:]: default_extract_depth(*case) for case in _GRID if case[0] == b}
        want = {case: extract_bij(b, *case) for case in cases}
        # depth-major order, so the levels at one depth serve every case
        for depth in range(max(cases.values()) + 1):
            for case, d in cases.items():
                if depth > d:
                    continue
                try:
                    got = extract_bij(b, *case, depth=depth)
                except DepthExceeded:
                    raised += 1
                    continue
                assert got == want[case], (b, case, depth)
    assert raised


def _rational_run(spec, key, depth, cap, memo=None):
    # reference: the same recursion body over the rational base matrix, with
    # the eps cap applied to the base and to every level; memo, when given,
    # receives every key the run computes
    base, trim = resolvent_bundle(depth).r, None
    if cap is not None:

        def trim(_key, mat):
            return mat.map_entries(
                lambda s: LambdaSeries(
                    {e: EpsLaurent({k: v for k, v in c.terms.items() if k <= cap}) for e, c in s.coeffs.items()},
                    s.depth,
                )
            )

        base = trim((), base)
    return recursion._run(key, spec, lambda: base, Mat2.commutator, trim, {} if memo is None else memo)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 4), st.booleans(), st.data())
def test_integer_recursion_matches_rational_ring(b, m, capped, data):
    depth = data.draw(st.integers(b, 24))
    cap = (m + 2) * (b + 1) + 2 if capped else None  # above the pair (b, m, b, b)'s budget
    weights = tuple(data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    for spec, key, packed in (
        (recursion._multiset_spec((b,)), (m,), lambda: rm_equal(b, m, depth, cap)),
        (recursion._multiset_spec(weights), (1,) * m, lambda: r_family(weights, depth, cap)),
    ):
        try:
            want = _rational_run(spec, key, depth, cap)
        except DepthExceeded:
            with pytest.raises(DepthExceeded):
                packed()
            continue
        assert packed() == want  # LambdaSeries equality compares depths too


@pytest.mark.parametrize(
    "weights, key", [((2, 1), (1, 1)), ((2, 1), (1, 2)), ((3, 1), (2, 1)), ((3, 2, 1), (1, 1, 1))]
)
@pytest.mark.parametrize("cap", [None, 14])
def test_multiset_levels_match_the_subset_recursion(weights, key, cap):
    # every sub-key of a count vector equals r_family of its listing, whose
    # all-ones count vector splits it as sublists: the binomial weights
    # count the listing's splits
    depth = 14
    levels = recursion._levels(weights, key, depth, cap)
    assert set(levels.packed) == {s for _, s, _ in splits(key)}
    for s in levels.packed:
        listing = tuple(w for w, c in zip(weights, s) for _ in range(c))
        assert recursion._rational(levels, s, len(listing)) == r_family(listing, depth, cap), s


def test_pair_correlator_matches_the_direct_engine():
    for ks in [(2, 1, 1), (3, 3), (2, 2, 1, 1), (3, 2, 2, 1), (4, 2, 1, 1), (2, 1, 1, 1, 1)]:
        want = two_point(*ks) if len(ks) == 2 else n_point(ks)
        assert recursion.pair_correlator(ks) == want, ks
        assert recursion.pair_correlator(ks[::-1], depth=sum(ks) + len(ks)) == want, ks
        with pytest.raises(DepthExceeded):
            recursion.pair_correlator(ks, depth=sum(ks) + len(ks) - 1)
    with mock.patch.object(recursion, "_levels", side_effect=AssertionError):
        assert recursion.pair_correlator((2, 1, 1, 1), depth=1) == EPS_ZERO
        for bad in [(2,), (2, 0), (3, 1, 0)]:
            with pytest.raises(IndexOutOfRange):
                recursion.pair_correlator(bad)


def test_table_levels_packing_width_is_proven():
    b, n_max = 1, 12
    # level 10 of weight 1 at the eps cap 26, at depth 40 for more coefficients
    depth, cap = 40, n_max * (b + 1) + 2
    fam = recursion._levels((b,), (n_max - 2,), depth, cap)
    entries = lambda mat: (mat.a, mat.b, mat.c, mat.d)  # noqa: E731
    bound = max(c for mat in fam.norms.values() for s in entries(mat) for c in s.coeffs.values())
    # the least even width at or above pack_width(bound) = bound.bit_length() + 2
    assert bound and fam.width % 2 == 0 and fam.width - bound.bit_length() in (2, 3)
    checked = 0
    for t in range(n_max - 1):
        grade = fam.grade((t,))
        for off, packed, norms in zip((0, 1, 1, 0), entries(fam.packed[(t,)]), entries(fam.norms[(t,)])):
            for e, x in packed.coeffs.items():
                coeffs = graded_unpack(x, fam.width, (e + off + grade) % 2)
                # each l1 norm is within its key's norm entry, so every
                # coefficient is within the bound the width comes from
                assert coeffs and sum(abs(c) for c in coeffs) <= norms.coeffs[e] <= bound
                checked += 1
    assert checked > 900


def _sum_w_plus_1(weights, key):
    # sum(w + 1) over the weights of a count vector key
    return sum(c * (u + 1) for u, c in zip(weights, key))


@pytest.mark.parametrize("depth", [8, 17, 28])
@pytest.mark.parametrize("cap", [None, 9, 12])
def test_rational_levels_follow_the_parity_rule(depth, cap):
    # the rational recursion body, which packs nothing, puts at entry (r, c)
    # and lam^e of a key only eps exponents of parity
    # e + [r != c] + sum(w + 1) over the key's weights: graded packing
    # reads every parity from this rule
    cases = [
        # rm_equal's count vectors (m,) over one weight b, every level up to m
        ((1,), (3,)),
        ((2,), (2,)),
        ((3,), (1,)),
        # the mixed-weight sub-keys that pair_correlator's levels hold
        ((2, 1), (1, 1)),
        ((3, 2), (1, 1)),
        # r_family's weight listings, all-ones count vectors
        ((2, 1), (1, 1)),
        ((1, 3), (1, 1)),
    ]
    odd = checked = 0
    for weights, key in cases:
        spec = recursion._multiset_spec(weights)
        memo = {}
        for _, k, _ in splits(key):
            _rational_run(spec, k, depth, cap, memo)
        for k, mat in memo.items():
            grade = _sum_w_plus_1(weights, k)
            odd += grade % 2
            for off, entry in zip((0, 1, 1, 0), (mat.a, mat.b, mat.c, mat.d)):
                for e, c in entry.coeffs.items():
                    assert {x % 2 for x in c.terms} == {(e + off + grade) % 2}, (weights, k, e, off)
                    checked += 1
    assert odd and checked > 300


def test_graded_levels_are_half_the_plain_size():
    # each packed coefficient holds one width-bit block per eps exponent of
    # its parity up to the cap, and an odd one sits width/2 bits up: at most
    # (cap + 2) * width / 2 bits, where the plain form needs (cap + 1) * width
    cap = 26
    fam = recursion._levels((1,), (10,), 24, cap)
    limit = (cap + 2) * fam.width // 2
    sizes = [
        x.bit_length()
        for mat in fam.packed.values()
        for s in (mat.a, mat.b, mat.c, mat.d)
        for x in s.coeffs.values()
    ]
    assert len(sizes) > 400 and max(sizes) <= limit


def test_ungraded_base_refuses_to_pack():
    # a base row with a term of the wrong parity raises instead of packing
    # its blocks at the wrong exponents
    bundle = resolvent_bundle(6)
    r = bundle.r
    # at entry (1, 1) and lam^-2 the base holds even eps powers only
    bad = Mat2(r.a + LambdaSeries({-2: EpsLaurent({1: 1})}), r.b, r.c, r.d)
    # the scaled base is shared per (depth, cap): build it afresh from the
    # bad bundle, and never leave the bad one cached for later lookups
    recursion._scaled_base.cache_clear()
    try:
        with mock.patch.object(recursion, "resolvent_bundle", return_value=mock.Mock(r=bad)):
            with pytest.raises(MalformedValue, match="parity"):
                recursion._levels.__wrapped__((1,), (1,), 6, None)
    finally:
        recursion._scaled_base.cache_clear()


def test_lookups_share_one_scaled_base_per_depth_and_cap():
    recursion._scaled_base.cache_clear()
    recursion._levels.cache_clear()
    # two level lookups each (pairs (4, 4) and (6, 4) over the weights (4,)
    # and (2,)) at correlator's default depth 18 with cap = budget 15, and
    # at its stability rerun's depth 22; one scaled base per (depth, cap)
    for ks in ((4, 4, 4), (6, 4, 2)):
        for depth in (18, 18 + STABILITY_STEP):
            recursion.pair_correlator(ks, depth)
    assert recursion._levels.cache_info().misses == 4
    assert recursion._scaled_base.cache_info().misses == 2
    six = recursion.pair_correlator((6, 6))
    assert six == EpsLaurent(dict(reference.flagship_series())[(6, 6)])
    assert six == two_point(6, 6)


def test_concurrent_callers_get_exact_levels():
    # threads racing on the same missing levels may each build them; every
    # caller still gets the exact matrix
    depth = 16
    want = {m: rm_equal(2, m, depth) for m in range(5)}
    errors = []

    def work(ms):
        try:
            for m in ms:
                if rm_equal(2, m, depth) != want[m]:
                    errors.append(m)
        except Exception as err:  # recorded, so the main thread sees it
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            recursion._levels.cache_clear()
            threads = [
                threading.Thread(target=work, args=([0, 1, 2, 3, 4] if k % 2 else [4, 0, 3, 1, 2],))
                for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
