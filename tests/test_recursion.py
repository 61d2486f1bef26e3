"""Commutator recursion on resolvents and the coefficient extraction."""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import windowed_extract
from p1gw import recursion
from p1gw.correlators import _unpack, n_point, two_point
from p1gw.errors import DepthExceeded, IndexOutOfRange, MalformedValue
from p1gw.rational import Rat
from p1gw.recursion import (
    PolygonTable,
    RecursionKey,
    default_extract_depth,
    degree_for,
    extract_bij,
    polygon_table,
    r_family,
    rm_equal,
)
from p1gw import reference
from p1gw.series import Mat2


def test_recursion_key_validation():
    RecursionKey((1, 2), (3, 5))
    with pytest.raises(MalformedValue):
        RecursionKey((1, 2), (3,))
    with pytest.raises(MalformedValue):
        RecursionKey((1, 2), (3, 3))
    with pytest.raises(MalformedValue):
        RecursionKey((1,), (0,))
    with pytest.raises(IndexOutOfRange):
        RecursionKey((0,), (1,))
    with pytest.raises(MalformedValue):
        RecursionKey((1,) * 7, tuple(range(1, 8)))


def test_family_is_label_order_independent():
    depth = 14
    weights = (1, 2, 3)
    base = r_family(RecursionKey(weights, (1, 2, 3)), depth)
    for perm in itertools.permutations(range(3)):
        bs = tuple(weights[i] for i in perm)
        idx = tuple((1, 2, 3)[i] for i in perm)
        other = r_family(RecursionKey(bs, idx), depth)
        assert other == base


def test_equal_weight_shortcut_matches_general_family():
    depth = 16
    for b, m in [(1, 2), (2, 2), (1, 3)]:
        shortcut = rm_equal(b, m, depth)
        general = r_family(RecursionKey((b,) * m, tuple(range(1, m + 1))), depth)
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


def test_default_extract_depth_formula():
    assert default_extract_depth(2, 1, 2, 3) == (2 + 2) * (1 + 2) + 3 + 4


def test_degree_for():
    assert degree_for(2, 3, 1) == 3
    with pytest.raises(MalformedValue):
        degree_for(1, 3, 0)


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
    assert isinstance(tab, PolygonTable)


def test_polygon_table_depth_override_consistent():
    base = polygon_table(2, 3)
    deeper = polygon_table(2, 3, depth=base.depth_used + 6)
    assert base.rows == deeper.rows


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
        depth = default_extract_depth(b, m, i, j)
        got = extract_bij(b, m, i, j, depth=depth)
        assert got == windowed_extract(b, m, i, j, depth), (b, m, i, j)


def test_direct_extraction_never_misreads_a_shallow_depth():
    # every depth below the default either raises or gives the default value
    raised = 0
    for b in range(1, 4):
        cases = {case[1:]: default_extract_depth(*case) for case in _GRID if case[0] == b}
        want = {case: extract_bij(b, *case, depth=d) for case, d in cases.items()}
        # depth-major order, so the levels at one depth serve every case
        for depth in range(max(cases.values())):
            for case, d in cases.items():
                if depth >= d:
                    continue
                try:
                    got = extract_bij(b, *case, depth=depth)
                except DepthExceeded:
                    raised += 1
                    continue
                assert got == want[case], (b, case, depth)
    assert raised


def _rational_run(spec, key, depth, cap):
    # reference: the same recursion body over the rational base matrix
    trim = None if cap is None else (lambda c: recursion._capped_eps(c, cap))
    base = lambda: recursion._base_matrix(depth, cap)  # noqa: E731
    return recursion._run(key, spec, base, Mat2.commutator, trim, {})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 4), st.booleans(), st.data())
def test_integer_recursion_matches_rational_ring(b, m, capped, data):
    depth = data.draw(st.integers(b, 24))
    cap = (m + 2) * (b + 1) + 2 if capped else None  # polygon_table's cap for n_max = m + 2
    weights = tuple(data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    for spec, key, packed in (
        (recursion._equal_spec(b), m, lambda: rm_equal(b, m, depth, cap)),
        (recursion._subset_spec, weights, lambda: r_family(weights, depth, cap)),
    ):
        try:
            want = _rational_run(spec, key, depth, cap)
        except DepthExceeded:
            with pytest.raises(DepthExceeded):
                packed()
            continue
        assert packed() == want  # LambdaSeries equality compares depths too


def test_table_levels_packing_width_is_proven():
    b, n_max = 1, 12
    depth, cap = (b + 2) * n_max + 4, n_max * (b + 1) + 2  # as polygon_table(1, 12)
    fam = recursion._equal_levels(b, depth, cap)
    fam.level(n_max - 2)
    entries = lambda mat: (mat.a, mat.b, mat.c, mat.d)  # noqa: E731
    bound = max(c for mat in fam.norms.values() for s in entries(mat) for c in s.coeffs.values())
    assert bound and fam.width == bound.bit_length() + 2
    checked = 0
    for t in range(n_max - 1):
        for packed, norms in zip(entries(fam.packed[t]), entries(fam.norms[t])):
            for e, x in packed.coeffs.items():
                coeffs = _unpack(x, fam.width)
                # each l1 norm is within its key's norm entry, so every
                # coefficient is within the bound the width comes from
                assert coeffs and sum(abs(c) for c in coeffs) <= norms.coeffs[e] <= bound
                checked += 1
    assert checked > 900


def test_wider_request_repacks_stored_levels():
    depth = 20
    fam = recursion._Levels(recursion._equal_spec(2), depth, None)
    low = fam.rational(fam.level(1), 1)
    narrow = fam.width
    top = fam.rational(fam.level(4), 4)
    assert fam.width > narrow
    assert fam.rational(fam.packed[1], 1) == low
    assert top == _rational_run(recursion._equal_spec(2), 4, depth, None)


def test_concurrent_callers_get_exact_levels():
    # threads asking for growing levels at one depth force repacks midway
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
            recursion._EQUAL_MEMO.clear()
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
