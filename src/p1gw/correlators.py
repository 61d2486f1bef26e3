"""Stationary correlator evaluation from the resolvent bundle.

Three engines, by insertion count:

  * one_point: closed evaluation through truncated powers of the core even
    series (degree d contributes coefficient extraction from the (2d-1)-th
    power, with d = 0 handled by the inverse series).
  * two_point: literal bivariate route. Lift two resolvent copies, take the
    trace of their product minus one, multiply by the expansion of
    1/(lam1 - lam2)^2 inside a narrow total-degree window, extract.
  * n_point (3..8 insertions): cycle sums. For every arrangement of the
    variables around a cycle (last variable pinned, killing the cyclic
    redundancy), the trace of the resolvent product divided by consecutive
    differences contributes; the wanted multi-exponent coefficient is
    assembled by a prefix dynamic program over arrangements that shares
    partial matrix products between arrangements with the same frontier.

A value is a Laurent polynomial in eps; the exponent 2g-2 carries the genus
g contribution, and the degree is pinned by sum(ks) = 2d + 2g - 2.

Depth accounting for the cycle DP: every finalized resolvent factor at
exponent E <= 0 spends -E against a fixed budget sum(ks) + n, and each
completed cycle spends the budget exactly. The remaining capacity is a
function of the DP frontier alone, which both prunes the search and proves
the default depth sum(ks) + 2n can never drop a contribution. The stability
recomputation at a deeper truncation is therefore expected to always agree;
it runs anyway because it is cheap insurance against bookkeeping bugs.

Exact integer kernel for the cycle DP. Every resolvent entry is a polynomial
in eps (exponents >= 0) with rational coefficients, and every DP term is a
product of exactly n entries (n - 2 interior factors plus the two closing
ones; the identity seed is integral). So:

  * Scale: multiply the entry table by L, the lcm of its denominators; the
    DP over the scaled table is L**n times the wanted sum and integral.
  * Pack: store each integer eps-polynomial as the single int
    sum_e c_e * 2**(B*e) (Kronecker substitution, eps = 2**B). Evaluation at
    2**B is a ring map Z[eps] -> Z, so the DP runs on plain ints with the
    same body and the packed total is the true polynomial evaluated there.
  * Unpack: read the coefficients back B bits at a time with signed
    borrow, then divide by L**n.
  * Width: unpacking is exact when every output coefficient has absolute
    value below 2**(B-1). The same DP run on the l1 norms of the scaled
    entries (the absolute values at eps = 1), with every sign dropped, sums
    the norms of all terms, and the norm of a product is at most the
    product of the norms. Its total therefore bounds every output
    coefficient, and B = bound.bit_length() + 2 is safe. A zero bound
    proves the sum is zero without the packed pass.

Both rational backends run the cycle DP on the same ints, so they give the
same numbers at the same speed there.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .eps import EpsLaurent, EPS_ZERO, s_power
from .errors import (
    CancellationFailure,
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    UnstableExtraction,
)
from .rational import Rat, factorial
from .resolvent import entry_table, resolvent_bundle
from .series import Mat2, MultiSeries, inv_diff_expand

MAX_POINTS = 8
ESCALATE_STEP = 4
ESCALATE_TRIES = 3


def _validate_ks(ks):
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise MalformedValue("need at least one insertion")
    if len(ks) > MAX_POINTS:
        raise MalformedValue(f"at most {MAX_POINTS} insertions supported, got {len(ks)}")
    for k in ks:
        if k < 0:
            raise IndexOutOfRange(f"insertion index must be >= 0, got {k}")
    return ks


def default_depth(ks) -> int:
    """Truncation depth that provably captures every contribution."""
    return sum(k + 2 for k in ks)


def one_point(k: int) -> EpsLaurent:
    """Genus series of the single-insertion correlator, exponent 2g-2."""
    if k < 0:
        raise IndexOutOfRange(f"insertion index must be >= 0, got {k}")
    if k % 2:
        return EPS_ZERO
    terms = {}
    for g in range(k // 2 + 2):
        d = (k + 2 - 2 * g) // 2
        c = s_power(2 * d - 1, 2 * g).coeff(2 * g) / factorial(d) ** 2
        if c:
            terms[2 * g - 2] = c
    return EpsLaurent(terms)


def _lifted_resolvent(depth: int, nvars: int, var: int) -> Mat2:
    bun = resolvent_bundle(depth)
    return Mat2(
        MultiSeries.from_lambda(bun.r.a, nvars, var),
        MultiSeries.from_lambda(bun.r.b, nvars, var),
        MultiSeries.from_lambda(bun.r.c, nvars, var),
        MultiSeries.from_lambda(bun.r.d, nvars, var),
    )


def _two_point_at_depth(k1: int, k2: int, depth: int, check_cancellation: bool) -> EpsLaurent:
    tr = (_lifted_resolvent(depth, 2, 0) * _lifted_resolvent(depth, 2, 1)).trace()
    tr = tr - MultiSeries.unit(2)
    inv = inv_diff_expand(2, (0, 1), 2, jmax=k1 + 1)
    t_total = -(k1 + k2 + 4)
    window = (t_total, t_total + max(k1, k2) + 4)
    c2 = tr.mul(inv, window=window)
    if check_cancellation:
        # the full two-point series only carries exponents <= -2 per slot;
        # anything shallower surviving inside the trusted band is a bug
        for key, val in c2.coeffs.items():
            if (key[0] > -2 or key[1] > -2) and val:
                raise CancellationFailure(
                    f"two-point product kept forbidden exponent pair {key}: {val!r}"
                )
    raw = c2.coeff((-k1 - 2, -k2 - 2))
    return raw.shift(-2) / (factorial(k1 + 1) * factorial(k2 + 1))


def two_point(k1: int, k2: int, depth=None, check_cancellation: bool = True) -> EpsLaurent:
    k1, k2 = _validate_ks((k1, k2))
    if depth is not None:
        return _two_point_at_depth(k1, k2, depth, check_cancellation)
    d = default_depth((k1, k2))
    for attempt in range(ESCALATE_TRIES):
        try:
            return _two_point_at_depth(k1, k2, d, check_cancellation)
        except DepthExceeded:
            if attempt == ESCALATE_TRIES - 1:
                raise
            d += ESCALATE_STEP


class _Ring(NamedTuple):
    """Scalars of one cycle DP run: its zero, its one, and whether signs count."""

    zero: object
    one: object
    signed: bool


# exact integers (the packed table) and their unsigned norm bound
_PACKED = _Ring(0, 1, True)
_NORM = _Ring(0, 1, False)


def _mm(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _neg4(x):
    return (-x[0], -x[1], -x[2], -x[3])


def _same(x):
    return x


def _add_into(d, key, val):
    cur = d.get(key)
    if cur is None:
        d[key] = val
    else:
        d[key] = (cur[0] + val[0], cur[1] + val[1], cur[2] + val[2], cur[3] + val[3])


def _trace_prod3(a, p, b):
    pb = _mm(p, b)
    return a[0] * pb[0] + a[1] * pb[2] + a[2] * pb[1] + a[3] * pb[3]


def _cycle_seed_sum(targets, depth, mats, f, ring):
    """DP over cycle arrangements starting at variable f (last pinned).

    State key after placing t variables: (mask, cur, w1, pend) where w1 is
    the exponent the opening edge dropped on f (settled only when the cycle
    closes) and pend is the exponent the newest edge dropped on cur. The
    matrix value accumulates resolvent coefficient products of the interior
    variables over every arrangement sharing the state, signs folded in.
    `mats` maps lam-exponent to an (a, b, c, d) tuple of ring elements; an
    unsigned ring drops every sign and so sums the terms' magnitudes.
    """
    zero = ring.zero
    neg4 = _neg4 if ring.signed else _same
    n = len(targets)
    last = n - 1
    t_first = targets[f]
    t_last = targets[last]
    sum_all = sum(targets)
    budget = -(sum_all + n)
    if budget < 0:
        return zero
    kmax = max(0, max(-t - 2 for t in targets))
    jcap = budget + kmax + 2

    frontier = {(1 << f, f, 0, 0): (ring.one, zero, zero, ring.one)}
    for step in range(1, n):
        first_step = step == 1
        newf = {}
        for (mask, cur, w1, pend), p_mat in frontier.items():
            if step == n - 1:
                cands = (last,)
            else:
                cands = tuple(v for v in range(last) if not (mask >> v) & 1)
            t_cur = targets[cur]
            if not first_step:
                # remaining spend capacity; finalizing cur at exponent E
                # consumes -E, so E >= -cap with cap = min(depth, capacity)
                fut = sum_all - _masked_sum(targets, mask) + t_first + t_cur
                capacity = -fut + pend + w1 - (n - step + 1)
                cap = capacity if capacity < depth else depth
                if cap < 0:
                    continue
            for nxt in cands:
                bit = 1 << nxt
                if cur < nxt:
                    # edge drops -j-1 on cur and +j on nxt, sign +1
                    if first_step:
                        for j in range(min(-t_first - 2, jcap) + 1):
                            _add_into(newf, (mask | bit, nxt, -j - 1, j), p_mat)
                    else:
                        jhi = min(pend - t_cur - 1, jcap)
                        jlo = max(0, pend - t_cur - 1 - cap)
                        for j in range(jlo, jhi + 1):
                            e = t_cur - pend + j + 1
                            _add_into(newf, (mask | bit, nxt, w1, j), _mm(p_mat, mats[e]))
                else:
                    # edge drops +j on cur and -j-1 on nxt, sign -1
                    if first_step:
                        for j in range(jcap + 1):
                            _add_into(newf, (mask | bit, nxt, j, -j - 1), neg4(p_mat))
                    else:
                        jlo = max(0, t_cur - pend)
                        jhi = min(t_cur - pend + cap, jcap)
                        for j in range(jlo, jhi + 1):
                            e = t_cur - pend - j
                            _add_into(
                                newf, (mask | bit, nxt, w1, -j - 1), neg4(_mm(p_mat, mats[e]))
                            )
        frontier = newf

    total = zero
    for (mask, cur, w1, pend), p_mat in frontier.items():
        # closing edge drops +jn on last and -jn-1 on first, sign -1
        jn_lo = max(0, t_last - pend, w1 - t_first - 1 - depth)
        jn_hi = min(t_last - pend + depth, w1 - t_first - 1)
        for jn in range(jn_lo, jn_hi + 1):
            e_last = t_last - pend - jn
            e_first = t_first - w1 + jn + 1
            total = total + _trace_prod3(mats[e_first], p_mat, mats[e_last])
    return -total if ring.signed else total


def _masked_sum(targets, mask):
    s = 0
    v = 0
    while mask:
        if mask & 1:
            s += targets[v]
        mask >>= 1
        v += 1
    return s


def _scaled_rows(polys):
    """(L, rows) for a list of eps-polynomials with exponents >= 0.

    L is the lcm of every coefficient denominator; rows[i] holds the integer
    coefficients of L * polys[i], indexed by eps exponent.
    """
    scale = 1
    for poly in polys:
        for c in poly.terms.values():
            scale = lcm(scale, int(c.denominator))
    rows = []
    for poly in polys:
        if poly and poly.min_exp() < 0:
            raise MalformedValue(f"{poly!r} is not a polynomial in eps")
        row = [0] * (poly.max_exp() + 1 if poly else 0)
        for k, c in poly.terms.items():
            row[k] = int(c.numerator) * (scale // int(c.denominator))
        rows.append(tuple(row))
    return scale, rows


@lru_cache(maxsize=64)
def _scaled_table(depth: int):
    """(L, coefficient table, norm table) for entry_table(depth).

    L is the lcm of every coefficient denominator. The coefficient table maps
    lam-exponent to four tuples of the integer coefficients of L * entry,
    indexed by eps exponent; the norm table holds their absolute sums.
    """
    mats = entry_table(depth)
    scale, rows = _scaled_rows([poly for quad in mats.values() for poly in quad])
    coeffs = {e: tuple(rows[4 * i : 4 * i + 4]) for i, e in enumerate(mats)}
    norms = {e: tuple(sum(abs(c) for c in row) for row in quad) for e, quad in coeffs.items()}
    return scale, coeffs, norms


def _pack(coeffs, width: int) -> int:
    """sum_e coeffs[e] * 2**(width*e): the polynomial evaluated at 2**width."""
    x = 0
    for c in reversed(coeffs):
        x = (x << width) + c
    return x


def _unpack(x: int, width: int) -> list:
    """Signed coefficients of a packed polynomial, lowest first, up to the last nonzero.

    Exact when every coefficient has absolute value below 2**(width-1).
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << width
        out.append(c)
        x = (x - c) >> width
    return out


def _seed_total(targets, depth, mats, ring, jobs):
    seeds = range(len(targets) - 1)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda f: _cycle_seed_sum(targets, depth, mats, f, ring), seeds))
    else:
        parts = [_cycle_seed_sum(targets, depth, mats, f, ring) for f in seeds]
    return sum(parts, ring.zero)


class _PackedSum(NamedTuple):
    packed: int  # L**n times the cycle sum, evaluated at eps = 2**width
    width: int
    bound: int  # proven bound on the absolute value of every coefficient
    denom: int  # L**n


def _packed_cycle_sum(targets, depth: int, jobs: int = 1) -> _PackedSum:
    scale, coeffs, norms = _scaled_table(depth)
    denom = scale ** len(targets)
    bound = _seed_total(targets, depth, norms, _NORM, jobs)
    width = bound.bit_length() + 2
    if not bound:
        return _PackedSum(0, width, bound, denom)
    mats = {e: tuple(_pack(row, width) for row in quad) for e, quad in coeffs.items()}
    packed = _seed_total(targets, depth, mats, _PACKED, jobs)
    return _PackedSum(packed, width, bound, denom)


def _cycle_sum(targets, depth: int, jobs: int = 1) -> EpsLaurent:
    res = _packed_cycle_sum(targets, depth, jobs)
    coeffs = _unpack(res.packed, res.width)
    return EpsLaurent({e: Rat(c, res.denom) for e, c in enumerate(coeffs) if c})


def _probe_plan(n: int):
    # slot exponents shallower than -2 (that is 0 and -1) never occur
    if n <= 4:
        return [(v, p) for v in range(n) for p in (0, 1)]
    return [(0, 1), (n - 1, 1)]


def _n_point_at_depth(ks, depth: int, check_cancellation: bool, jobs: int) -> EpsLaurent:
    n = len(ks)
    targets = tuple(-k - 2 for k in ks)
    raw = _cycle_sum(targets, depth, jobs)
    if check_cancellation:
        # slots only ever carry exponents <= -2 in the exact object; probing
        # a handful of shallower exponents must give exactly zero
        for v, p in _probe_plan(n):
            probe = list(targets)
            probe[v] = -p
            z = _cycle_sum(tuple(probe), depth, jobs)
            if z:
                raise CancellationFailure(
                    f"cycle sum kept forbidden exponent -{p} on slot {v}: {z!r}"
                )
    scale = 1
    for k in ks:
        scale *= factorial(k + 1)
    return (-raw).shift(-n) / scale


def n_point(ks, depth=None, check_cancellation: bool = True, jobs: int = 1) -> EpsLaurent:
    ks = _validate_ks(ks)
    if len(ks) < 3:
        raise MalformedValue("n_point handles 3 or more insertions")
    if depth is not None:
        return _n_point_at_depth(ks, depth, check_cancellation, jobs)
    d = default_depth(ks)
    for attempt in range(ESCALATE_TRIES):
        try:
            return _n_point_at_depth(ks, d, check_cancellation, jobs)
        except DepthExceeded:
            if attempt == ESCALATE_TRIES - 1:
                raise
            d += ESCALATE_STEP


def _evaluate(ks, depth: int, check_cancellation: bool, jobs: int) -> EpsLaurent:
    if len(ks) == 1:
        return one_point(ks[0])
    if len(ks) == 2:
        return _two_point_at_depth(ks[0], ks[1], depth, check_cancellation)
    return _n_point_at_depth(ks, depth, check_cancellation, jobs)


def split_by_genus(value: EpsLaurent, ks):
    """Rows (g, d, coefficient) with d pinned by sum(ks) = 2d + 2g - 2.

    Zero coefficients are kept so tables show explicit zeros. A nonzero
    term that matches no admissible (g, d) cell is structural corruption.
    """
    total = sum(ks)
    rows = []
    seen = set()
    for g in range(total // 2 + 2):
        m = 2 * g - 2
        num = total - m
        if num < 0 or num % 2:
            continue
        rows.append((g, num // 2, value.coeff(m)))
        seen.add(m)
    for e, c in value.terms.items():
        if e not in seen and c:
            raise MalformedValue(
                f"eps exponent {e} admits no genus/degree cell for insertions {ks}"
            )
    return tuple(rows)


def stability_check(ks, lo_depth: int, hi_depth: int, jobs: int = 1) -> bool:
    """Recompute at two depths; any disagreement is an unstable extraction."""
    ks = _validate_ks(ks)
    lo = _evaluate(ks, lo_depth, False, jobs)
    hi = _evaluate(ks, hi_depth, False, jobs)
    if lo != hi:
        raise UnstableExtraction(
            f"correlator {ks} changed between depths {lo_depth} and {hi_depth}: "
            f"{lo!r} vs {hi!r}"
        )
    return True


@dataclass(frozen=True)
class CorrelatorRecord:
    insertions: tuple
    value: EpsLaurent
    by_genus: tuple
    depth_used: int
    stability_verified: bool


def correlator(
    ks,
    depth=None,
    stability: bool = True,
    check_cancellation: bool = True,
    jobs: int = 1,
) -> CorrelatorRecord:
    """Full evaluation pipeline with canonical ordering and depth escalation."""
    ks = tuple(sorted(_validate_ks(ks), reverse=True))
    d = depth if depth is not None else default_depth(ks)
    tries = 1 if depth is not None else ESCALATE_TRIES
    last_err = None
    value = None
    verified = False
    for _ in range(tries):
        try:
            value = _evaluate(ks, d, check_cancellation, jobs)
            if stability and len(ks) >= 2:
                deeper = _evaluate(ks, d + ESCALATE_STEP, False, jobs)
                if deeper != value:
                    raise UnstableExtraction(
                        f"correlator {ks} changed between depths {d} and "
                        f"{d + ESCALATE_STEP}"
                    )
            verified = stability
            break
        except (DepthExceeded, UnstableExtraction) as err:
            last_err = err
            value = None
            d += ESCALATE_STEP
    if value is None:
        raise last_err
    return CorrelatorRecord(ks, value, split_by_genus(value, ks), d, verified)
