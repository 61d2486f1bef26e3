"""Stationary correlator evaluation from the resolvent bundle.

Two engines, by insertion count:

  * one_point: closed evaluation through truncated powers of the core even
    series (degree d contributes coefficient extraction from the (2d-1)-th
    power, with d = 0 handled by the inverse series).
  * two_point and n_point (2..8 insertions): cycle sums. For every
    arrangement of the variables around a cycle (last variable pinned,
    killing the cyclic redundancy), the trace of the resolvent product
    divided by consecutive differences contributes; the wanted
    multi-exponent coefficient is assembled by a prefix dynamic program over
    arrangements that shares partial matrix products between arrangements
    with the same frontier. At two insertions there is one arrangement, and
    the sum also holds the disconnected term -1/(lam_0 - lam_1)^2 of the
    identity; its slot-1 exponents are >= 0, so it never reaches a target
    exponent (<= -2), and the cancellation probes subtract it in closed form.

A value is a Laurent polynomial in eps; the exponent 2g-2 carries the genus
g contribution, and the degree is pinned by sum(ks) = 2d + 2g - 2.

Depth accounting for the cycle DP: every finalized resolvent factor at
exponent E <= 0 spends -E against a fixed budget sum(ks) + n, and each
completed cycle spends the budget exactly. The remaining capacity is a
function of the DP frontier alone, which prunes the search. One depth rule
covers truncation: a depth below the budget raises DepthExceeded. At or
above it no factor can fall below -depth, because every spend is >= 0, so
each factor spends at most the whole budget; the loops then run on the
capacity alone and never read past the entry table. The default depth
sum(ks) + 2n is above the budget, so every call runs once, at its given or
default depth, and never retries deeper. The stability recomputation
STABILITY_STEP deeper is therefore expected to always agree; it runs anyway
because it is cheap insurance against bookkeeping bugs.

Exact integer kernel: the cycle DP runs on the packed form of eps-polynomials
(see p1gw.eps for the scale/pack/unpack/width proof). Every DP term is a
product of exactly n entries (n - 2 interior factors plus the two closing
ones; the identity seed is integral), so the packed total is L**n times the
cycle sum. The norm-bound body is the same DP over the l1 norms of the
scaled entries in an unsigned ring, which drops every sign. A zero bound
proves the sum is zero without the packed pass. Both rational backends run
the cycle DP on the same ints, so they give the same numbers at the same
speed there.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .eps import EpsLaurent, EPS_ZERO, from_packed, pack, pack_width, s_power, scaled_rows
from .errors import (
    CancellationFailure,
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    UnstableExtraction,
)
from .rational import factorial
from .resolvent import entry_table

MAX_POINTS = 8
STABILITY_STEP = 4


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
    Raises DepthExceeded when depth is below the spend budget.
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
    if depth < budget:
        raise DepthExceeded(-budget, depth, "cycle sum")
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
                # consumes -E, so E >= -cap
                fut = sum_all - _masked_sum(targets, mask) + t_first + t_cur
                cap = -fut + pend + w1 - (n - step + 1)
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
        # closing edge drops +jn on last and -jn-1 on first, sign -1; the
        # range keeps both factors at exponents <= 0
        for jn in range(max(0, t_last - pend), w1 - t_first):
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


@lru_cache(maxsize=64)
def _scaled_table(depth: int):
    """(L, coefficient table, norm table) for entry_table(depth).

    L is the lcm of every coefficient denominator. The coefficient table maps
    lam-exponent to four tuples of the integer coefficients of L * entry,
    indexed by eps exponent; the norm table holds their absolute sums.
    """
    mats = entry_table(depth)
    scale, rows = scaled_rows([poly for quad in mats.values() for poly in quad])
    coeffs = {e: tuple(rows[4 * i : 4 * i + 4]) for i, e in enumerate(mats)}
    norms = {e: tuple(sum(abs(c) for c in row) for row in quad) for e, quad in coeffs.items()}
    return scale, coeffs, norms


def _seed_total(targets, depth, mats, ring):
    seeds = range(len(targets) - 1)
    return sum((_cycle_seed_sum(targets, depth, mats, f, ring) for f in seeds), ring.zero)


class _PackedSum(NamedTuple):
    packed: int  # L**n times the cycle sum, evaluated at eps = 2**width
    width: int
    bound: int  # proven bound on the absolute value of every coefficient
    denom: int  # L**n


def _packed_cycle_sum(targets, depth: int) -> _PackedSum:
    scale, coeffs, norms = _scaled_table(depth)
    denom = scale ** len(targets)
    bound = _seed_total(targets, depth, norms, _NORM)
    width = pack_width(bound)
    if not bound:
        return _PackedSum(0, width, bound, denom)
    mats = {e: tuple(pack(row, width) for row in quad) for e, quad in coeffs.items()}
    packed = _seed_total(targets, depth, mats, _PACKED)
    return _PackedSum(packed, width, bound, denom)


def _cycle_sum(targets, depth: int) -> EpsLaurent:
    res = _packed_cycle_sum(targets, depth)
    return from_packed(res.packed, res.width, res.denom)


def _disconnected(targets) -> EpsLaurent:
    """The identity's term of the two-point cycle sum at `targets`.

    It is -1/(lam_0 - lam_1)**2 = -sum_j (j + 1) lam_1**j lam_0**(-j-2),
    so it only reaches slot 1 at exponents >= 0.
    """
    t0, t1 = targets
    if t1 < 0 or t0 + t1 != -2:
        return EPS_ZERO
    return EpsLaurent.const(-(t1 + 1))


def _probe_plan(n: int):
    # slot exponents shallower than -2 (that is 0 and -1) never occur
    if n <= 4:
        return [(v, p) for v in range(n) for p in (0, 1)]
    return [(0, 1), (n - 1, 1)]


def _cycle_value(ks, depth, check_cancellation: bool) -> EpsLaurent:
    """The cycle-sum value of ks at depth, or at the default depth if None."""
    if depth is None:
        depth = default_depth(ks)
    n = len(ks)
    targets = tuple(-k - 2 for k in ks)
    raw = _cycle_sum(targets, depth)
    if check_cancellation:
        # slots only ever carry exponents <= -2 in the connected object;
        # probing a handful of shallower exponents must give exactly zero
        for v, p in _probe_plan(n):
            probe = list(targets)
            probe[v] = -p
            z = _cycle_sum(tuple(probe), depth)
            if n == 2:
                z = z - _disconnected(probe)
            if z:
                raise CancellationFailure(
                    f"cycle sum kept forbidden exponent {-p} on slot {v}: {z!r}"
                )
    scale = 1
    for k in ks:
        scale *= factorial(k + 1)
    return (-raw).shift(-n) / scale


def two_point(k1: int, k2: int, depth=None, check_cancellation: bool = True) -> EpsLaurent:
    return _cycle_value(_validate_ks((k1, k2)), depth, check_cancellation)


def n_point(ks, depth=None, check_cancellation: bool = True) -> EpsLaurent:
    ks = _validate_ks(ks)
    if len(ks) < 3:
        raise MalformedValue("n_point handles 3 or more insertions")
    return _cycle_value(ks, depth, check_cancellation)


def _evaluate(ks, depth: int, check_cancellation: bool) -> EpsLaurent:
    if len(ks) == 1:
        return one_point(ks[0])
    return _cycle_value(ks, depth, check_cancellation)


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


def _too_shallow(ks, err: DepthExceeded) -> UnstableExtraction:
    return UnstableExtraction(f"correlator {ks} needs a deeper truncation: {err}")


def stability_check(ks, lo_depth: int, hi_depth: int) -> bool:
    """Recompute at two depths; any disagreement is an unstable extraction."""
    ks = _validate_ks(ks)
    try:
        lo = _evaluate(ks, lo_depth, False)
        hi = _evaluate(ks, hi_depth, False)
    except DepthExceeded as err:
        raise _too_shallow(ks, err) from err
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
) -> CorrelatorRecord:
    """Full evaluation pipeline with canonical ordering and a stability recheck.

    Runs once, at the given depth or else the default one. A depth below
    the spend budget raises UnstableExtraction; the default never does.
    An odd index sum admits no degree, so its value is zero at any depth.
    """
    ks = tuple(sorted(_validate_ks(ks), reverse=True))
    d = default_depth(ks) if depth is None else depth
    if sum(ks) % 2:
        return CorrelatorRecord(ks, EPS_ZERO, split_by_genus(EPS_ZERO, ks), d, stability)
    try:
        value = _evaluate(ks, d, check_cancellation)
        if stability and len(ks) >= 2:
            deeper = _evaluate(ks, d + STABILITY_STEP, False)
            if deeper != value:
                raise UnstableExtraction(
                    f"correlator {ks} changed between depths {d} and {d + STABILITY_STEP}"
                )
    except DepthExceeded as err:
        raise _too_shallow(ks, err) from err
    return CorrelatorRecord(ks, value, split_by_genus(value, ks), d, stability)
