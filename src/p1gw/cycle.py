"""The cycle-sum dynamic program: two_point and n_point (2..8 insertions).

For every arrangement of the variables around a cycle (last variable
pinned, killing the cyclic redundancy), the trace of the resolvent product
divided by consecutive differences contributes; the wanted multi-exponent
coefficient is assembled by a prefix dynamic program over arrangements
that shares partial matrix products between arrangements with the same
frontier. At two insertions there is one arrangement, and the sum also
holds the disconnected term -1/(lam_0 - lam_1)^2 of the identity; its
slot-1 exponents are >= 0, so it never reaches a target exponent (<= -2),
and the cancellation probes subtract it in closed form.

correlator() (p1gw.correlators) never runs this engine: it is the
independent route that the served values are tested against, and the
oracle layer reads it. So it loads on first use, with the resolvent and
the packed-integer form it reads (p1gw.resolvent, p1gw.packed), and
p1gw.two_point, p1gw.n_point and p1gw.correlators.two_point/.n_point
resolve here.

Depth accounting: every finalized resolvent factor at exponent E <= 0
spends -E against a fixed budget sum(ks) + n, and each completed cycle
spends the budget exactly. The remaining capacity is a function of the DP
frontier alone, which prunes the search. One depth rule covers
truncation: a depth below the budget raises DepthExceeded. At or above it
no factor can fall below -depth, because every spend is >= 0, so each
factor spends at most the whole budget; the loops then run on the
capacity alone and never read past the entry table. The default depth
sum(ks) + 2n is above the budget, so every call runs once, at its given or
default depth, and never retries deeper.

Exact integer kernel: the DP runs on the packed form of eps-polynomials
(see p1gw.packed for the scale/pack/unpack/width proof). Every DP term is
a product of exactly n entries (n - 2 interior factors plus the two
closing ones; the identity seed is integral), so the packed total is L**n
times the cycle sum. The norm-bound body is the same DP over the l1 norms
of the scaled entries in an unsigned ring, which drops every sign. A zero
bound proves the sum is zero without the packed pass. Both rational
backends run the DP on the same ints, so they give the same numbers at
the same speed there.
"""

from functools import lru_cache
from typing import NamedTuple

from .correlators import _validate_ks, default_depth, one_point
from .eps import EpsLaurent, EPS_ZERO
from .errors import CancellationFailure, DepthExceeded, MalformedValue
from .packed import from_packed, pack, pack_width, scaled_rows
from .rational import factorial


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


def _cycle_seed_sum(targets, depth, mats, f, signed):
    """DP over cycle arrangements starting at variable f (last pinned).

    State key after placing t variables: (mask, cur, w1, pend) where w1 is
    the exponent the opening edge dropped on f (settled only when the cycle
    closes) and pend is the exponent the newest edge dropped on cur. The
    matrix value accumulates resolvent coefficient products of the interior
    variables over every arrangement sharing the state, signs folded in.
    `mats` maps lam-exponent to an (a, b, c, d) tuple of integers: the
    packed table with signed true, or its norms with signed false, which
    drops every sign and so sums the terms' magnitudes.
    Raises DepthExceeded when depth is below the spend budget.
    """
    neg4 = _neg4 if signed else _same
    n = len(targets)
    last = n - 1
    t_first = targets[f]
    t_last = targets[last]
    sum_all = sum(targets)
    budget = -(sum_all + n)
    if budget < 0:
        return 0
    if depth < budget:
        raise DepthExceeded(-budget, depth, "cycle sum")
    kmax = max(0, max(-t - 2 for t in targets))
    jcap = budget + kmax + 2

    frontier = {(1 << f, f, 0, 0): (1, 0, 0, 1)}
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

    total = 0
    for (mask, cur, w1, pend), p_mat in frontier.items():
        # closing edge drops +jn on last and -jn-1 on first, sign -1; the
        # range keeps both factors at exponents <= 0
        for jn in range(max(0, t_last - pend), w1 - t_first):
            e_last = t_last - pend - jn
            e_first = t_first - w1 + jn + 1
            total = total + _trace_prod3(mats[e_first], p_mat, mats[e_last])
    return -total if signed else total


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
    from .resolvent import entry_table

    mats = entry_table(depth)
    scale, rows = scaled_rows([poly for quad in mats.values() for poly in quad])
    coeffs = {e: tuple(rows[4 * i : 4 * i + 4]) for i, e in enumerate(mats)}
    norms = {e: tuple(sum(abs(c) for c in row) for row in quad) for e, quad in coeffs.items()}
    return scale, coeffs, norms


def _seed_total(targets, depth, mats, signed):
    return sum(_cycle_seed_sum(targets, depth, mats, f, signed) for f in range(len(targets) - 1))


class _PackedSum(NamedTuple):
    packed: int  # L**n times the cycle sum, evaluated at eps = 2**width
    width: int
    bound: int  # proven bound on the absolute value of every coefficient
    denom: int  # L**n


def _packed_cycle_sum(targets, depth: int) -> _PackedSum:
    scale, coeffs, norms = _scaled_table(depth)
    denom = scale ** len(targets)
    bound = _seed_total(targets, depth, norms, False)
    width = pack_width(bound)
    if not bound:
        return _PackedSum(0, width, bound, denom)
    mats = {e: tuple(pack(row, width) for row in quad) for e, quad in coeffs.items()}
    packed = _seed_total(targets, depth, mats, True)
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
    # the direct engine alone, which the tests check correlator() against
    if len(ks) == 1:
        return one_point(ks[0])
    return _cycle_value(ks, depth, check_cancellation)
