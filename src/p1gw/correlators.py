"""Stationary correlator evaluation from the resolvent bundle.

Two engines here, by insertion count:

  * one_point: closed evaluation through powers of the core even series
    S: genus g, at degree d = (k + 2 - 2g) / 2, is [eps^(2g)] S**(2d-1)
    / (d!)^2, read off the shared S-power table of p1gw.eps at
    p = k + 1 - 2g (d = 0 gives p = -1, which the table serves like any
    other p), so a call evaluates k/2 + 2 polynomials in p and raises no
    series to a power.
  * two_point and n_point (2..8 insertions), the direct engine: cycle
    sums. For every arrangement of the variables around a cycle (last
    variable pinned, killing the cyclic redundancy), the trace of the
    resolvent product divided by consecutive differences contributes; the
    wanted multi-exponent coefficient is assembled by a prefix dynamic
    program over arrangements that shares partial matrix products between
    arrangements with the same frontier. At two insertions there is one
    arrangement, and the sum also holds the disconnected term
    -1/(lam_0 - lam_1)^2 of the identity; its slot-1 exponents are >= 0, so
    it never reaches a target exponent (<= -2), and the cancellation probes
    subtract it in closed form.

correlator() serves neither cycle sum. It strips the index-0 insertions
by the divisor equation <tau_0 X>_{g,d} = d <X>_{g,d} (a factor d**z on the
eps^(2g-2) coefficient for z zeros; all zeros reduce to one_point(0) with
z - 1 factors), and evaluates what is left by one_point or, from two
indices on, by one of two exact routes, chosen by a cost rule on the
input alone:

  * the completed-cycle pass (p1gw.completed.pass_correlator), a finite
    sum over the partitions of every degree up to d_max = sum(xs) / 2 + 1
    for the nonzero indices xs, whose cost grows with p(d_max) and hardly
    with the insertion count;
  * the commutator recursion's pair extraction
    (p1gw.recursion.pair_correlator), whose cost grows with the insertion
    count and the depth but not with the partitions of d_max.

Cost rule: the pass serves xs iff d_max <= PASS_DEGREE = 17 (_on_pass).
Cold first calls in a fresh interpreter, each with its stability rerun,
recursion against pass in ms (Python 3.11.7, 2-core x86-64,
fractions.Fraction): (16, 16) at d_max = 17: 19.5 against 14.2;
(17, 17) at 18: 24.8 against 22.8; (18, 18) at 19: 28.5 against 31.9;
(20, 20) at 21: 27.2 against 53.7. With three or more indices the pass
wins by far: (8, 8, 8, 8) at 17: 105 against 17.5, and
(9, 7, 5, 4, 3, 2, 1, 1) at 17: about 14,200 against 320. So pairs cross over
between d_max 17 and 19, and the rule keeps every pair past it, where
p(d_max) grows without bound, on the recursion. The rule reads d_max
alone, so three or more indices past 17 take the recursion too, though
the pass is often faster there ((10, 10, 10, 10) at 21: 189 against 32).
Both routes keep the budget check first: a depth below sum(ks) + n is an
unstable extraction for n >= 2 before anything is computed, a negative
depth is malformed for every n, and depth_used is the given or default
depth. The pass has no spectral truncation, so its value is exact at any
depth at or above the budget, and its stability rerun makes every
q-series STABILITY_STEP degrees longer over the same partition sums; the
recursion reruns STABILITY_STEP deeper. two_point, n_point and _evaluate
call neither route: the tests compare the served route with them as an
independent one.

extract_bij(b, m, i, j), the correlator of (b,)*m + (i, j) with i, j >= 1,
takes the same rule over those indices: the pass below it, with no rerun,
and past it the recursion's own extract_bij, whose contract it keeps. The
checks live here, and the recursion runs them too: the arguments and the
eps cap first (check_pair_args), then zero for an odd index sum and
DepthExceeded below the budget (pair_depth). The pass is exact at any
accepted depth and cap, as the recursion is at or above the budget.

Nothing below the rule imports the recursion, the resolvent or its
series: the branch past the rule imports p1gw.recursion, and the cycle DP
p1gw.resolvent, on first use, so `import p1gw` does not compile them.

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

from functools import lru_cache
from typing import NamedTuple

from .eps import EpsLaurent, EPS_ZERO, from_packed, pack, pack_width, s_power_coeff, scaled_rows
from .errors import (
    CancellationFailure,
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    UnstableExtraction,
)
from . import completed
from .completed import PASS_DEGREE, STABILITY_STEP
from .rational import factorial

MAX_POINTS = 8


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
        c = s_power_coeff(2 * d - 1, g) / factorial(d) ** 2
        if c:
            terms[2 * g - 2] = c
    return EpsLaurent(terms)


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


def _divisor(value: EpsLaurent, total: int, zeros: int) -> EpsLaurent:
    """Add `zeros` index-0 insertions to value, the correlator of index sum
    total: <tau_0 X>_{g,d} = d <X>_{g,d} scales the eps^(2g-2) coefficient
    by d**zeros, with d = (total + 2 - 2g) / 2."""
    if not zeros:
        return value
    return EpsLaurent({e: c * ((total - e) // 2) ** zeros for e, c in value.terms.items()})


def _on_pass(xs) -> bool:
    """The cost rule: the completed-cycle pass serves the nonzero indices
    xs when its longest q-series, d_max = sum(xs) / 2 + 1, is at most
    PASS_DEGREE (module docstring)."""
    return sum(xs) // 2 + 1 <= PASS_DEGREE


def _served(ks, depth: int, rerun: bool) -> tuple:
    """The values correlator() serves for sorted ks: (value,), or with
    rerun (value, stability rerun's value). One-point, or the divisor
    equation over the nonzero indices, which the completed-cycle pass or
    the pair extraction serves by the cost rule (_on_pass).

    A depth below the budget sum(ks) + n is an unstable extraction for
    n >= 2, raised before anything is computed; the rerun is never
    shallower. The pair extraction runs the nonzero indices at depth and
    at depth + STABILITY_STEP, both at or above their own budget, and the
    pass's rerun makes every q-series STABILITY_STEP degrees longer.
    """
    n = len(ks)
    if n >= 2 and depth < sum(ks) + n:
        raise UnstableExtraction(
            f"correlator {ks} needs a deeper truncation: correlator: coefficient at exponent "
            f"{-(sum(ks) + n)} requested but data is only valid down to exponent {-depth}"
        )
    xs = tuple(k for k in ks if k)
    zeros = n - len(xs)
    if len(xs) >= 2 and _on_pass(xs):
        values = completed.pass_correlator(xs, rerun)
    elif len(xs) >= 2:
        from . import recursion

        depths = (depth, depth + STABILITY_STEP) if rerun else (depth,)
        values = tuple(recursion.pair_correlator(xs, d) for d in depths)
    elif xs:
        values = (one_point(xs[0]),) * (1 + rerun)
    else:
        values, zeros = (one_point(0),) * (1 + rerun), zeros - 1
    return tuple(_divisor(value, sum(ks), zeros) for value in values)


def _stable(ks, depth: int, rerun: bool) -> EpsLaurent:
    """The value of _served(ks, depth, rerun), checked against the
    stability rerun's when rerun is set; a disagreement is an unstable
    extraction."""
    value, *again = _served(ks, depth, rerun)
    if again and again[0] != value:
        raise UnstableExtraction(
            f"correlator {ks} changed between depths {depth} and {depth + STABILITY_STEP}"
        )
    return value


class CorrelatorRecord(NamedTuple):
    insertions: tuple
    value: EpsLaurent
    by_genus: tuple
    depth_used: int
    stability_verified: bool


def correlator(ks, depth=None, stability: bool = True) -> CorrelatorRecord:
    """Full evaluation pipeline with canonical ordering and a stability recheck.

    Runs once, at the given depth or else the default one, along _served:
    one-point, then the divisor equation, then the completed-cycle pass for
    nonzero indices with d_max = sum / 2 + 1 <= PASS_DEGREE and the
    recursion's pair extraction past it (module docstring). A negative
    depth raises MalformedValue; for n >= 2 a depth below the spend budget
    sum(ks) + n raises UnstableExtraction, and the default never does. On
    the pass the depth is only checked against the budget, and the recheck
    lengthens every q-series by STABILITY_STEP; on the recursion it runs
    STABILITY_STEP deeper. An odd index sum admits no degree, so its value
    is zero at any depth >= 0.
    """
    ks = tuple(sorted(_validate_ks(ks), reverse=True))
    d = default_depth(ks) if depth is None else depth
    if d < 0:
        raise MalformedValue(f"depth must be >= 0, got {d}")
    if sum(ks) % 2:
        return CorrelatorRecord(ks, EPS_ZERO, split_by_genus(EPS_ZERO, ks), d, stability)
    value = _stable(ks, d, stability and len(ks) >= 2)
    return CorrelatorRecord(ks, value, split_by_genus(value, ks), d, stability)


def default_extract_depth(b: int, m: int, i: int, j: int) -> int:
    """The pair's spend budget sum(ks) + n, the least sound depth."""
    return (b + 1) * m + i + j + 2


def check_pair_args(b: int, m: int, i: int, j: int, eps_cap) -> None:
    """extract_bij's argument checks, which the recursion's extract_bij
    shares: i, j >= 1, b >= 1, m >= 0, and an eps_cap, if given, at or
    above default_extract_depth, the highest eps exponent any genus term
    reads before normalization."""
    if i < 1 or j < 1:
        raise IndexOutOfRange(f"extraction needs i, j >= 1, got ({i}, {j})")
    if b < 1:
        raise IndexOutOfRange(f"recursion route needs weight >= 1, got {b}")
    if m < 0:
        raise MalformedValue(f"level must be >= 0, got {m}")
    least = default_extract_depth(b, m, i, j)
    if eps_cap is not None and eps_cap < least:
        raise MalformedValue(f"eps_cap must be >= {least}, got {eps_cap}")


def pair_depth(total: int, n: int, depth):
    """The depth a pair extraction of n indices with index sum total runs
    at, or None for an odd total, whose value is zero at any depth. The
    default is the budget total + n; a depth below it raises DepthExceeded.
    """
    if total % 2:
        return None
    budget = total + n
    if depth is None:
        return budget
    if depth < budget:
        raise DepthExceeded(-budget, depth, "pair extraction")
    return depth


def extract_bij(b: int, m: int, i: int, j: int, depth=None, eps_cap=None) -> EpsLaurent:
    """Correlator of m weight-b insertions plus tau_i and tau_j.

    The arguments are checked first (check_pair_args); an odd b*m + i + j
    then gives zero at any depth, and a depth below default_extract_depth
    raises DepthExceeded (pair_depth). The cost rule (_on_pass) sends the
    rest to the completed-cycle pass, exact at any accepted depth and cap,
    with no rerun, and past it to the recursion's own extract_bij
    (p1gw.recursion), whose cap is exact at or above the budget.
    """
    check_pair_args(b, m, i, j, eps_cap)
    if pair_depth(b * m + i + j, m + 2, depth) is None:
        return EPS_ZERO
    # the rule reads the index sum alone, so no m-tuple is built past it
    if _on_pass((b * m, i, j)):
        return completed.pass_correlator((b,) * m + (i, j))[0]
    from . import recursion

    return recursion.extract_bij(b, m, i, j, depth, eps_cap)
