"""Stationary correlator evaluation: the served route.

One engine here, for a single insertion:

  * one_point: closed evaluation through powers of the even series
    S = sinh(eps/2) / (eps/2): genus g, at degree d = (k + 2 - 2g) / 2,
    is [eps^(2g)] S**p / (d!)^2 with p = 2d - 1 = k + 1 - 2g. The central
    factorial numbers T(n, p) (Riordan, Combinatorial Identities), with
    (2 sinh(x/2))^p / p! = sum_n T(n, p) x^n / n!, give
    [eps^(2g)] S**p = p! T(k + 1, p) / (k + 1)!, so every genus with
    d >= 1 reads the one row n = k + 1. It is built on the integers
    V(n, j) = 4^((n-j)/2) T(n, j), by V(n, j) = V(n-2, j-2) + j^2 V(n-2, j)
    from V(1, 1) = 1. The degree-0 cell, p = -1 and g = k/2 + 1, is
    [eps^(2g)] (eps/2) / sinh(eps/2) = (2^(1-2g) - 1) B_2g / (2g)!, with
    B_2g from the tangent numbers (p1gw.rational.bernoulli_even).

The direct engine for 2..8 insertions, the cycle-sum DP (two_point and
n_point), is in p1gw.cycle, which loads on first use; two_point and
n_point are still found here by name (module __getattr__).

correlator() serves no cycle sum. It strips the index-0 insertions
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
recursion reruns STABILITY_STEP deeper. The cycle DP (p1gw.cycle) calls
neither route: the tests compare the served route with it as an
independent one.

extract_bij(b, m, i, j), the correlator of (b,)*m + (i, j) with i, j >= 1,
takes the same rule over those indices: the pass below it, with no rerun,
and past it the recursion's own extract_bij, whose contract it keeps. The
checks live here, and the recursion runs them too: the arguments first
(check_pair_args), then zero for an odd index sum and DepthExceeded below
the budget (pair_depth). The pass is exact at any accepted depth, as the
recursion is at or above the budget. It takes no eps cap, which the pass
would never read; the recursion's own extract_bij keeps one.

Nothing below the rule imports the recursion, the resolvent, its series
or the packed-integer form: the branch past the rule imports
p1gw.recursion, and the cycle DP lives in p1gw.cycle, both on first use,
so `import p1gw` does not compile them.

A value is a Laurent polynomial in eps; the exponent 2g-2 carries the genus
g contribution, and the degree is pinned by sum(ks) = 2d + 2g - 2.
"""

from typing import NamedTuple

from .eps import EpsLaurent, EPS_ZERO
from .errors import (
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    UnstableExtraction,
)
from . import completed
from .completed import PASS_DEGREE, STABILITY_STEP
from .rational import Rat, bernoulli_even, factorial

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
    row = [1]  # row[i] = V(n, 2i + 1), from n = 1 to n = k + 1 (module docstring)
    for _ in range(k // 2):
        row = [a + (2 * i + 1) ** 2 * b for i, (a, b) in enumerate(zip([0] + row, row + [0]))]
    top = factorial(k + 1)
    terms = {}
    for g in range(k // 2 + 1):
        d = k // 2 + 1 - g
        terms[2 * g - 2] = Rat(factorial(2 * d - 1) * row[d - 1], 4**g * top * factorial(d) ** 2)
    g = k // 2 + 1
    terms[2 * g - 2] = (Rat(2, 4**g) - 1) * bernoulli_even(g) / factorial(2 * g)
    return EpsLaurent(terms)


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


def check_pair_args(b: int, m: int, i: int, j: int) -> None:
    """extract_bij's argument checks, which the recursion's extract_bij
    shares: i, j >= 1, b >= 1 and m >= 0."""
    if i < 1 or j < 1:
        raise IndexOutOfRange(f"extraction needs i, j >= 1, got ({i}, {j})")
    if b < 1:
        raise IndexOutOfRange(f"recursion route needs weight >= 1, got {b}")
    if m < 0:
        raise MalformedValue(f"level must be >= 0, got {m}")


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


def extract_bij(b: int, m: int, i: int, j: int, depth=None) -> EpsLaurent:
    """Correlator of m weight-b insertions plus tau_i and tau_j.

    The arguments are checked first (check_pair_args); an odd b*m + i + j
    then gives zero at any depth, and a depth below default_extract_depth
    raises DepthExceeded (pair_depth). The cost rule (_on_pass) sends the
    rest to the completed-cycle pass, exact at any accepted depth, with no
    rerun, and past it to the recursion's own extract_bij (p1gw.recursion),
    uncapped.
    """
    check_pair_args(b, m, i, j)
    if pair_depth(b * m + i + j, m + 2, depth) is None:
        return EPS_ZERO
    # the rule reads the index sum alone, so no m-tuple is built past it
    if _on_pass((b * m, i, j)):
        return completed.pass_correlator((b,) * m + (i, j))[0]
    from . import recursion

    return recursion.extract_bij(b, m, i, j, depth)


def __getattr__(name):
    # the cycle DP's entry points, bound from p1gw.cycle on first access
    if name not in ("two_point", "n_point"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cycle

    value = getattr(cycle, name)
    globals()[name] = value
    return value
