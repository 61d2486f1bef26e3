"""Exact rational arithmetic primitives.

Rat is fractions.Fraction. The engines' hot loops (the cycle DP, the
recursion and the completed-cycle pass) run on exact ints, so Rat only
carries the rational arithmetic around them; code elsewhere treats it as
opaque. The even Bernoulli numbers come from the tangent numbers, also on
ints (bernoulli_even).
"""

import math
import re
from fractions import Fraction as Rat
from itertools import product

ZERO = Rat(0)
ONE = Rat(1)

_RAT_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rat_from_str(s: str):
    """Parse "p/q" or "p" (sign on the numerator only) into a rational.

    Only the canonical forms are accepted; decimal notation raises
    ValueError so serialized data stays in a single format.
    """
    if not isinstance(s, str) or not _RAT_LITERAL.fullmatch(s.strip()):
        raise ValueError(f"not a rational literal: {s!r}")
    num, _, den = s.strip().partition("/")
    if den:
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {s!r}")
        return Rat(int(num), d)
    return Rat(int(num))


def rat_str(x) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" if integral."""
    return str(x)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return math.factorial(n)


def bernoulli_even(n: int):
    """B_2n for n >= 1, as (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) from the
    tangent number T_n, computed by Brent and Harvey's in-place integer
    loop ("Fast computation of Bernoulli, tangent and secant numbers")."""
    if n < 1:
        raise ValueError(f"bernoulli_even needs n >= 1, got {n}")
    t = [0, 1] + [0] * (n - 1)  # t[j] ends as T_j
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return Rat((-1) ** (n - 1) * 2 * n * t[n], 4**n * (4**n - 1))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def splits(key):
    """(weight, s, key - s) for every count vector s <= key, in product order.

    A count vector holds key[v] copies of the v-th weight of a multiset;
    its ordered splits I | J as a listing are the s with weight
    prod_v C(key[v], s[v]) each. Product order lists every s' <= s before s.
    """
    for s in product(*(range(c + 1) for c in key)):
        w = 1
        for c, t in zip(key, s):
            w *= binomial(c, t)
        yield w, s, tuple(c - t for c, t in zip(key, s))
