"""Exact rational arithmetic primitives.

Uses gmpy2.mpq when available, falling back to fractions.Fraction. The
engines' hot loops (the cycle DP, the recursion and the completed-cycle
pass) run on exact ints, so the backend only changes the rational
arithmetic around them. Both types share the operator surface we need;
code elsewhere treats Rat as opaque.
"""

import math
import re
from itertools import product

try:
    from gmpy2 import mpq as Rat  # type: ignore
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat  # type: ignore

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
