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


def decimal_str(x, sig: int = 12) -> str:
    """Decimal rendering of a rational, correct to sig significant digits.

    Pure integer arithmetic (no float round trip), round half away from
    zero. Display only; data paths keep exact rationals.
    """
    if sig < 1:
        raise ValueError(f"need at least one significant digit, got {sig}")
    num, den = int(x.numerator), int(x.denominator)
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)

    # decimal exponent e with 10^e <= num/den < 10^(e+1)
    def at_least(exp):
        if exp >= 0:
            return num >= den * 10**exp
        return num * 10 ** (-exp) >= den
    e = len(str(num)) - len(str(den))
    while at_least(e + 1):
        e += 1
    while not at_least(e):
        e -= 1

    shift = sig - 1 - e
    if shift >= 0:
        q, r = divmod(num * 10**shift, den)
    else:
        q, r = divmod(num, den * 10 ** (-shift))
    if 2 * r >= (den if shift >= 0 else den * 10 ** (-shift)):
        q += 1
        if q == 10**sig:  # rounding overflowed into one more digit
            q //= 10
            e += 1
    digits = str(q).ljust(sig, "0")

    if 0 <= e < sig:
        whole, frac = digits[: e + 1], digits[e + 1 :].rstrip("0")
        return sign + whole + ("." + frac if frac else "")
    if -4 <= e < 0:
        return sign + "0." + "0" * (-e - 1) + digits.rstrip("0")
    mant = digits[0] + ("." + digits[1:].rstrip("0") if digits[1:].rstrip("0") else "")
    return f"{sign}{mant}e{e:+d}"


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
