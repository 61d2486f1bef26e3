"""The 2x2 resolvent series driving every correlator in this package.

The resolvent R(lam) is a matrix Laurent series

    R = [[1 + alpha, beta], [gamma, -alpha]],   beta = q - p,  gamma = q + p,

whose entry coefficients at each power of 1/lam are exact Laurent
polynomials in eps given by closed double sums:

    alpha@lam^(-2j-2) = sum_i eps^(2(j-i)) * A(j,i) / (4^j i! (i+1)!)
    p@lam^(-2j-1)     = sum_i eps^(2(j-i)) * B(j,i) / (4^j i!^2)
    q@lam^(-2j-2)     = -1/2 sum_i eps^(2(j-i)+1) (2i+1) B(j,i) / (4^j i!^2)

with integer kernels

    A(j,i) = sum_l (-1)^l (2i+1-2l)^(2j+1) C(2i+1, l)
    B(j,i) = sum_l (-1)^l (2i+1-2l)^(2j)   (C(2i, l) - C(2i, l-1)).

Everything else (correlators, recursions, oracles) consumes the bundle
built here.
"""

from dataclasses import dataclass
from functools import lru_cache

from .eps import EpsLaurent, EPS_ZERO, EPS_ONE
from .errors import IdentityViolation
from .rational import Rat, factorial, binomial
from .series import LambdaSeries, Mat2, INF


def _a_val(j: int, i: int) -> int:
    return sum(
        (-1) ** l * (2 * i + 1 - 2 * l) ** (2 * j + 1) * binomial(2 * i + 1, l)
        for l in range(i + 1)
    )


def _b_val(j: int, i: int) -> int:
    return sum(
        (-1) ** l
        * (2 * i + 1 - 2 * l) ** (2 * j)
        * (binomial(2 * i, l) - binomial(2 * i, l - 1))
        for l in range(i + 1)
    )


def alpha_coeff(j: int) -> EpsLaurent:
    """Coefficient of lam^(-2j-2) in alpha."""
    terms = {}
    den = 4**j
    for i in range(j + 1):
        c = Rat(_a_val(j, i), den * factorial(i) * factorial(i + 1))
        if c:
            terms[2 * (j - i)] = c
    return EpsLaurent(terms)


def p_coeff(j: int) -> EpsLaurent:
    """Coefficient of lam^(-2j-1) in p."""
    terms = {}
    den = 4**j
    for i in range(j + 1):
        c = Rat(_b_val(j, i), den * factorial(i) ** 2)
        if c:
            terms[2 * (j - i)] = c
    return EpsLaurent(terms)


def q_coeff(j: int) -> EpsLaurent:
    """Coefficient of lam^(-2j-2) in q."""
    terms = {}
    den = 2 * 4**j
    for i in range(j + 1):
        c = Rat(-(2 * i + 1) * _b_val(j, i), den * factorial(i) ** 2)
        if c:
            terms[2 * (j - i) + 1] = c
    return EpsLaurent(terms)


def alpha_series(depth: int) -> LambdaSeries:
    d = {}
    j = 0
    while 2 * j + 2 <= depth:
        d[-2 * j - 2] = alpha_coeff(j)
        j += 1
    return LambdaSeries._raw(d, depth)


def p_series(depth: int) -> LambdaSeries:
    d = {}
    j = 0
    while 2 * j + 1 <= depth:
        d[-2 * j - 1] = p_coeff(j)
        j += 1
    return LambdaSeries._raw(d, depth)


def q_series(depth: int) -> LambdaSeries:
    d = {}
    j = 0
    while 2 * j + 2 <= depth:
        d[-2 * j - 2] = q_coeff(j)
        j += 1
    return LambdaSeries._raw(d, depth)


@dataclass(frozen=True)
class ResolventBundle:
    alpha: LambdaSeries
    p: LambdaSeries
    q: LambdaSeries
    beta: LambdaSeries
    gamma: LambdaSeries
    r: Mat2
    depth: int


def build_resolvent(depth: int) -> ResolventBundle:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    alpha = alpha_series(depth)
    p = p_series(depth)
    q = q_series(depth)
    beta = q - p
    gamma = q + p
    one = LambdaSeries._raw({0: EPS_ONE}, INF)
    r = Mat2(one + alpha, beta, gamma, -alpha)
    return ResolventBundle(alpha, p, q, beta, gamma, r, depth)


@lru_cache(maxsize=64)
def resolvent_bundle(depth: int) -> ResolventBundle:
    return build_resolvent(depth)


def entry_table(depth: int):
    """dict lam-exponent -> (a, b, c, d) coefficient tuple for 0 >= e >= -depth.

    Every exponent in range appears, with EPS_ZERO placeholders, so hot loops
    can index without get() fallbacks.
    """
    bun = resolvent_bundle(depth)
    out = {}
    for e in range(0, -depth - 1, -1):
        out[e] = (
            bun.r.a.coeffs.get(e, EPS_ZERO),
            bun.r.b.coeffs.get(e, EPS_ZERO),
            bun.r.c.coeffs.get(e, EPS_ZERO),
            bun.r.d.coeffs.get(e, EPS_ZERO),
        )
    return out


def _el(terms) -> EpsLaurent:
    return EpsLaurent({e: Rat(p, q) for e, (p, q) in terms.items()})


# First five lam-coefficient matrices of R, frozen as ground truth for the
# tests and the acceptance gate. Layout per exponent: ((a, b), (c, d)).
PRINTED_HEAD = {
    0: ((_el({0: (1, 1)}), EPS_ZERO), (EPS_ZERO, EPS_ZERO)),
    -1: ((EPS_ZERO, _el({0: (-1, 1)})), (_el({0: (1, 1)}), EPS_ZERO)),
    -2: (
        (_el({0: (1, 1)}), _el({1: (-1, 2)})),
        (_el({1: (-1, 2)}), _el({0: (-1, 1)})),
    ),
    -3: (
        (EPS_ZERO, _el({2: (-1, 4), 0: (-2, 1)})),
        (_el({2: (1, 4), 0: (2, 1)}), EPS_ZERO),
    ),
    -4: (
        (_el({2: (1, 4), 0: (3, 1)}), _el({3: (-1, 8), 1: (-3, 1)})),
        (_el({3: (-1, 8), 1: (-3, 1)}), _el({2: (-1, 4), 0: (-3, 1)})),
    ),
}


def check_head(entries_by_exp) -> None:
    """Compare lam^0..lam^-4 matrix coefficients against PRINTED_HEAD.

    entries_by_exp: mapping exponent -> (a, b, c, d). Raises
    IdentityViolation on the first mismatch.
    """
    for e, ((ha, hb), (hc, hd)) in PRINTED_HEAD.items():
        got = entries_by_exp.get(e)
        if got is None:
            raise IdentityViolation(f"missing lam^{e} coefficient matrix")
        for name, have, want in zip("abcd", got, (ha, hb, hc, hd)):
            if have != want:
                raise IdentityViolation(
                    f"resolvent head mismatch at lam^{e} entry {name}: "
                    f"{have!r} != {want!r}"
                )
