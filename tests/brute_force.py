"""Brute-force product expansions, kept as test oracles.

Both build the literal multivariate products that the production engines
avoid, so they are slow and share no arithmetic with the routes they check:

  * n_point_product: the n-point correlator from the trace of the resolvent
    product for every cycle arrangement, multiplied by the expansion of
    every edge factor 1/(lam_x - lam_y), with no floor filtering. It runs
    over exact integers with its own scaling and packing (see below), not
    over the cycle DP's scaled table.
  * windowed_extract: the recursion's pair extraction as a windowed
    bivariate product of the lifted levels with 1/(lam1 - lam2)^2.
"""

from itertools import permutations
from math import comb, factorial, lcm

from p1gw.correlators import default_depth
from p1gw.eps import EpsLaurent
from p1gw.rational import Rat
from p1gw.recursion import rm_equal
from p1gw.resolvent import resolvent_bundle
from p1gw.series import INF, LambdaSeries, Mat2, MultiSeries, inv_diff_expand


def _edge(nvars, pair, jmax):
    """1/(lam_x - lam_y) with jmax + 1 terms and integer coefficients.

    The smaller slot is the large variable: for x < y the terms are
    lam_y^j lam_x^(-j-1); for x > y the same with the sign flipped.
    """
    x, y = pair
    sign = 1
    if x > y:
        x, y, sign = y, x, -1
    d = {}
    for j in range(jmax + 1):
        key = [0] * nvars
        key[x] = -j - 1
        key[y] = j
        d[tuple(key)] = sign
    depths = tuple(jmax + 1 if v == x else INF for v in range(nvars))
    return MultiSeries._raw(nvars, d, depths, None)


def _balanced_digits(x, width):
    """Digits of x in base 2**width, each in [-2**(width-1), 2**(width-1))."""
    half = 1 << (width - 1)
    out = []
    while x:
        c = ((x + half) % (1 << width)) - half
        out.append(c)
        x = (x - c) // (1 << width)
    return out


def n_point_product(ks, depth=None, jmax=None) -> EpsLaurent:
    """Correlator <tau_k1 ... tau_kn> from explicit cycle products.

    The resolvent entries are scaled by L, the lcm of their denominators,
    and each integer eps-polynomial is evaluated at eps = 2**width. Every
    term of the sum is a product of n resolvent coefficients (each of l1
    norm at most the matrix's total mass M) and n edge coefficients of
    absolute value 1, and each edge has jmax + 1 terms, so every output
    coefficient is below (n-1)! * (M * (jmax + 1))**n; width leaves two
    bits above that.
    """
    ks = tuple(ks)
    n = len(ks)
    if depth is None:
        depth = default_depth(ks)
    if jmax is None:
        jmax = sum(ks) + max(ks) + n + 4
    r = resolvent_bundle(depth).r
    entries = (r.a, r.b, r.c, r.d)
    scale = 1
    for s in entries:
        for poly in s.coeffs.values():
            for c in poly.terms.values():
                scale = lcm(scale, c.denominator)
    mass = sum(
        int(abs(c) * scale) for s in entries for poly in s.coeffs.values() for c in poly.terms.values()
    )
    width = (factorial(n - 1) * (mass * (jmax + 1)) ** n).bit_length() + 2

    def packed(poly):
        return sum(int(c * scale) << (width * e) for e, c in poly.terms.items())

    ints = [LambdaSeries._raw({e: packed(p) for e, p in s.coeffs.items()}, s.depth) for s in entries]
    lifts = [Mat2(*(MultiSeries.from_lambda(s, n, v) for s in ints)) for v in range(n)]
    targets = tuple(-k - 2 for k in ks)
    t_total = sum(targets)
    edges = {}
    total = 0
    for perm in permutations(range(n - 1)):
        order = perm + (n - 1,)
        mat = lifts[order[0]]
        for v in order[1:]:
            mat = mat * lifts[v]
        cur = mat.trace()
        for c in range(n):
            pair = (order[c], order[(c + 1) % n])
            if pair not in edges:
                edges[pair] = _edge(n, pair, jmax)
            # every edge term has total exponent exactly -1, so after this
            # step only keys at t_total + (edges still to come) can matter
            band = t_total + (n - 1 - c)
            cur = cur.mul(edges[pair], window=(band, band), keep_all=True)
        total += cur.coeffs.get(targets, 0)
    denom = scale**n
    for k in ks:
        denom *= factorial(k + 1)
    digits = _balanced_digits(total, width)
    return EpsLaurent({e - n: Rat(-c, denom) for e, c in enumerate(digits) if c})


def _windowed_trace(left: Mat2, right: Mat2, band: int) -> MultiSeries:
    w = (band, band)
    return (
        left.a.mul(right.a, window=w)
        + left.b.mul(right.c, window=w)
        + left.c.mul(right.b, window=w)
        + left.d.mul(right.d, window=w)
    )


def _lift(mat: Mat2, var: int) -> Mat2:
    return mat.map_entries(lambda s: MultiSeries.from_lambda(s, 2, var))


def windowed_extract(b, m, i, j, depth, cap=None) -> EpsLaurent:
    """extract_bij(b, m, i, j) at a fixed depth through the bivariate product.

    Raises DepthExceeded where the windowed product's validity floors do not
    reach the target coefficient, which can happen at depths where the
    direct sum still succeeds.
    """
    hi, lo = (i, j) if i >= j else (j, i)
    mats = [rm_equal(b, t, depth, cap) for t in range(m + 1)]
    lifts0 = [_lift(mat, 0) for mat in mats]
    lifts1 = [_lift(mat, 1) for mat in mats]
    band = -(hi + lo + 2)
    total = None
    for t in range(m + 1):
        term = _windowed_trace(lifts0[t], lifts1[m - t], band)
        w = comb(m, t)
        if w != 1:
            term = term * w
        total = term if total is None else total + term
    # the m = 0 subtraction of 1/(lam1 - lam2)^2 never reaches the target
    # diagonal: its keys keep a non-negative exponent in the second slot
    inv = inv_diff_expand(2, (0, 1), 2, jmax=total.deg_plus(0) + hi + 2)
    t_total = -(hi + lo + 4)
    prod = total.mul(inv, window=(t_total, t_total))
    raw = prod.coeff((-hi - 2, -lo - 2))
    scale = factorial(i + 1) * factorial(j + 1) * factorial(b + 1) ** m
    return raw.shift(-(m + 2)) / scale
