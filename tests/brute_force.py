"""Brute-force product expansions, kept as test oracles.

They build the literal multivariate products that the production engines
avoid, so they are slow and share no arithmetic with the routes they check:

  * n_point_product: the n-point correlator from the trace of the resolvent
    product for every cycle arrangement, multiplied by the expansion of
    every edge factor 1/(lam_x - lam_y), with no floor filtering. It runs
    over exact integers with its own scaling and packing (see below), not
    over the cycle DP's scaled table.
  * two_point_product: the two-point correlator from the trace of two
    lifted resolvent copies minus one, times 1/(lam_1 - lam_2)^2, inside a
    narrow total-degree window, over rationals.
  * windowed_extract: the recursion's pair extraction as a windowed
    bivariate product of the lifted levels with 1/(lam1 - lam2)^2.

MultiSeries and inv_diff_expand are the multivariate ring they share.
"""

from itertools import permutations
from math import comb, factorial, lcm

from p1gw.correlators import default_depth
from p1gw.eps import EPS_ONE, EPS_ZERO, EpsLaurent
from p1gw.errors import DepthExceeded, MalformedValue
from p1gw.rational import Rat, binomial
from p1gw.recursion import rm_equal
from p1gw.resolvent import resolvent_bundle
from p1gw.series import INF, LambdaSeries, Mat2

MAX_VARS = 8


class MultiSeries:
    """Sparse Laurent data in up to MAX_VARS spectral variables.

    coeffs: dict mapping exponent tuples to EpsLaurent.
    depths: per-variable validity floor (coefficient at key k is trusted
        only when k[v] >= -depths[v] for every v).
    window: optional (lo, hi) band of total exponent sum(k); outside it
        coefficients were deliberately dropped and are unknown.
    """

    __slots__ = ("nvars", "coeffs", "depths", "window")

    def __init__(self, nvars, coeffs=None, depths=None, window=None):
        if not 1 <= nvars <= MAX_VARS:
            raise MalformedValue(f"nvars must be in 1..{MAX_VARS}, got {nvars}")
        if depths is None:
            depths = (INF,) * nvars
        depths = tuple(depths)
        if len(depths) != nvars:
            raise MalformedValue("depths length mismatch")
        d = {}
        if coeffs:
            for key, c in coeffs.items():
                key = tuple(int(e) for e in key)
                if len(key) != nvars:
                    raise MalformedValue("exponent key length mismatch")
                if not c:
                    continue
                if any(key[v] < -depths[v] for v in range(nvars)):
                    continue
                if window is not None:
                    t = sum(key)
                    if t < window[0] or t > window[1]:
                        continue
                d[key] = c
        self.nvars = nvars
        self.coeffs = d
        self.depths = depths
        self.window = window

    @classmethod
    def _raw(cls, nvars, d, depths, window):
        self = object.__new__(cls)
        self.nvars = nvars
        self.coeffs = d
        self.depths = depths
        self.window = window
        return self

    @classmethod
    def unit(cls, nvars):
        return cls._raw(nvars, {(0,) * nvars: EPS_ONE}, (INF,) * nvars, None)

    @classmethod
    def from_lambda(cls, ls: LambdaSeries, nvars: int, var: int) -> "MultiSeries":
        """Lift a single-variable series into variable slot `var`."""
        if not 0 <= var < nvars:
            raise MalformedValue(f"variable slot {var} outside 0..{nvars - 1}")
        d = {}
        for e, c in ls.coeffs.items():
            key = [0] * nvars
            key[var] = e
            d[tuple(key)] = c
        depths = tuple(ls.depth if v == var else INF for v in range(nvars))
        return cls._raw(nvars, d, depths, None)

    def coeff(self, key) -> EpsLaurent:
        key = tuple(key)
        for v in range(self.nvars):
            if key[v] < -self.depths[v]:
                raise DepthExceeded(key[v], self.depths[v], f"variable {v}")
        if self.window is not None:
            t = sum(key)
            if t < self.window[0] or t > self.window[1]:
                raise DepthExceeded(
                    t, -self.window[0], f"total window {self.window}"
                )
        return self.coeffs.get(key, EPS_ZERO)

    def deg_plus(self, v: int) -> int:
        m = 0
        for key in self.coeffs:
            if key[v] > m:
                m = key[v]
        return m

    def min_total(self):
        return min((sum(k) for k in self.coeffs), default=INF)

    def max_total(self):
        return max((sum(k) for k in self.coeffs), default=-INF)

    def _merge_window(self, other, requested):
        lo, hi = -INF, INF
        if self.window is not None:
            lo = max(lo, self.window[0] + other.max_total())
            hi = min(hi, self.window[1] + other.min_total())
        if other.window is not None:
            lo = max(lo, other.window[0] + self.max_total())
            hi = min(hi, other.window[1] + self.min_total())
        if requested is not None:
            lo = max(lo, requested[0])
            hi = min(hi, requested[1])
        if lo == -INF and hi == INF:
            return None
        return (lo, hi)

    def mul(self, other: "MultiSeries", window=None, keep_all=False) -> "MultiSeries":
        """Product. keep_all skips the validity-floor filtering of result keys
        (a requested window still applies); callers using it must justify
        exactness themselves, the floor metadata is still propagated."""
        if not isinstance(other, MultiSeries) or other.nvars != self.nvars:
            raise MalformedValue("operand mismatch in multiseries product")
        n = self.nvars
        depths = tuple(
            min(self.depths[v] - other.deg_plus(v), other.depths[v] - self.deg_plus(v))
            for v in range(n)
        )
        win = self._merge_window(other, window)
        d = {}
        floors = tuple(-depths[v] for v in range(n))
        lo, hi = (win if win is not None else (-INF, INF))
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(k1[v] + k2[v] for v in range(n))
                t = sum(key)
                if t < lo or t > hi:
                    continue
                if not keep_all and any(key[v] < floors[v] for v in range(n)):
                    continue
                p = c1 * c2
                if not p:
                    continue
                s = d.get(key)
                if s is None:
                    d[key] = p
                else:
                    s = s + p
                    if not s:
                        del d[key]
                    else:
                        d[key] = s
        return MultiSeries._raw(n, d, depths, win)

    def __mul__(self, other):
        if isinstance(other, MultiSeries):
            return self.mul(other)
        if isinstance(other, (EpsLaurent, int, Rat)):
            if not other:
                return MultiSeries._raw(self.nvars, {}, self.depths, self.window)
            d = {}
            for key, c in self.coeffs.items():
                p = c * other
                if p:
                    d[key] = p
            return MultiSeries._raw(self.nvars, d, self.depths, self.window)
        return NotImplemented

    __rmul__ = __mul__

    def _combine(self, other, negate):
        n = self.nvars
        depths = tuple(min(self.depths[v], other.depths[v]) for v in range(n))
        if self.window is None:
            win = other.window
        elif other.window is None:
            win = self.window
        else:
            win = (
                max(self.window[0], other.window[0]),
                min(self.window[1], other.window[1]),
            )
        floors = tuple(-depths[v] for v in range(n))
        lo, hi = (win if win is not None else (-INF, INF))

        def keep(key):
            t = 0
            for v in range(n):
                if key[v] < floors[v]:
                    return False
                t += key[v]
            return lo <= t <= hi

        d = {k: c for k, c in self.coeffs.items() if keep(k)}
        for key, c in other.coeffs.items():
            if not keep(key):
                continue
            if negate:
                c = -c
            s = d.get(key)
            if s is None:
                d[key] = c
            else:
                s = s + c
                if not s:
                    del d[key]
                else:
                    d[key] = s
        return MultiSeries._raw(n, d, depths, win)

    def __add__(self, other):
        if not isinstance(other, MultiSeries) or other.nvars != self.nvars:
            return NotImplemented
        return self._combine(other, False)

    def __sub__(self, other):
        if not isinstance(other, MultiSeries) or other.nvars != self.nvars:
            return NotImplemented
        return self._combine(other, True)

    def __neg__(self):
        return MultiSeries._raw(
            self.nvars,
            {k: -c for k, c in self.coeffs.items()},
            self.depths,
            self.window,
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return (
            f"MultiSeries(nvars={self.nvars}, {len(self.coeffs)} keys, "
            f"depths={self.depths}, window={self.window})"
        )


def inv_diff_expand(nvars: int, pair, power: int, jmax: int) -> MultiSeries:
    """Expansion of 1/(lam_x - lam_y)**power keeping jmax+1 leading terms.

    The variable with the smaller slot index is treated as the large one,
    so for x < y:

        sum_{j=0..jmax} C(j+power-1, power-1) lam_y^j lam_x^(-j-power)

    and for x > y the same with roles swapped and an overall (-1)**power.
    The large variable's floor is jmax+power (deeper terms were dropped);
    the small variable's exponents are complete, floor INF: its high powers
    beyond jmax only pair with dropped deep terms of the large variable, and
    the product floor rule screens those out.
    """
    x, y = pair
    if x == y:
        raise MalformedValue("inv_diff_expand needs two distinct variables")
    if power < 1 or jmax < 0:
        raise MalformedValue("inv_diff_expand needs power >= 1 and jmax >= 0")
    sign = 1
    if x > y:
        x, y = y, x
        sign = (-1) ** power
    d = {}
    for j in range(jmax + 1):
        c = Rat(sign * binomial(j + power - 1, power - 1))
        key = [0] * nvars
        key[x] = -j - power
        key[y] = j
        d[tuple(key)] = EpsLaurent._raw({0: c})
    depths = tuple(jmax + power if v == x else INF for v in range(nvars))
    return MultiSeries._raw(nvars, d, depths, None)


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


def two_point_product(k1, k2, depth=None) -> EpsLaurent:
    """<tau_k1 tau_k2> from (tr(R(lam1) R(lam2)) - 1) / (lam1 - lam2)^2.

    Raises DepthExceeded where the product's validity floors do not reach
    the target coefficient.
    """
    if depth is None:
        depth = default_depth((k1, k2))
    r = resolvent_bundle(depth).r
    tr = (_lift(r, 0) * _lift(r, 1)).trace() - MultiSeries.unit(2)
    inv = inv_diff_expand(2, (0, 1), 2, jmax=k1 + 1)
    t_total = -(k1 + k2 + 4)
    prod = tr.mul(inv, window=(t_total, t_total + max(k1, k2) + 4))
    raw = prod.coeff((-k1 - 2, -k2 - 2))
    return raw.shift(-2) / (factorial(k1 + 1) * factorial(k2 + 1))
