"""Laurent polynomials in the genus-tracking variable eps.

Correlator values in this package are finite Laurent polynomials in eps with
exact rational coefficients; the eps exponent 2g-2 labels the genus g part.
EpsLaurent stores only nonzero terms in a dict keyed by exponent.

Also provides s_power, truncated powers of the even power series

    S = sum_{m>=0} f_m x^m,  f_m = 1 / (4^m (2m+1)!),  x = eps^2,

including negative powers, which the one-point evaluator needs for its
degree-zero layer.

S-power table. h_n(p) = [x^n] S**p is read off J.C.P. Miller's power
recurrence

    h_0 = 1,  n h_n = sum_{j=1..n} ((p + 1) j - n) f_j h_{n-j},

run once over Q[p]; by induction each h_n is a polynomial in p of degree
n. The recurrence is the x^(n-1) coefficient of S (S**p)' = p S' S**p,
which characterises S**p among series with constant term 1; it needs
only f_0 = 1, never divides by p, and holds for every rational p, so a
negative p needs no series inversion, and evaluation at any integer p is
the exact truncated power. The module keeps one table, entry n the pair
(D, c) with h_n(p) = sum_i c_i p**i / D in lowest terms, so evaluation is
integer Horner and one rational. s_power(p, order) and s_power_coeff read
it; one_point(k) reads it at p = k + 1 - 2g for each genus g. The table
starts with h_0 alone, so import does no work; it grows to the largest
order asked for and is never trimmed (entries 0..n hold O(n^2) integers of
O(n log n) bits: about 46 kB for one_point(80), which reads n <= 41), and
it is rebound whole when it grows, so a reader never sees it half built.

The packed-integer form that the cycle DP and the commutator recursion run
on is in p1gw.packed, which loads with them, on first use.
"""

from math import gcd, lcm

from .rational import Rat, ZERO, ONE, factorial


class EpsLaurent:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for e, c in terms.items():
                c = Rat(c)
                if c:
                    d[int(e)] = c
        self.terms = d

    @classmethod
    def _raw(cls, d):
        # internal: d must already be {int: nonzero Rat}
        self = object.__new__(cls)
        self.terms = d
        return self

    @classmethod
    def const(cls, c):
        c = Rat(c)
        return cls._raw({0: c}) if c else EPS_ZERO

    @classmethod
    def monomial(cls, c, e):
        c = Rat(c)
        return cls._raw({int(e): c}) if c else EPS_ZERO

    def coeff(self, e: int):
        return self.terms.get(e, ZERO)

    def shift(self, k: int) -> "EpsLaurent":
        """Multiply by eps^k."""
        if not k or not self.terms:
            return self
        return EpsLaurent._raw({e + k: c for e, c in self.terms.items()})

    def min_exp(self):
        return min(self.terms) if self.terms else None

    def max_exp(self):
        return max(self.terms) if self.terms else None

    def is_even(self) -> bool:
        return all(e % 2 == 0 for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, EpsLaurent):
            return self.terms == other.terms
        return NotImplemented

    def __neg__(self):
        if not self.terms:
            return self
        return EpsLaurent._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, EpsLaurent):
            # a scalar is a constant, as in __mul__
            if not isinstance(other, (int, Rat)):
                return NotImplemented
            other = EpsLaurent.const(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e)
            if s is None:
                d[e] = c
            else:
                s = s + c
                if s:
                    d[e] = s
                else:
                    del d[e]
        return EpsLaurent._raw(d)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, EpsLaurent):
            return NotImplemented
        if not other.terms:
            return self
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e)
            if s is None:
                d[e] = -c
            else:
                s = s - c
                if s:
                    d[e] = s
                else:
                    del d[e]
        return EpsLaurent._raw(d)

    def __mul__(self, other):
        if isinstance(other, EpsLaurent):
            if not self.terms or not other.terms:
                return EPS_ZERO
            d = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    p = c1 * c2
                    s = d.get(e)
                    if s is None:
                        d[e] = p
                    else:
                        s = s + p
                        if not s:
                            del d[e]
                        else:
                            d[e] = s
            return EpsLaurent._raw(d)
        if isinstance(other, (int, Rat)):
            if not other or not self.terms:
                return EPS_ZERO
            return EpsLaurent._raw({e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Rat)):
            if not other:
                raise ZeroDivisionError("division of eps-polynomial by zero")
            q = Rat(1, 1) / other if isinstance(other, int) else ONE / other
            return self * q
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "EpsLaurent(0)"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"({c})*eps")
            else:
                bits.append(f"({c})*eps^{e}")
        return "EpsLaurent(" + " + ".join(bits) + ")"


EPS_ZERO = EpsLaurent._raw({})
EPS_ONE = EpsLaurent._raw({0: ONE})


# _S_POWERS[n] = (D, c): [x^n] S**p = sum_i c[i] p**i / D, with x = eps**2;
# grown by _s_power_table, never shrunk
_S_POWERS = ((1, (1,)),)


def _s_power_table(n_top: int) -> tuple:
    """The [x^n] S**p table for n <= n_top at least, extended by Miller's
    recurrence n h_n = sum_{j=1..n} ((p + 1) j - n) f_j h_{n-j} over Q[p]."""
    global _S_POWERS
    table = _S_POWERS
    if len(table) > n_top:
        return table
    table = list(table)
    # f_j = 1 / F[j - 1]
    F = [4**j * factorial(2 * j + 1) for j in range(1, n_top + 1)]
    for n in range(len(table), n_top + 1):
        denom = 1
        for j in range(1, n + 1):
            denom = lcm(denom, n * F[j - 1] * table[n - j][0])
        num = [0] * (n + 1)
        for j in range(1, n + 1):
            d, c = table[n - j]
            s = denom // (n * F[j - 1] * d)
            # times (p + 1) j - n = j p + (j - n)
            for i, ci in enumerate(c):
                num[i + 1] += s * j * ci
                num[i] += s * (j - n) * ci
        g = gcd(denom, *num)
        table.append((denom // g, tuple(x // g for x in num)))
    # rebound whole, so a reader never sees a half-built table
    _S_POWERS = table = tuple(table)
    return table


def s_power_coeff(p: int, m: int):
    """[eps^(2m)] S**p, for any integer p and m >= 0."""
    d, c = _s_power_table(m)[m]
    v = 0
    for x in reversed(c):
        v = v * p + x
    return Rat(v, d)


def s_power(p: int, order: int) -> EpsLaurent:
    """S**p truncated to eps order `order` (inclusive), as an EpsLaurent.

    S is even, so only even exponents appear; `order` must be even and >= 0.
    Any integer p, negative included, is read off the shared coefficient
    table (module docstring).
    """
    if order < 0 or order % 2:
        raise ValueError(f"truncation order must be even and >= 0, got {order}")
    return EpsLaurent({2 * m: s_power_coeff(p, m) for m in range(order // 2 + 1)})
