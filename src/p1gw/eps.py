"""Laurent polynomials in the genus-tracking variable eps.

Correlator values in this package are finite Laurent polynomials in eps with
exact rational coefficients; the eps exponent 2g-2 labels the genus g part.
EpsLaurent stores only nonzero terms in a dict keyed by exponent.

Also provides s_power, truncated powers of the even power series

    S = sum_{m>=0} eps^(2m) / (4^m (2m+1)!),

including negative powers, which the one-point evaluator needs for its
degree-zero layer.

Packed form. The cycle DP and the commutator recursion both run on exact
integers: each sums products of a fixed number F of eps-polynomials drawn
from one table of polynomials with exponents >= 0 (F is stated by each
engine), so the table is scaled once and every polynomial becomes one int.

  * Scale: scaled_rows multiplies the table by L, the lcm of its
    denominators (over the terms kept under an optional eps cap); a sum of
    products of F scaled entries is L**F times the true sum and integral.
  * Pack: pack stores an integer eps-polynomial as the single int
    sum_e c_e * 2**(B*e) (Kronecker substitution, eps = 2**B; Harvey,
    arXiv:0712.4046). Evaluation at 2**B is a ring map Z[eps] -> Z, so the
    engines run their unchanged bodies on plain ints, and a packed result
    is the true integer polynomial evaluated at 2**B. Dropping exponents
    above a cap (packed_trim) keeps the low (cap + 1) * B bits, read as
    signed.
  * Unpack: unpack reads the coefficients back B bits at a time with signed
    borrow; from_packed then divides by the scale to give the EpsLaurent.
  * Width: unpacking, trimming and repack are exact when every coefficient
    has absolute value below 2**(B-1). Each engine runs its own body once
    more over the l1 norms of the scaled entries (their absolute values at
    eps = 1) with every sign dropped. That pass sums the norms of all
    terms, the norm of a product is at most the product of the norms, and
    an eps cap only lowers a norm, so its result bounds every output
    coefficient, and pack_width(bound) = bound.bit_length() + 2 is safe.
"""

from math import lcm

from .errors import MalformedValue
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
            return NotImplemented
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


def _conv_trunc(a, b, m_top):
    """Truncated convolution of coefficient lists (index = eps^(2m))."""
    out = [ZERO] * (m_top + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        lim = m_top - i
        for j in range(min(lim, len(b) - 1) + 1):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def s_power(p: int, order: int) -> EpsLaurent:
    """S**p truncated to eps order `order` (inclusive), as an EpsLaurent.

    S is even, so only even exponents appear; `order` must be even and >= 0.
    Negative p goes through exact series inversion first (valid since the
    constant term of S is 1).
    """
    if order < 0 or order % 2:
        raise ValueError(f"truncation order must be even and >= 0, got {order}")
    m_top = order // 2
    base = [ONE / (4**m * factorial(2 * m + 1)) for m in range(m_top + 1)]
    if p < 0:
        inv = [ONE] + [ZERO] * m_top
        for m in range(1, m_top + 1):
            acc = ZERO
            for k in range(1, m + 1):
                acc = acc + base[k] * inv[m - k]
            inv[m] = -acc
        base = inv
        p = -p
    result = [ONE] + [ZERO] * m_top
    sq = base
    while p:
        if p & 1:
            result = _conv_trunc(result, sq, m_top)
        p >>= 1
        if p:
            sq = _conv_trunc(sq, sq, m_top)
    return EpsLaurent({2 * m: c for m, c in enumerate(result)})


def scaled_rows(polys, cap=None):
    """(L, rows) for a list of eps-polynomials with exponents >= 0.

    Exponents above cap (when given) are dropped first. L is the lcm of the
    kept coefficients' denominators; rows[i] holds the integer coefficients
    of L * polys[i], indexed by eps exponent, and is empty when nothing of
    polys[i] is kept.
    """
    kept = [{e: c for e, c in p.terms.items() if cap is None or e <= cap} for p in polys]
    scale = 1
    for terms in kept:
        for c in terms.values():
            scale = lcm(scale, int(c.denominator))
    rows = []
    for poly, terms in zip(polys, kept):
        if terms and min(terms) < 0:
            raise MalformedValue(f"{poly!r} is not a polynomial in eps")
        row = [0] * (max(terms) + 1 if terms else 0)
        for k, c in terms.items():
            row[k] = int(c.numerator) * (scale // int(c.denominator))
        rows.append(tuple(row))
    return scale, rows


def pack_width(bound: int) -> int:
    """Packing width B that keeps coefficients of absolute value <= bound exact."""
    return bound.bit_length() + 2


def pack(coeffs, width: int) -> int:
    """sum_e coeffs[e] * 2**(width*e): the polynomial evaluated at 2**width."""
    x = 0
    for c in reversed(coeffs):
        x = (x << width) + c
    return x


def unpack(x: int, width: int) -> list:
    """Signed coefficients of a packed polynomial, lowest first, up to the last nonzero.

    Exact when every coefficient has absolute value below 2**(width-1).
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << width
        out.append(c)
        x = (x - c) >> width
    return out


def repack(x: int, old: int, new: int) -> int:
    """A polynomial packed at width old, packed at width new instead."""
    return x if old == new else pack(unpack(x, old), new)


def packed_trim(width: int, cap: int):
    """Function dropping eps exponents above cap from a packed polynomial.

    The low (cap + 1) * width bits, read as a signed number, are exactly the
    kept part when its coefficients lie below 2**(width-1) in absolute value,
    whatever the size of the dropped ones.
    """
    bits = width * (cap + 1)
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)

    def trim(x):
        x &= mask
        return x - (1 << bits) if x >= half else x

    return trim


def from_packed(x: int, width: int, denom, shift: int = 0) -> EpsLaurent:
    """eps**shift / denom times the polynomial packed in x at width."""
    coeffs = unpack(x, width)
    return EpsLaurent._raw({e + shift: Rat(c, denom) for e, c in enumerate(coeffs) if c})
