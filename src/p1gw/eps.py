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

Graded form. The commutator recursion packs by parity: each of its
polynomials has eps exponents of a single parity p, known from where the
polynomial sits (p1gw.recursion states the rule), so it is evaluated at
eps = 2**h with an even block width B = 2h >= pack_width(bound)
(graded_width). An even polynomial sum_t c_2t eps^2t packs to
pack([c_0, c_2, ...], B), an odd one to pack([c_1, c_3, ...], B) << h
(graded_pack, which refuses a polynomial with a term of the other
parity). This is still evaluation at a power of two, so the same ring-map
argument holds and products need no change; each int has one B-bit block
per exponent of its parity, about half the plain form's length.

  * Unpack: an odd int is exactly 2**h times the plain packing of
    [c_1, c_3, ...] at B, so graded_unpack shifts it right by h and unpacks
    at B; an even int is the plain packing of [c_0, c_2, ...]. Both are
    exact under the width condition above, which bounds the same
    coefficients, and graded_repack and graded_from_packed go through the
    same reads.
  * Trim: the exponents of parity p kept under a cap are the blocks
    t <= (cap - p) // 2, so graded_trim is packed_trim at that block cap,
    applied to the int shifted right by h when p = 1 and shifted back.
  * The parity is an argument, taken from the polynomial's position: it
    cannot be read off the int, whose low h bits are zero for an odd
    polynomial but may also be zero for an even one.

The cycle DP (p1gw.correlators: two_point and n_point) keeps the plain
form on purpose. It serves no hot path, since correlator() runs on the
completed-cycle pass or the recursion, and it is the independent route
that their values are tested against, so it shares none of the graded
bookkeeping it would be checking.
"""

from math import gcd, lcm

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


def graded_width(bound: int) -> int:
    """Even packing width B >= pack_width(bound), so that eps = 2**(B // 2)."""
    width = pack_width(bound)
    return width + width % 2


def graded_pack(coeffs, width: int, parity: int) -> int:
    """A polynomial with exponents of one parity, evaluated at eps = 2**(width // 2).

    coeffs is indexed by eps exponent; a nonzero entry of the other parity
    raises MalformedValue.
    """
    if any(coeffs[1 - parity :: 2]):
        raise MalformedValue(f"eps-polynomial {list(coeffs)} has a term of parity {1 - parity}")
    x = pack(coeffs[parity::2], width)
    return x << (width // 2) if parity else x


def graded_unpack(x: int, width: int, parity: int) -> list:
    """Signed coefficients of a graded packed polynomial, indexed by eps exponent.

    Exact under unpack's condition; the entries of the other parity are zero.
    """
    coeffs = unpack(x >> (width // 2) if parity else x, width)
    out = [0] * (2 * len(coeffs) - 1 + parity) if coeffs else []
    out[parity::2] = coeffs
    return out


def graded_repack(x: int, old: int, new: int, parity: int) -> int:
    """A graded polynomial packed at width old, packed at width new instead."""
    if parity:
        return repack(x >> (old // 2), old, new) << (new // 2)
    return repack(x, old, new)


def graded_trim(width: int, cap: int, parity: int):
    """Function dropping eps exponents above cap from a graded packed polynomial."""
    if cap < parity:
        return lambda x: 0
    trim = packed_trim(width, (cap - parity) // 2)
    if not parity:
        return trim
    h = width // 2
    return lambda x: trim(x >> h) << h


def graded_from_packed(x: int, width: int, parity: int, denom, shift: int = 0) -> EpsLaurent:
    """eps**shift / denom times the graded polynomial packed in x at width."""
    coeffs = graded_unpack(x, width, parity)
    return EpsLaurent._raw({e + shift: Rat(c, denom) for e, c in enumerate(coeffs) if c})
