"""The packed-integer form of eps-polynomials, for the engines that run on
exact integers: the cycle DP (p1gw.cycle) and the commutator recursion
(p1gw.recursion). Nothing on the served route below the cost rule reads
it, so it loads with them, on first use.

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

The cycle DP (p1gw.cycle: two_point and n_point) keeps the plain
form on purpose. It serves no hot path, since correlator() runs on the
completed-cycle pass or the recursion, and it is the independent route
that their values are tested against, so it shares none of the graded
bookkeeping it would be checking.
"""

from math import lcm

from .eps import EpsLaurent
from .errors import MalformedValue
from .rational import Rat


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
