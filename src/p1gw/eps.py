"""Laurent polynomials in the genus-tracking variable eps.

Correlator values in this package are finite Laurent polynomials in eps with
exact rational coefficients; the eps exponent 2g-2 labels the genus g part.
EpsLaurent stores only nonzero terms in a dict keyed by exponent.

The packed-integer form that the cycle DP and the commutator recursion run
on is in p1gw.packed, which loads with them, on first use.
"""

from .rational import Rat, ZERO, ONE


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
