"""Truncated Laurent series in one spectral variable, and 2x2 matrices.

LambdaSeries is a Laurent series in a single variable lam, stored as a sparse
dict from integer exponent to EpsLaurent coefficient, together with a depth:
coefficients at exponents >= -depth are exact, anything lower is unknown and
asking for it raises DepthExceeded. depth may be INF for exactly-known
objects such as polynomials.

All products propagate validity conservatively: when A is only known down to
exponent -N_A, terms of B at positive exponents can pull unknown territory
of A up into view, so the product is only trusted down to

    -min(N_A - degplus(B), N_B - degplus(A))

where degplus is the largest positive stored exponent (or 0).
"""

from .errors import DepthExceeded
from .eps import EpsLaurent, EPS_ZERO
from .rational import Rat

INF = float("inf")


class LambdaSeries:
    __slots__ = ("coeffs", "depth")

    def __init__(self, coeffs=None, depth=INF):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c and e >= -depth:
                    d[int(e)] = c
        self.coeffs = d
        self.depth = depth

    @classmethod
    def _raw(cls, d, depth):
        self = object.__new__(cls)
        self.coeffs = d
        self.depth = depth
        return self

    @classmethod
    def from_eps(cls, c, depth=INF):
        if not c:
            return cls._raw({}, depth)
        return cls._raw({0: c}, depth)

    def coeff(self, e: int) -> EpsLaurent:
        if e < -self.depth:
            raise DepthExceeded(e, self.depth, "lambda series")
        return self.coeffs.get(e, EPS_ZERO)

    def deg_plus(self) -> int:
        """Largest positive stored exponent, or 0."""
        if not self.coeffs:
            return 0
        m = max(self.coeffs)
        return m if m > 0 else 0

    def lam_shift(self, k: int) -> "LambdaSeries":
        """Multiply by lam**k."""
        if not k:
            return self
        return LambdaSeries._raw(
            {e + k: c for e, c in self.coeffs.items()}, self.depth - k
        )

    def plus_part(self) -> "LambdaSeries":
        """Polynomial part (exponents >= 0); exact, so depth becomes INF."""
        if self.depth < 0:
            raise DepthExceeded(0, self.depth, "plus part")
        return LambdaSeries._raw({e: c for e, c in self.coeffs.items() if e >= 0}, INF)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, LambdaSeries):
            return self.coeffs == other.coeffs and self.depth == other.depth
        return NotImplemented

    def __neg__(self):
        return LambdaSeries._raw({e: -c for e, c in self.coeffs.items()}, self.depth)

    def __add__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        nd = min(self.depth, other.depth)
        d = {e: c for e, c in self.coeffs.items() if e >= -nd}
        for e, c in other.coeffs.items():
            if e < -nd:
                continue
            s = d.get(e)
            if s is None:
                d[e] = c
            else:
                s = s + c
                if s:
                    d[e] = s
                else:
                    del d[e]
        return LambdaSeries._raw(d, nd)

    def __sub__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, LambdaSeries):
            nd = min(self.depth - other.deg_plus(), other.depth - self.deg_plus())
            floor = -nd
            d = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    if e < floor:
                        continue
                    p = c1 * c2
                    if not p:
                        continue
                    s = d.get(e)
                    if s is None:
                        d[e] = p
                    else:
                        s = s + p
                        if not s:
                            del d[e]
                        else:
                            d[e] = s
            return LambdaSeries._raw(d, nd)
        if isinstance(other, (EpsLaurent, int, Rat)):
            if not other:
                return LambdaSeries._raw({}, self.depth)
            d = {}
            for e, c in self.coeffs.items():
                p = c * other
                if p:
                    d[e] = p
            return LambdaSeries._raw(d, self.depth)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        n = len(self.coeffs)
        lo = min(self.coeffs) if self.coeffs else None
        hi = max(self.coeffs) if self.coeffs else None
        return f"LambdaSeries({n} terms, exps [{lo}..{hi}], depth={self.depth})"


class Mat2:
    """2x2 matrix over any ring with +, -, *, unary -.

    Entries: a=(1,1), b=(1,2), c=(2,1), d=(2,2).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __eq__(self, other):
        if isinstance(other, Mat2):
            return (
                self.a == other.a
                and self.b == other.b
                and self.c == other.c
                and self.d == other.d
            )
        return NotImplemented

    def __add__(self, other):
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        return Mat2(self.a * other, self.b * other, self.c * other, self.d * other)

    def trace(self):
        return self.a + self.d

    def commutator(self, other):
        return self * other - other * self

    def map_entries(self, fn):
        return Mat2(fn(self.a), fn(self.b), fn(self.c), fn(self.d))

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
