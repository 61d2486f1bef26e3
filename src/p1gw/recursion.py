"""Commutator recursion over resolvent matrices and pairwise extraction.

The family is indexed by a finite list of positive insertion indices, each
carrying a positive weight b. The empty list gives the resolvent itself;
removing the first listed index k1 and splitting the remainder into an
ordered pair of disjoint sublists (I, J) gives

    R_K = sum over I | J of [(lam^{b(k1)+1} R_J)_+, R_I]

the commutator with the polynomial part of the weight-(b+1) shift acting as
the flow generator. The shift exponent b+1 and the bracket order are pinned
by cross-checks against the direct cycle-sum engine; with either one flipped
the double trace sum lands on the wrong parity diagonal and misses every
admissible slot (the joint eps/lambda parity grading of the resolvent makes
that failure structural, not a small error).

When every weight equals the same b the sum collapses to binomial
coefficients and it pays to memoize per level instead of per subset.

Extraction: the double trace sum

    sum_t C(m, t) tr[R_t(lam1) R_{m-t}(lam2)] / (lam1 - lam2)^2

carries, at the coefficient of lam1^(-i-2) lam2^(-j-2) with i, j >= 1, the
correlator with m weight-b insertions plus one tau_i and one tau_j, up to
the factorial and eps normalization stripped off in extract_bij. The m = 0
case also subtracts 1/(lam1 - lam2)^2; that term only touches slots with a
non-negative exponent in lam2, never a doubly-negative one, so it never
reaches the target. Expanding 1/(lam1 - lam2)^2 = sum_j (j+1) lam2^j
lam1^(-j-2) reads the target off as a one-variable sum, with hi >= lo the
two targets:

    sum_t C(m, t) sum_{j >= 0} (j + 1) tr(R_t[j - hi] R_{m-t}[-lo - 2 - j])

where R[e] is the lam^e coefficient matrix; levels carry no positive
powers, so j stops at hi. Reading a coefficient below its entry's depth
raises DepthExceeded.

Every eps exponent in sight is non-negative and the final normalization
divides by a fixed eps power, so dropping eps exponents above a cap chosen
from the target's genus range is exact. polygon_table exploits that; plain
r_family / rm_equal calls keep full coefficients.

Exact integer kernel. Both recursions and the extraction run on plain ints,
the same way as the cycle DP in correlators:

  * Scale: the base matrix (the resolvent at the given depth, eps-capped)
    is multiplied by L, the lcm of its denominators. Every term of the
    level of a key with k weights is a product of k + 1 base entries (the
    shift and the plus part never touch eps), so the level over the scaled
    base is exactly L**(k+1) times the true one, and the extraction sum at
    level m, with m + 2 factors, is L**(m+2) times the true sum.
  * Pack: each integer eps-polynomial is the single int sum_e c_e 2**(B*e)
    (Kronecker substitution, eps = 2**B), a ring map Z[eps] -> Z; the eps
    cap becomes keeping the low (cap + 1) * B bits, read as signed. The
    recursion body is the Mat2/LambdaSeries arithmetic itself over int
    coefficients, validity depths included, so every packed level has the
    keys and depths of the rational one (a level's coefficient is zero
    exactly when its packed int is), and the public rm_equal / r_family
    unpack to the same Mat2.
  * Width: unpacking is exact when every coefficient lies below 2**(B-1)
    in absolute value. The same body run over the l1 norms of the scaled
    entries, at depth INF so that no validity floor drops a key, and with
    the anticommutator in place of the commutator so that every sign is
    dropped, bounds the l1 norm of each signed entry at each key: the norm
    of a product is at most the product of the norms, and capping only
    lowers a norm. So B = bound.bit_length() + 2 over the largest norm
    entry is safe, and all levels of one recursion share it; a later,
    larger level whose bound needs more bits repacks the stored ones. The
    extraction bounds its own sum the same way and reads the level
    coefficients at that width if it is wider.

The same body also runs over the rational EpsLaurent base, which the tests
use as the reference. Both rational backends run the recursion on the same
ints, so the tables cost the same on both.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .correlators import _pack, _same, _scaled_rows, _unpack, n_point, one_point, two_point
from .eps import EpsLaurent
from .errors import (
    DepthExceeded,
    IndexOutOfRange,
    MalformedValue,
    UnstableExtraction,
)
from .rational import Rat, ZERO, binomial, factorial
from .resolvent import resolvent_bundle
from .series import INF, LambdaSeries, Mat2

MAX_KEY = 6
ESCALATE_STEP = 4
ESCALATE_TRIES = 3
MEMO_FAMILIES = 8


@dataclass(frozen=True)
class RecursionKey:
    """Ordered index set with one positive weight per index."""

    b_values: tuple
    indices: tuple

    def __post_init__(self):
        bs = tuple(int(b) for b in self.b_values)
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "b_values", bs)
        object.__setattr__(self, "indices", idx)
        if len(bs) != len(idx):
            raise MalformedValue("weights and indices must pair up")
        if len(idx) != len(set(idx)):
            raise MalformedValue("indices must be distinct")
        if any(i < 1 for i in idx):
            raise MalformedValue("indices must be positive")
        if any(b < 1 for b in bs):
            raise IndexOutOfRange("weights must be >= 1")
        if len(bs) > MAX_KEY:
            raise MalformedValue(f"at most {MAX_KEY} indices supported")


def _as_weights(key):
    if isinstance(key, RecursionKey):
        return key.b_values
    key = RecursionKey(tuple(key), tuple(range(1, len(tuple(key)) + 1)))
    return key.b_values


def _capped_eps(c: EpsLaurent, cap: int) -> EpsLaurent:
    top = c.max_exp()
    if top is None or top <= cap:
        return c
    return EpsLaurent._raw({e: v for e, v in c.terms.items() if e <= cap})


def _trimmed(mat: Mat2, trim) -> Mat2:
    """Apply trim to every coefficient, dropping the ones it zeroes."""
    return mat.map_entries(
        lambda s: LambdaSeries._raw({e: t for e, c in s.coeffs.items() if (t := trim(c))}, s.depth)
    )


def _mapped(mat: Mat2, fn) -> Mat2:
    return mat.map_entries(lambda s: LambdaSeries._raw({e: fn(c) for e, c in s.coeffs.items()}, s.depth))


def _base_matrix(depth: int, cap) -> Mat2:
    r = resolvent_bundle(depth).r
    if cap is None:
        return r
    return _trimmed(r, lambda c: _capped_eps(c, cap))


def _shift_plus(mat: Mat2, b: int) -> Mat2:
    return mat.map_entries(lambda s: s.lam_shift(b + 1).plus_part())


def _largest(mat: Mat2):
    return max((c for s in (mat.a, mat.b, mat.c, mat.d) for c in s.coeffs.values()), default=0)


def _anticommutator(x: Mat2, y: Mat2) -> Mat2:
    return x * y + y * x


def _run(key, spec, base, bracket, trim, memo) -> Mat2:
    """Matrix of `key`, from memo or computed by the recursion body.

    The body is plain Mat2/LambdaSeries arithmetic, so it runs unchanged on
    EpsLaurent, packed-int or norm-int coefficients. spec(key) is None for
    the base (then base() builds it), else (b, terms): the matrix is the
    sum of w * bracket((lam^(b+1) X_j)_+, X_i) over the (w, j, i) in terms,
    with trim (the eps cap, or None) applied to each coefficient. bracket
    is Mat2.commutator, or for the norm pass the anticommutator, whose
    terms are the commutator's with every sign dropped.
    """
    got = memo.get(key)
    if got is not None:
        return got
    s = spec(key)
    if s is None:
        got = base()
    else:
        b, terms = s
        for w, j, i in terms:
            shifted = _shift_plus(_run(j, spec, base, bracket, trim, memo), b)
            term = bracket(shifted, _run(i, spec, base, bracket, trim, memo))
            if w != 1:
                term = term * w
            got = term if got is None else got + term
        if trim is not None:
            got = _trimmed(got, trim)
    memo[key] = got
    return got


def _equal_spec(b):
    def spec(m):
        if m == 0:
            return None
        return b, [(binomial(m - 1, i), i, m - 1 - i) for i in range(m)]

    return spec


def _subset_spec(bs):
    if not bs:
        return None
    rest = bs[1:]
    r = len(rest)
    terms = []
    for mask in range(1 << r):
        left = tuple(rest[t] for t in range(r) if (mask >> t) & 1)
        right = tuple(rest[t] for t in range(r) if not (mask >> t) & 1)
        terms.append((1, right, left))
    return bs[0], terms


def _packed_trim(width, cap):
    """Drop eps exponents above cap from a packed polynomial.

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


class _Levels:
    """Levels of one recursion at one (depth, cap), as exact packed integers.

    The matrix of a key with k weights is kept as L**(k+1) times the true
    one (L from the scaled base), each eps-polynomial packed at eps =
    2**width. `norms` holds the norm pass of every key asked for so far,
    and `width` is derived from its largest entry, so all packed matrices
    share it.
    """

    def __init__(self, spec, depth, cap):
        self.spec = spec
        self.cap = cap
        mat = _base_matrix(depth, cap)
        entries = (mat.a, mat.b, mat.c, mat.d)
        self.scale, rows = _scaled_rows([c for s in entries for c in s.coeffs.values()])
        rows = iter(rows)
        # the base over integer coefficient rows, L times the true one
        self.rows = Mat2(*(LambdaSeries._raw({e: next(rows) for e in s.coeffs}, s.depth) for s in entries))
        self.norms = {}
        self.packed = {}
        self.width = 0

    def norm(self, key) -> Mat2:
        def base():
            # at depth INF no validity floor drops a key
            return self.rows.map_entries(
                lambda s: LambdaSeries._raw({e: sum(map(abs, row)) for e, row in s.coeffs.items()}, INF)
            )

        return _run(key, self.spec, base, _anticommutator, None, self.norms)

    def level(self, key) -> Mat2:
        """Packed matrix of key; repacks the stored ones if the width grows."""
        self.norm(key)
        width = max(map(_largest, self.norms.values())).bit_length() + 2
        if width > self.width:
            old = self.width
            self.packed = {
                k: _mapped(mat, lambda x: _pack(_unpack(x, old), width))
                for k, mat in self.packed.items()
            }
            self.width = width
        trim = None if self.cap is None else _packed_trim(width, self.cap)
        base = lambda: _mapped(self.rows, lambda row: _pack(row, width))  # noqa: E731
        return _run(key, self.spec, base, Mat2.commutator, trim, self.packed)

    def rational(self, mat: Mat2, k: int) -> Mat2:
        """The true matrix of a key with k weights, from its packed one."""
        denom = self.scale ** (k + 1)

        def poly(x):
            coeffs = _unpack(x, self.width)
            return EpsLaurent._raw({p: Rat(c, denom) for p, c in enumerate(coeffs) if c})

        return _mapped(mat, poly)


class _LRU(OrderedDict):
    """Mapping that keeps only its `maxsize` most recently used entries."""

    def __init__(self, maxsize):
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key, make):
        got = self.get(key)
        if got is None:
            got = self[key] = make()
            if len(self) > self.maxsize:
                self.popitem(last=False)
        else:
            self.move_to_end(key)
        return got


# one _Levels per recursion: equal weights by (b, depth, cap), keys m;
# arbitrary weight listings by (depth, cap), keys the weight tuples
_EQUAL_MEMO = _LRU(MEMO_FAMILIES)
_FAMILY_MEMO = _LRU(MEMO_FAMILIES)
# every caller shares the memos; the lock keeps one thread's repack from
# landing in the middle of another's computation at the old width
_LOCK = threading.Lock()


def _equal_levels(b, depth, cap) -> _Levels:
    return _EQUAL_MEMO.lookup((b, depth, cap), lambda: _Levels(_equal_spec(b), depth, cap))


def r_family(key, depth: int, eps_cap=None) -> Mat2:
    """Evaluate the subset recursion for an arbitrary weight listing.

    key is a RecursionKey or a bare sequence of weights (indices implied).
    The result depends only on the weights in listing order; permuted
    listings recompute from scratch, which is what the order-independence
    property test relies on.
    """
    if depth < 0:
        raise MalformedValue("depth must be >= 0")
    bs = tuple(_as_weights(key))
    with _LOCK:
        fam = _FAMILY_MEMO.lookup((depth, eps_cap), lambda: _Levels(_subset_spec, depth, eps_cap))
        return fam.rational(fam.level(bs), len(bs))


def rm_equal(b: int, m: int, depth: int, eps_cap=None) -> Mat2:
    """Level m of the equal-weight recursion, binomial-collapsed."""
    if b < 1:
        raise IndexOutOfRange(f"weight must be >= 1, got {b}")
    if m < 0:
        raise MalformedValue(f"level must be >= 0, got {m}")
    if depth < 0:
        raise MalformedValue("depth must be >= 0")
    with _LOCK:
        fam = _equal_levels(b, depth, eps_cap)
        return fam.rational(fam.level(m), m)


def default_extract_depth(b: int, m: int, i: int, j: int) -> int:
    return (b + 2) * (m + 2) + max(i, j) + 4


def _pair_sum(levels, m, hi, lo, read=_same):
    """sum_t C(m, t) sum_j (j + 1) tr(R_t[j - hi] R_{m-t}[-lo - 2 - j]).

    levels[t] is R_t; j runs over every exponent the left factor stores at
    or above -hi, and each coefficient read goes through `read`. Reading one
    below its entry's depth raises DepthExceeded.
    """
    total = 0
    for t in range(m + 1):
        left, right = levels[t], levels[m - t]
        acc = 0
        # tr(XY) pairs the entries (a, a), (b, c), (c, b), (d, d)
        for sl, sr in ((left.a, right.a), (left.b, right.c), (left.c, right.b), (left.d, right.d)):
            for j in range(hi + sl.deg_plus() + 1):
                e1, e2 = j - hi, -lo - 2 - j
                if e1 < -sl.depth:
                    raise DepthExceeded(e1, sl.depth, f"level {t}")
                if e2 < -sr.depth:
                    raise DepthExceeded(e2, sr.depth, f"level {m - t}")
                x = sl.coeffs.get(e1)
                if x:
                    y = sr.coeffs.get(e2)
                    if y:
                        acc += (j + 1) * read(x) * read(y)
        total += binomial(m, t) * acc
    return total


def _extract_at_depth(b, m, i, j, depth, cap) -> EpsLaurent:
    hi, lo = (i, j) if i >= j else (j, i)
    # the double sum is symmetric in the two spectral slots, so the larger
    # target index can always ride the expansion's deep variable
    with _LOCK:
        fam = _equal_levels(b, depth, cap)
        fam.level(m)
        ts = range(m + 1)
        # the sum has one more factor than level m: read its coefficients at
        # a width that its own norm bound proves
        bound = _pair_sum([fam.norms[t] for t in ts], m, hi, lo)
        width = max(fam.width, bound.bit_length() + 2)

        def read(x):
            return x if width == fam.width else _pack(_unpack(x, fam.width), width)

        raw = _pair_sum([fam.packed[t] for t in ts], m, hi, lo, read)
    denom = fam.scale ** (m + 2) * factorial(i + 1) * factorial(j + 1) * factorial(b + 1) ** m
    coeffs = _unpack(raw, width)
    return EpsLaurent._raw({p - (m + 2): Rat(c, denom) for p, c in enumerate(coeffs) if c})


def extract_bij(b: int, m: int, i: int, j: int, depth=None, eps_cap=None) -> EpsLaurent:
    """Correlator of m weight-b insertions plus tau_i and tau_j.

    The generating identity only sums over i, j >= 1; whether its shallow
    slots also carry tau_0 data is not something this engine will guess.
    """
    if i < 1 or j < 1:
        raise IndexOutOfRange(f"extraction needs i, j >= 1, got ({i}, {j})")
    if b < 1:
        raise IndexOutOfRange(f"recursion route needs weight >= 1, got {b}")
    if m < 0:
        raise MalformedValue(f"level must be >= 0, got {m}")
    if depth is not None:
        return _extract_at_depth(b, m, i, j, depth, eps_cap)
    d = default_extract_depth(b, m, i, j)
    for attempt in range(ESCALATE_TRIES):
        try:
            return _extract_at_depth(b, m, i, j, d, eps_cap)
        except DepthExceeded:
            if attempt == ESCALATE_TRIES - 1:
                raise
            d += ESCALATE_STEP


def degree_for(b: int, n: int, g: int) -> int:
    """Degree pinned by the dimension constraint for n weight-b insertions."""
    if (b * n) % 2:
        raise MalformedValue("odd total weight admits no degree")
    return b * n // 2 + 1 - g


@dataclass(frozen=True)
class PolygonTable:
    b: int
    g_max: int
    rows: tuple  # rows[n - 1][g] is the (n, g) cell
    depth_used: int
    stability_verified: bool

    def cell(self, n: int, g: int) -> Rat:
        if not 1 <= n <= len(self.rows) or not 0 <= g <= self.g_max:
            raise MalformedValue(f"cell ({n}, {g}) outside the table")
        return self.rows[n - 1][g]


def _table_rows(b, n_max, g_max, depth, cap):
    top = n_max - (b * n_max) % 2  # the deepest row with an even total weight
    if b >= 1 and top >= 2:
        # pack the levels once, at a width that covers the deepest row
        with _LOCK:
            _equal_levels(b, depth, cap).level(top - 2)
    rows = []
    for n in range(1, n_max + 1):
        if (b * n) % 2:
            rows.append((ZERO,) * (g_max + 1))
            continue
        if n == 1:
            series = one_point(b)
        elif b == 0:
            # index-0 insertions are outside the recursion route
            if n == 2:
                series = two_point(0, 0)
            else:
                series = n_point((0,) * n)
        else:
            series = extract_bij(b, n - 2, b, b, depth=depth, eps_cap=cap)
        rows.append(tuple(series.coeff(2 * g - 2) for g in range(g_max + 1)))
    return rows


def polygon_table(b: int, n_max: int, g_max=None, depth=None, stability: bool = True) -> PolygonTable:
    """Rows n = 1..n_max of the weight-b family, columns g = 0..g_max.

    Cell (n, g) is the genus-g invariant at the pinned degree bn/2 + 1 - g.
    One shared truncation depth serves every row so the per-level memo is hit
    across rows; with stability on, the whole table is recomputed four orders
    deeper and compared.
    """
    if b < 0:
        raise IndexOutOfRange(f"weight must be >= 0, got {b}")
    if n_max < 1:
        raise MalformedValue(f"need at least one row, got n_max={n_max}")
    if g_max is None:
        g_max = max(b * n_max // 2, 0)
    if g_max < 0:
        raise MalformedValue(f"g_max must be >= 0, got {g_max}")
    if depth is None:
        depth = (b + 2) * n_max + 4
    cap = n_max * (b + 1) + 2
    rows = _table_rows(b, n_max, g_max, depth, cap)
    verified = False
    if stability and b >= 1 and n_max >= 2:
        again = _table_rows(b, n_max, g_max, depth + ESCALATE_STEP, cap)
        if again != rows:
            raise UnstableExtraction(
                f"weight-{b} table changed between depths {depth} and "
                f"{depth + ESCALATE_STEP}"
            )
        verified = True
    return PolygonTable(b, g_max, tuple(rows), depth, verified)
