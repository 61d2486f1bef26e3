"""Commutator recursion over resolvent matrices and pairwise extraction.

The family is indexed by a finite list K of positive weights. The empty
list gives the resolvent itself; removing the first listed weight b1 and
splitting the remainder into an ordered pair of disjoint sublists (I, J)
gives

    R_K = sum over I | J of [(lam^{b1+1} R_J)_+, R_I]

the commutator with the polynomial part of the weight-(b+1) shift acting as
the flow generator. The shift exponent b+1 and the bracket order are pinned
by cross-checks against the direct cycle-sum engine; with either one flipped
the double trace sum lands on the wrong parity diagonal and misses every
admissible slot (the joint eps/lambda parity grading of the resolvent makes
that failure structural, not a small error).

Multiset split. Every key is a count vector c over a tuple of weights
u_1..u_r, with c_v copies of u_v. Remove one copy of the first weight u
present; the 2^k sublist pairs of the rest r fall into one class per count
vector s <= r, of prod_v C(r_v, s_v) equal terms:

    R_c = sum_{s <= r} prod_v C(r_v, s_v) [(lam^{u+1} R_s)_+, R_{r-s}]

A multiset has prod_v (c_v + 1) sub-keys, not 2^k sublists. With one
weight b the key (m,) is level m of the equal-weight family and the
weights are the binomials C(m - 1, t); rm_equal and this module's
extract_bij read these levels, and pair_correlator those of several
weights. p1gw.correlators.extract_bij serves the pair (b, m, i, j) from
the completed-cycle pass below its cost rule and calls extract_bij here
past it; oracles.hurwitz always calls it here. A listing is the all-ones
count vector over its weights as listed: every weight is its own
coordinate, every split weight is 1 and the split is the listing one
above. R_K depends only on the multiset of weights, not on their listing
order, and acceptance criterion c09 checks this on r_family: permuted
listings give different weight tuples, so they remove a different first
weight and recompute along different splits.

Extraction: for weights with count vector c, m = sum_v c_v of them, the
double trace sum

    sum_{s <= c} w_s tr[R_s(lam1) R_{c-s}(lam2)] / (lam1 - lam2)^2,
    w_s = prod_v C(c_v, s_v)

carries, at the coefficient of lam1^(-i-2) lam2^(-j-2) with i, j >= 1, the
correlator with the m weight insertions plus one tau_i and one tau_j, up
to the factorial and eps normalization stripped off in _extract. The m = 0
case also subtracts 1/(lam1 - lam2)^2; that term only touches slots with a
non-negative exponent in lam2, never a doubly-negative one, so it never
reaches the target. Expanding 1/(lam1 - lam2)^2 = sum_j (j+1) lam2^j
lam1^(-j-2) reads the target off as a one-variable sum, with hi >= lo the
two targets:

    sum_{s <= c} w_s sum_{j >= 0} (j + 1) tr(R_s[j - hi] R_{c-s}[-lo - 2 - j])

where R[e] is the lam^e coefficient matrix. pair_correlator reads it for
p1gw.correlators.correlator past the cost rule there, the shapes whose
d_max = sum(ks) / 2 + 1 exceeds PASS_DEGREE (the completed-cycle pass
serves the rest): the two largest indices are the pair, the rest the
weights. Index-0 insertions never reach it: correlator strips
them first by the divisor equation <tau_0 X>_{g,d} = d <X>_{g,d}, which
multiplies the eps^(2g-2) coefficient by d**z for z zeros, with
d = (sum(ks) + 2 - 2g) / 2.

Depth rule. With ks = the weights + (i, j) and n = m + 2, the
extraction's budget is the cycle DP's sum(ks) + n = sum over the weights
w of (w + 1), plus i + j + 2; for equal weights b that is
(b + 1)m + i + j + 2. extract_bij and pair_correlator raise DepthExceeded
for a depth D below it before building any level (pair_depth in
p1gw.correlators, the check both routes of the served extract_bij
share), and at D >= budget every coefficient the sum reads is exact.
Proof, from the LambdaSeries validity depths (p1gw.series):

  * No level has a positive power: [lam^(u+1) R, R] = 0, so by Leibniz the
    (+) in the level sum may be read as -(-), and every bracket has
    exponents <= -1. A computed level stores only true coefficients (all
    at or above its validity floor) and no zeros, so its deg_plus is 0.
  * _shift_plus lowers R_s's validity depth by u + 1 and keeps the plus
    part: it needs that depth >= 0 and gives a polynomial P of degree
    <= u + 1 and depth INF. In Mat2.commutator(P, R) both products are
    valid to N(R) - deg_plus(P) >= N(R) - (u + 1); sums keep the least
    depth, and so does the eps cap. By induction the level of a key is
    valid to D minus the sum of (w + 1) over its weights, with equality
    from the split whose P comes from R_0.
  * _pair_sum reads R_s at j - hi >= -hi and R_{c-s} at -lo - 2 - j >=
    -(i + j + 2), as j <= hi. The deepest read, R_c at -(i + j + 2), is
    valid iff D - sum(w + 1) >= i + j + 2, that is D >= budget; every
    other read and every plus part (D >= sum(w + 1)) is then valid too,
    and at D = budget - 1 that read is one below its floor.

So the default depth is the budget, and the stability rerun STABILITY_STEP
deeper is expected to agree. An odd index sum admits no degree: the value
is zero at any depth. correlator runs the nonzero indices at its own depth,
whose budget counts the zeros too, so it is at or above theirs. The
equal-insertion tables (p1gw.completed) read no level; they keep the
budget (b + 1)n of the pair (b, n - 2, b, b) as their depth contract.

Every eps exponent in sight is non-negative and the final normalization
divides by a fixed eps power, so dropping eps exponents above a cap chosen
from the target's genus range is exact. The pair has total weight
sum(ks) = 2d + 2g - 2 with d >= 0, so its genus terms read eps exponents up
to sum(ks) + m + 2, the budget; the multiset split changes no exponent, so
this bound is the one the equal-weight pair (b, m, i, j) had,
default_extract_depth. A smaller eps_cap drops true terms, and extract_bij
refuses it (MalformedValue), as rm_equal and r_family refuse a negative
one; pair_correlator passes the budget itself. Plain r_family /
rm_equal calls keep full coefficients unless given a cap.

Exact integer kernel. Both recursions and the extraction run on the graded
packed form of eps-polynomials (p1gw.packed states the scale/pack/unpack/
width proof and the graded form). The base is the resolvent at the given depth,
eps-capped as it is scaled by L. _scaled_base(depth, cap) builds the
scaled integer base and its norm base once per (depth, cap), in a bounded
LRU cache (64 entries), and every level lookup at that depth and cap
shares them, as the cycle DP shares _scaled_table(depth): only the
packing, whose width each lookup proves for itself, is per lookup. The
shared base is never changed (the recursion body builds new series and
matrices, never updates its inputs). Every term of the level of a key with k
weights is a product of k + 1 base entries (the shift and the plus part
never touch eps), so the packed level is L**(k+1) times the true one, and
the extraction sum over m weights has m + 2 factors. The recursion body is
the Mat2/LambdaSeries arithmetic itself over int coefficients, validity
depths included, so every packed level has the keys and depths of the
rational one (a level's coefficient is zero exactly when its packed int
is), and the public rm_equal / r_family unpack to the same Mat2.

Parity rule. At entry (r, c) and lam^e of the level of a key with weights
w_1..w_k, every eps exponent has the parity

    e + [r != c] + sum_i (w_i + 1)   (mod 2);

the last term is the key's grade (_grade). Proof, by induction over the
recursion:

  * Base (no weights): by the closed forms in p1gw.resolvent, the diagonal
    1 + alpha and -alpha sit at even powers of lam (lam^0, lam^(-2j-2))
    with even eps powers; off the diagonal, p sits at odd powers
    lam^(-2j-1) with even eps powers and q at even powers lam^(-2j-2) with
    odd eps powers. So every eps exponent has the parity of e + [r != c].
    graded_pack checks each base row it packs and raises on a term of the
    other parity; the eps cap only drops terms.
  * Products: (XY) at (r, c), lam^e sums X_(r,k)[e1] Y_(k,c)[e2] over
    e1 + e2 = e, eps exponents add, and [r != k] + [k != c] = [r != c]
    (mod 2) in a 2x2 matrix, so the product of levels of grades g_X, g_Y
    follows the rule with grade g_X + g_Y.
  * Shift: lam^(u+1) X moves the coefficient at lam^e to lam^(e+u+1)
    without touching eps, so it follows the rule with grade g_X + u + 1;
    its plus part keeps some of those coefficients.
  * Sums, integer multiples and the cap keep the grade, so a commutator
    (two products of one grade) does too, and every term
    [(lam^(u+1) R_J)_+, R_I] of R_K has grade (u + 1) + g_J + g_I, the
    grade of K: R_K follows the rule.
  * Pair sum: tr(R_s[j - hi] R_{c-s}[-lo - 2 - j]) multiplies coefficients
    of parities j - hi + off + g_s and -lo - 2 - j + off + g_{c-s}, with
    off = [r != c] the same for both entries of a trace pair, so every term
    has the parity of i + j + g_c = i + j + sum(w) + m. That is m mod 2,
    since every extraction has an even total weight i + j + sum(w) (an
    odd one is answered with zero before any level is built).

So each level packs at eps = 2**(width / 2) with an even width, and the
parity is taken from the coefficient's position (_graded, _pair_sum),
never from the int, at the three places that need it: packing the base,
the eps-cap trim, and every unpack or repack (_rational, the pair sum's
widened reads and _extract's final read). The body in between is
unchanged, and each packed int is about half the length of the plain
Kronecker form.

Norm-bound body: the same body over the l1 norms of the scaled entries, at
depth INF so that no validity floor drops a key, and with the
anticommutator in place of the commutator so that every sign is dropped.
Each lookup knows its deepest key before it starts, so it runs the norm
pass over exactly the keys that key needs (every sub-key, which the pair
sum reads), takes one width from their largest entry (graded_width, the
least even width at or above pack_width) and packs every level at it; the cached record is never changed or
repacked. The extraction bounds its own sum the same way and
reads the level coefficients at that width if it is wider.

The same body also runs over the rational EpsLaurent base, which the tests
use as the reference. Both rational backends run the recursion on the same
ints, so it costs the same on both.
"""

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .eps import EPS_ZERO, EpsLaurent
from .packed import (
    graded_from_packed,
    graded_pack,
    graded_repack,
    graded_trim,
    graded_width,
    scaled_rows,
)
from .correlators import check_pair_args, default_extract_depth, pair_depth
from .errors import IndexOutOfRange, MalformedValue
from .rational import factorial, splits
from .resolvent import resolvent_bundle
from .series import INF, LambdaSeries, Mat2

MAX_KEY = 6
MEMO_FAMILIES = 8


def _grade(weights, key) -> int:
    """sum(w + 1) mod 2 over the weights w of the count vector key."""
    return sum(c * (u + 1) for u, c in zip(weights, key)) % 2


def _graded(mat: Mat2, grade: int, fn) -> Mat2:
    """fn(x, p) for every coefficient x of mat, dropping the zeros it gives.

    p is x's eps parity (e + [r != c] + grade) mod 2 at entry (r, c) and
    lam^e (module docstring), grade that of mat's key.
    """
    entries = (mat.a, mat.b, mat.c, mat.d)
    return Mat2(
        *(
            LambdaSeries._raw({e: y for e, x in s.coeffs.items() if (y := fn(x, (e + off + grade) % 2))}, s.depth)
            for off, s in zip((0, 1, 1, 0), entries)
        )
    )


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
    passed through trim(key, matrix), the eps cap, unless trim is None.
    bracket is Mat2.commutator, or for the norm pass the anticommutator,
    whose terms are the commutator's with every sign dropped.
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
            got = trim(key, got)
    memo[key] = got
    return got


def _multiset_spec(weights):
    """Spec of count-vector keys over weights: one copy of the first weight
    present is removed and the rest split I | J by p1gw.rational.splits."""

    def spec(key):
        for v, c in enumerate(key):
            if c:
                return weights[v], list(splits(key[:v] + (c - 1,) + key[v + 1 :]))
        return None

    return spec


class _Levels(NamedTuple):
    """Levels of one lookup at one (depth, cap), as exact packed integers.

    packed[key] is L**(k+1) times the true matrix of a count vector key
    over weights with k weights in all (L = scale, from the scaled base),
    each eps-polynomial in graded form at block width `width` (p1gw.packed),
    its parity given by its position (grade); norms[key] is the norm pass
    of the same key. Both hold every sub-key of the lookup's key, which the
    pair sum reads; width comes from their largest norm entry. Nothing
    changes a record once it is built.
    """

    scale: int
    width: int
    weights: tuple
    norms: MappingProxyType
    packed: MappingProxyType

    def grade(self, key) -> int:
        return _grade(self.weights, key)


@lru_cache(maxsize=64)
def _scaled_base(depth, cap):
    """(L, base, norm base) of the resolvent at depth, eps-capped at cap.

    base is L times the capped resolvent over integer coefficient rows
    indexed by eps exponent (L the lcm of the kept denominators; a
    coefficient the cap empties is dropped), the norm base holds each row's
    l1 norm at depth INF. Every lookup at (depth, cap) shares them, so
    nothing may change them.
    """
    r = resolvent_bundle(depth).r
    entries = (r.a, r.b, r.c, r.d)
    scale, rows = scaled_rows([c for s in entries for c in s.coeffs.values()], cap)
    rows = iter(rows)
    base = Mat2(
        *(LambdaSeries._raw({e: row for e in s.coeffs if (row := next(rows))}, s.depth) for s in entries)
    )
    # at depth INF no validity floor drops a key
    norm_base = base.map_entries(
        lambda s: LambdaSeries._raw({e: sum(map(abs, row)) for e, row in s.coeffs.items()}, INF)
    )
    return scale, base, norm_base


@lru_cache(maxsize=MEMO_FAMILIES)
def _levels(weights, key, depth, cap) -> _Levels:
    """Levels of every sub-key of the count vector key over weights.

    Two threads asking for one missing entry may both build it; the results
    are equal and neither is ever changed, so no lock is needed.
    """
    spec = _multiset_spec(weights)
    scale, base, norm_base = _scaled_base(depth, cap)
    norms = {}
    # the pair sum reads every sub-key, which the key's own recursion need
    # not reach once two weights differ
    keys = [s for _, s, _ in splits(key)]
    for k in keys:
        _run(k, spec, lambda: norm_base, _anticommutator, None, norms)
    width = graded_width(max(map(_largest, norms.values())))
    trim = None
    if cap is not None:
        trims = (graded_trim(width, cap, 0), graded_trim(width, cap, 1))
        trim = lambda k, mat: _graded(mat, _grade(weights, k), lambda x, p: trims[p](x))  # noqa: E731
    packed = {}
    # the base key has no weights, so grade 0; graded_pack raises on a row
    # of the wrong parity
    packed_base = lambda: _graded(base, 0, lambda row, p: graded_pack(row, width, p))  # noqa: E731
    for k in keys:
        _run(k, spec, packed_base, Mat2.commutator, trim, packed)
    return _Levels(scale, width, weights, MappingProxyType(norms), MappingProxyType(packed))


def _rational(levels: _Levels, key, k: int) -> Mat2:
    """The true matrix of a key with k weights, from its packed one."""
    denom = levels.scale ** (k + 1)
    return _graded(
        levels.packed[key], levels.grade(key), lambda x, p: graded_from_packed(x, levels.width, p, denom)
    )


def _check_cap(eps_cap):
    if eps_cap is not None and eps_cap < 0:
        raise MalformedValue(f"eps_cap must be >= 0, got {eps_cap}")


def r_family(weights, depth: int, eps_cap=None) -> Mat2:
    """The level of a listing of at most MAX_KEY weights, each >= 1.

    It runs as the all-ones count vector over the weights as listed, so a
    permuted listing recomputes along different splits, which is what the
    order-independence check relies on.
    """
    if depth < 0:
        raise MalformedValue("depth must be >= 0")
    _check_cap(eps_cap)
    ws = tuple(int(w) for w in weights)  # read once: weights may be an iterator
    if any(w < 1 for w in ws):
        raise IndexOutOfRange("weights must be >= 1")
    if len(ws) > MAX_KEY:
        raise MalformedValue(f"at most {MAX_KEY} weights supported")
    key = (1,) * len(ws)
    return _rational(_levels(ws, key, depth, eps_cap), key, len(ws))


def rm_equal(b: int, m: int, depth: int, eps_cap=None) -> Mat2:
    """Level m of the equal-weight recursion, binomial-collapsed."""
    if b < 1:
        raise IndexOutOfRange(f"weight must be >= 1, got {b}")
    if m < 0:
        raise MalformedValue(f"level must be >= 0, got {m}")
    if depth < 0:
        raise MalformedValue("depth must be >= 0")
    _check_cap(eps_cap)
    return _rational(_levels((b,), (m,), depth, eps_cap), (m,), m)


def _pair_sum(levels, key, hi, lo, grade, read=lambda x, p: x):
    """sum_s w_s sum_j (j + 1) tr(R_s[j - hi] R_{key-s}[-lo - 2 - j]).

    The outer sum runs over the splits (w_s, s, key - s) of the count
    vector key (p1gw.rational.splits). levels[s] is R_s and each
    coefficient x read goes through read(x, p), p its eps parity from
    grade(s) (module docstring). Levels have no positive powers, so j stops at hi. At a
    depth within the budget every read is at or above its entry's validity
    floor (module docstring), so a missing coefficient is a true zero.
    """
    total = 0
    for w, s, rest in splits(key):
        left, right = levels[s], levels[rest]
        gl, gr = grade(s), grade(rest)
        acc = 0
        # tr(XY) pairs the entries (a, a), (b, c), (c, b), (d, d); off is
        # [r != c] for both of a pair
        for off, sl, sr in ((0, left.a, right.a), (1, left.b, right.c), (1, left.c, right.b), (0, left.d, right.d)):
            for j in range(hi + 1):
                x = sl.coeffs.get(j - hi)
                if x:
                    y = sr.coeffs.get(-lo - 2 - j)
                    if y:
                        # -lo - 2 - j has the parity of lo + j
                        acc += (j + 1) * read(x, (j - hi + off + gl) % 2) * read(y, (lo + j + off + gr) % 2)
        total += w * acc
    return total


def _extract(levels: _Levels, weights, key, i, j) -> EpsLaurent:
    """The pair (i, j) over the weights' count vector key, read off levels
    holding every sub-key of key."""
    hi, lo = (i, j) if i >= j else (j, i)
    # the double sum is symmetric in the two spectral slots, so the larger
    # target index can always ride the expansion's deep variable
    # the sum has one more factor than the level of key: read its
    # coefficients at a width that its own norm bound proves
    width = max(levels.width, graded_width(_pair_sum(levels.norms, key, hi, lo, levels.grade)))
    raw = _pair_sum(
        levels.packed, key, hi, lo, levels.grade, lambda x, p: graded_repack(x, levels.width, width, p)
    )
    m = sum(key)
    denom = levels.scale ** (m + 2) * factorial(i + 1) * factorial(j + 1)
    for w, c in zip(weights, key):
        denom *= factorial(w + 1) ** c
    # every term has parity i + j + grade(key), m mod 2 for an even total weight
    return graded_from_packed(raw, width, (i + j + levels.grade(key)) % 2, denom, -(m + 2))


def extract_bij(b: int, m: int, i: int, j: int, depth=None, eps_cap=None) -> EpsLaurent:
    """Correlator of m weight-b insertions plus tau_i and tau_j, by the
    recursion, whatever the cost rule.

    The contract is p1gw.correlators.extract_bij's, whose checks it runs:
    the generating identity only sums over i, j >= 1, and whether its
    shallow slots also carry tau_0 data is not something this engine will
    guess. It adds an eps cap, which the public call does not take: a cap
    below default_extract_depth raises MalformedValue, after the argument
    checks; an odd b*m + i + j gives zero at any depth; otherwise a depth
    below default_extract_depth raises DepthExceeded.
    """
    check_pair_args(b, m, i, j)
    least = default_extract_depth(b, m, i, j)
    if eps_cap is not None and eps_cap < least:
        raise MalformedValue(f"eps_cap must be >= {least}, got {eps_cap}")
    return _pair((b,), (m,), i, j, depth, eps_cap)


def _pair(weights, key, i, j, depth, cap) -> EpsLaurent:
    """The pair (i, j) over the count vector key of weights, its levels
    eps-capped at cap, at the depth p1gw.correlators.pair_depth gives:
    zero for an odd index sum, else by default the budget
    sum(c(w + 1)) + i + j + 2."""
    depth = pair_depth(sum(c * w for w, c in zip(weights, key)) + i + j, sum(key) + 2, depth)
    if depth is None:
        return EPS_ZERO
    return _extract(_levels(weights, key, depth, cap), weights, key, i, j)


def pair_correlator(ks, depth=None) -> EpsLaurent:
    """Correlator of ks (two or more indices, each >= 1) by the pair extraction.

    The two largest indices are the pair (i, j) and the rest the weights,
    split as a multiset (module docstring). An odd sum gives zero at any
    depth; otherwise a depth below the budget sum(ks) + n raises
    DepthExceeded, and the default depth is that budget. The eps cap is
    the budget too, the highest eps exponent any genus term reads.
    """
    ks = tuple(sorted(ks, reverse=True))
    if len(ks) < 2 or ks[-1] < 1:
        raise IndexOutOfRange(f"pair extraction needs two or more indices >= 1, got {ks}")
    (i, j), ws = ks[:2], ks[2:]
    weights = tuple(sorted(set(ws), reverse=True))
    key = tuple(ws.count(w) for w in weights)
    return _pair(weights, key, i, j, depth, sum(ks) + len(ks))
