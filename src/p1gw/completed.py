"""Stationary correlators and equal-insertion tables from the GW/Hurwitz
correspondence.

Okounkov and Pandharipande ("Gromov-Witten theory, Hurwitz theory, and
completed cycles") write the disconnected stationary invariants of the
projective line (marked * below) as a finite sum over the partitions of
the degree:

    <prod_i tau_{k_i}>*_d = sum_{|lam| = d} (dim lam / d!)^2 prod_i p_{k_i+1}(lam) / (k_i + 1)!,
    p_k(lam) = sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + (1 - 2^-k) zeta(-k),

with zeta(-k) = -B_{k+1} / (k + 1), which is zero for even k >= 2; for
odd k, B_{k+1} is read off the tangent numbers (rational.bernoulli_even).
The genus of every term is pinned by the dimension constraint, so each
series is a power series in q alone.

Count vectors. The insertions are a multiset: c_v copies of each distinct
weight w_v, listed largest first. One pass serves every sub-key s <= c
(count vectors, in product order, so every s' <= s comes before s): a
correlator reads the last one, c itself, and a weight-b table with rows
up to n_max reads every sub-key (m,) of c = (n_max,) as its row m.

Integers throughout. For a weight w, k = w + 1, scaling by 2^k telescopes
each row into a sum over its boxes of f_k(c) = (2c + 1)^k - (2c - 1)^k at
the box's content c, and with (2^k - 1) zeta(-k) = num / den,

    P_w(lam) = den * 2^k p_k(lam) = den * sum_boxes f_k(c) + num

is an integer and p_k / k! = P_w / u_w with u_w = den * 2^k * k!. The
partitions of d are built from those of d - 1 by adding one box: dim lam
is the sum of dim mu over the mu one box smaller (the branching rule), so
no hook product is divided out, and P_w(lam) = P_w(mu) + den f_k(c) for
one such mu, c the content of the added box. For each degree the pass
groups the partitions by their P values and keeps, as ints,

    S_s(d) = sum_{|lam| = d} (dim lam)^2 prod_v P_{w_v}(lam)^(s_v).

Connecting step. Every disconnected cover is a set of connected ones;
the only connected one without a marked point is the degree-1 sphere, so
Z*_0 = e^q. Remove one copy of the first weight w_v present in s and call
the rest r = s - e_v; the component through that point holds t <= r of
the other points, in prod_x C(r_x, t_x) ways:

    Z*_s = sum_{t <= r} prod_x C(r_x, t_x) F_{t + e_v} Z*_{r - t},

and the term t = r is F_s e^q, so F_s is the rest times e^-q. All series
are held as exponential generating functions scaled by
N^|s| prod_v u_v^(s_v), N = d_max!: the coefficient
A_s[d] = N^|s| S_s(d) / d! of Z*_s is an integer (so is every one derived
from it), products are the binomial convolutions
sum_e C(d, e) x[e] y[d - e], and the scale of each product is that of its
key. [q^d] F_s = F_s[d] / (d! N^|s| prod_v u_v^(s_v)) is the connected
invariant at genus g = (sum of the weights of s + 2 - 2d) / 2, the
coefficient of eps^(2g - 2). A coefficient at q^d of a product reads only
degrees <= d, so the series are truncated after d_max, the largest degree
of a wanted coefficient (genus 0), with no loss.

Caches. The partitions of a degree with their dims, and the P values of
each (k, d), depend on nothing else; they are kept, in bounded lru caches,
for the degrees d <= CACHED_DEGREE = PASS_DEGREE + STABILITY_STEP that
correlator() reaches on this route (p1gw.correlators states the cost
rule, d_max <= PASS_DEGREE). A deeper degree, which only a large table
reaches, is built from the one below and dropped when the next is built,
so such a pass holds two degrees of partitions at a time.

Stability. The rerun makes every q-series STABILITY_STEP degrees longer:
it runs the scale N, the products and the connecting step again at the
longer length, over the same partition sums (exact integers, whatever the
length), which the main pass extends by STABILITY_STEP degrees when a
rerun follows. A correlator's rerun value keeps every degree of its
longer series, so a term past d_max (a negative genus) fails the check.

Tables and depth. This route has no spectral truncation, so its values
are exact at any depth at or above the budget. polygon_table keeps the
budget (b + 1) * top of the deepest row top with an even total weight,
the budget of that row's pair extraction in p1gw.recursion, as its
contract. A depth below it raises UnstableExtraction before any row is
computed, and depth_used reports the depth the table was asked for (the
budget by default). With stability on, b >= 1 and n_max >= 2, the rerun
is compared cell by cell.
"""

from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .eps import EPS_ZERO, EpsLaurent
from .errors import IndexOutOfRange, MalformedValue, UnstableExtraction
from .rational import Rat, ZERO, bernoulli_even, binomial, factorial, splits

STABILITY_STEP = 4
PASS_DEGREE = 17  # the cost rule: correlator() sends d_max <= PASS_DEGREE here
CACHED_DEGREE = PASS_DEGREE + STABILITY_STEP


class PolygonTable(NamedTuple):
    b: int
    g_max: int
    rows: tuple  # rows[n - 1][g] is the (n, g) cell
    depth_used: int
    stability_verified: bool

    def cell(self, n: int, g: int) -> Rat:
        if not 1 <= n <= len(self.rows) or not 0 <= g <= self.g_max:
            raise MalformedValue(f"cell ({n}, {g}) outside the table")
        return self.rows[n - 1][g]


@lru_cache(maxsize=64)
def _zeta_term(k: int):
    """(num, den) with num / den = (2^k - 1) zeta(-k) in lowest terms.

    B_{k+1} = 0 for even k >= 2, and 2^0 - 1 = 0 at k = 0, so an even k
    gives (0, 1)."""
    if k % 2 == 0:
        return 0, 1
    c = (2**k - 1) * -bernoulli_even((k + 1) // 2) / (k + 1)
    return c.numerator, c.denominator


def _unit(k: int) -> int:
    """u = den * 2^k * k!, with p_k / k! = P / u."""
    return _zeta_term(k)[1] * 2**k * factorial(k)


def _grow(prev: tuple) -> tuple:
    """The shapes one box larger than prev. The shapes of a degree d are
    (lams, dims, parents, contents): the partitions of d (rows weakly
    decreasing), their dims by the branching rule, and for each the
    position among the degree d - 1 shapes of one partition a box smaller
    and the content (column - row) of the box it lacks. Cached shapes are
    shared, so nothing changes them once they are built."""
    at = {}
    dims, parents, contents = [], [], []
    for i, (mu, dim) in enumerate(zip(prev[0], prev[1])):
        for r in range(len(mu) + 1):
            row = mu[r] if r < len(mu) else 0
            if r and mu[r - 1] == row:
                continue  # no box can go at the end of row r
            lam = mu[:r] + (row + 1,) + mu[r + 1 :]
            j = at.get(lam)
            if j is None:
                at[lam] = len(dims)
                dims.append(dim)
                parents.append(i)
                contents.append(row - r)
            else:
                dims[j] += dim
    return tuple(at), dims, parents, contents


def _next_p(k: int, prev: tuple, shapes: tuple) -> tuple:
    """P over shapes from P over the partitions one box smaller (prev)."""
    den = _zeta_term(k)[1]
    _, _, parents, contents = shapes
    f = {c: den * ((2 * c + 1) ** k - (2 * c - 1) ** k) for c in set(contents)}
    return tuple(prev[i] + f[c] for i, c in zip(parents, contents))


@lru_cache(maxsize=CACHED_DEGREE + 1)
def _cached_shapes(d: int) -> tuple:
    return _grow(_cached_shapes(d - 1)) if d else (((),), [1], [], [])


@lru_cache(maxsize=32 * (CACHED_DEGREE + 1))  # 32 weights at every cached degree
def _cached_p(k: int, d: int) -> tuple:
    """P over the partitions of d, d <= CACHED_DEGREE, for k = w + 1."""
    return _next_p(k, _cached_p(k, d - 1), _cached_shapes(d)) if d else (_zeta_term(k)[0],)


def _expand(terms: list, cols, counts, out: list) -> None:
    """Append sum_i terms[i] prod_v cols[v][i]^(s_v) to out for every count
    vector s <= counts, in product order."""
    if not counts:
        out.append(sum(terms))
        return
    for e in range(counts[0] + 1):
        if e:
            terms = list(map(mul, terms, cols[0]))
        _expand(terms, cols[1:], counts[1:], out)


def _sums(ks, counts, d_top: int) -> list:
    """sums[d][i] = S_s(d) for the i-th count vector s <= counts in product
    order over k = w + 1 for the weights w, d = 0..d_top."""
    out = []
    for d in range(d_top + 1):
        if d <= CACHED_DEGREE:
            shapes = _cached_shapes(d)
            ps = [_cached_p(k, d) for k in ks]
        else:  # built from the degree below, and dropped with it
            shapes = _grow(shapes)
            ps = [_next_p(k, p, shapes) for k, p in zip(ks, ps)]
        groups = {}
        for dim, pt in zip(shapes[1], zip(*ps)):
            groups[pt] = groups.get(pt, 0) + dim * dim
        row = []
        _expand(list(groups.values()), list(zip(*groups)), counts, row)
        out.append(row)
    return out


def _star(x: list, y: list, binom: list) -> list:
    """Product of two exponential generating functions of one length."""
    return [sum(c * x[e] * y[d - e] for e, c in enumerate(row)) for d, row in enumerate(binom)]


def _connected(counts, sums: list, d_max: int) -> list:
    """connected[i][d] = d! N^|s| prod_v u_v^(s_v) [q^d] F_s for the i-th
    count vector s <= counts in product order, d <= d_max, N = d_max!,
    from the partition sums (module docstring)."""
    big = factorial(d_max)
    lift = [big // factorial(d) for d in range(d_max + 1)]
    binom = [[binomial(d, e) for e in range(d + 1)] for d in range(d_max + 1)]
    keys = [s for _, s, _ in splits(counts)]
    at = {s: i for i, s in enumerate(keys)}
    # disconnected[i][d] = A_s[d] = N^|s| S_s(d) / d!; A_0 is e^q
    disconnected = [[1] * (d_max + 1)]
    for i, s in enumerate(keys[1:], 1):
        scale = big ** (sum(s) - 1)
        disconnected.append([lift[d] * scale * sums[d][i] for d in range(d_max + 1)])
    e_minus_q = [(-1) ** d for d in range(d_max + 1)]
    connected = [None]
    for i, s in enumerate(keys[1:], 1):
        v = next(v for v, c in enumerate(s) if c)
        rest = disconnected[i]
        for w, t, left in splits(s[:v] + (s[v] - 1,) + s[v + 1 :]):
            if any(left):  # t = r is the F_s e^q term
                term = _star(connected[at[t[:v] + (t[v] + 1,) + t[v + 1 :]]], disconnected[at[left]], binom)
                rest = [x - w * y for x, y in zip(rest, term)]
        connected.append(_star(rest, e_minus_q, binom))
    return connected


def pass_correlator(ks, rerun: bool = False) -> tuple:
    """Connected correlator of the indices ks, from one completed-cycle pass.

    Returns (value,), or with rerun (value, rerun value), the rerun with
    every q-series STABILITY_STEP degrees longer (module docstring). An odd
    index sum admits no degree: its value is zero.
    """
    ks = tuple(sorted(ks, reverse=True))
    total = sum(ks)
    if total % 2:
        return (EPS_ZERO,) * (1 + rerun)
    weights = tuple(sorted(set(ks), reverse=True))
    counts = tuple(ks.count(w) for w in weights)
    kk = tuple(w + 1 for w in weights)
    units = 1
    for k, c in zip(kk, counts):
        units *= _unit(k) ** c
    d_max = total // 2 + 1
    lengths = (d_max, d_max + STABILITY_STEP) if rerun else (d_max,)
    sums = _sums(kk, counts, lengths[-1])
    values = []
    for length in lengths:
        top = _connected(counts, sums, length)[-1]
        scale = factorial(length) ** len(ks) * units
        values.append(
            EpsLaurent._raw(
                {total - 2 * d: Rat(x, factorial(d) * scale) for d, x in enumerate(top) if x}
            )
        )
    return tuple(values)


def _rows(b: int, n_max: int, g_max: int, sums: list, d_max: int) -> list:
    """Rows 1..n_max of the weight-b table, columns 0..g_max, with every
    q-series truncated after q^d_max: row n is the sub-key (n,)."""
    connected = _connected((n_max,), sums, d_max)
    scale = factorial(d_max) * _unit(b + 1)  # N u
    rows = []
    for n in range(1, n_max + 1):
        row = []
        for g in range(g_max + 1):
            twice = b * n + 2 - 2 * g  # 2d
            if twice % 2 or twice < 0:
                row.append(ZERO)
            else:
                d = twice // 2
                row.append(Rat(connected[n][d], factorial(d) * scale**n))
        rows.append(tuple(row))
    return rows


def polygon_table(b: int, n_max: int, g_max=None, depth=None, stability: bool = True) -> PolygonTable:
    """Rows n = 1..n_max of the weight-b family, columns g = 0..g_max.

    Cell (n, g) is the genus-g invariant at the pinned degree bn/2 + 1 - g.
    One completed-cycle pass at the count vector (n_max,) gives every row
    (module docstring). It is exact at any depth at or above the budget
    (b + 1) * top of the deepest row top with an even total weight, the
    default depth; an explicit depth below it raises UnstableExtraction
    before any row is computed. With stability on, b >= 1 and n_max >= 2,
    the rows are read again with every q-series STABILITY_STEP degrees
    longer and compared cell by cell.
    """
    if b < 0:
        raise IndexOutOfRange(f"weight must be >= 0, got {b}")
    if n_max < 1:
        raise MalformedValue(f"need at least one row, got n_max={n_max}")
    if g_max is None:
        g_max = max(b * n_max // 2, 0)
    if g_max < 0:
        raise MalformedValue(f"g_max must be >= 0, got {g_max}")
    top = n_max - (b * n_max) % 2  # the deepest row with an even total weight
    budget = (b + 1) * top  # sum(ks) + n for that row's n insertions
    if depth is None:
        depth = budget
    elif depth < budget:
        raise UnstableExtraction(f"weight-{b} table to n = {n_max} needs depth >= {budget}, got {depth}")
    d_max = b * top // 2 + 1  # the largest degree of a cell
    rerun = stability and b >= 1 and n_max >= 2
    sums = _sums((b + 1,), (n_max,), d_max + (STABILITY_STEP if rerun else 0))
    rows = _rows(b, n_max, g_max, sums, d_max)
    if rerun and _rows(b, n_max, g_max, sums, d_max + STABILITY_STEP) != rows:
        raise UnstableExtraction(
            f"weight-{b} table changed between q-series lengths {d_max} and "
            f"{d_max + STABILITY_STEP}"
        )
    return PolygonTable(b, g_max, tuple(rows), depth, rerun)
