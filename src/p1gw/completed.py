"""Equal-insertion tables from the GW/Hurwitz correspondence.

Okounkov and Pandharipande ("Gromov-Witten theory, Hurwitz theory, and
completed cycles") write the disconnected stationary invariants of the
projective line (marked * below) as a finite sum over the partitions of
the degree:

    <tau_b^m>*_d = sum_{|lam| = d} (dim lam / d!)^2 (p_k(lam) / k!)^m,  k = b + 1,
    p_k(lam) = sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + (1 - 2^-k) zeta(-k),

with zeta(-k) = -B_{k+1} / (k + 1). The genus of every term is pinned by
the dimension constraint, so each series is a power series in q alone.

Integers throughout. Scaling by 2^k telescopes each row into a sum over
its boxes of f(c) = (2c + 1)^k - (2c - 1)^k at the box's content c, and
with (2^k - 1) zeta(-k) = num / den,

    P(lam) = den * 2^k p_k(lam) = den * sum_boxes f(c) + num

is an integer and p_k / k! = P / u with u = den * 2^k * k!. The partitions
of d are built from those of d - 1 by adding one box, and dim lam is the
sum of dim mu over the mu one box smaller (the branching rule), so no
hook product is divided out. The pass groups the partitions of each
degree by P and keeps the sums s_m(d) = sum (dim lam)^2 P(lam)^m as ints.

Connecting step. Every disconnected cover is a set of connected ones;
the only connected one without a marked point is the degree-1 sphere, so
Z*_0 = e^q, and the component through the first point holds t of the
other m - 1 points:

    Z*_m = sum_{t < m} C(m - 1, t) F_{t+1} Z*_{m-1-t},

solved for the connected F_m by one product with e^-q. All series are
held as exponential generating functions scaled by (N u)^m, N = d_max!:
the coefficient A_m[d] = N^m s_m(d) / d! of Z*_m is an integer (so is
every one derived from it), products are the binomial convolutions
sum_e C(d, e) x[e] y[d - e], and the grading by m matches the recursion.
Cell (n, g) of the table is [q^d] F_n = F_n[d] / (d! (N u)^n) at
d = (bn + 2 - 2g) / 2, and zero when that is odd or negative. A
coefficient at q^d of a product reads only degrees <= d, so the series
are truncated after d_max = b * top / 2 + 1, the largest degree of a
cell, with no loss.

Depth. This route has no spectral truncation, so its values are exact at
any depth at or above the budget (b + 1) * top of the deepest row top with
an even total weight: the budget of that row's pair extraction in
p1gw.recursion, which the tables keep as their contract. A depth below it
raises UnstableExtraction before any row is computed, and depth_used
reports the depth the table was asked for (the budget by default). With
stability on, b >= 1 and n_max >= 2, the whole pass is rerun with every
q-series STABILITY_STEP degrees longer and every cell compared.
"""

from typing import NamedTuple

from .correlators import STABILITY_STEP
from .errors import IndexOutOfRange, MalformedValue, UnstableExtraction
from .rational import Rat, ZERO, binomial, factorial


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


def _zeta_term(k: int):
    """(num, den) with num / den = (2^k - 1) zeta(-k) in lowest terms."""
    bern = [Rat(1)]  # B_0..B_{k+1} by sum_{j <= n} C(n + 1, j) B_j = 0
    for n in range(1, k + 2):
        bern.append(-sum(binomial(n + 1, j) * bern[j] for j in range(n)) / (n + 1))
    c = (2**k - 1) * -bern[k + 1] / (k + 1)
    return int(c.numerator), int(c.denominator)


def _partition_sums(k: int, num: int, den: int, d_max: int) -> list:
    """For d = 0..d_max, {P(lam): sum of (dim lam)^2 over |lam| = d}."""
    f = {c: (2 * c + 1) ** k - (2 * c - 1) ** k for c in range(-d_max, d_max + 1)}
    level = {(): [1, 0]}  # partition -> [dim, sum over its boxes of f(content)]
    out = []
    for d in range(d_max + 1):
        if d:
            grown = {}
            for mu, (dim, s) in level.items():
                for i in range(len(mu) + 1):
                    row = mu[i] if i < len(mu) else 0
                    if i and mu[i - 1] == row:
                        continue  # no box can go at the end of row i
                    lam = mu[:i] + (row + 1,) + mu[i + 1 :]
                    got = grown.get(lam)
                    if got is None:
                        grown[lam] = [dim, s + f[row - i]]
                    else:
                        got[0] += dim
            level = grown
        sums = {}
        for dim, s in level.values():
            p = den * s + num
            sums[p] = sums.get(p, 0) + dim * dim
        out.append(sums)
    return out


def _star(x: list, y: list) -> list:
    """Product of two exponential generating functions of one length."""
    return [sum(binomial(d, e) * x[e] * y[d - e] for e in range(d + 1)) for d in range(len(x))]


def _rows(b: int, n_max: int, g_max: int, d_max: int) -> list:
    """Rows 1..n_max of the weight-b table, columns 0..g_max, from one
    pass with every q-series truncated after q^d_max (module docstring)."""
    k = b + 1
    num, den = _zeta_term(k)
    big = factorial(d_max)
    scale = big * den * 2**k * factorial(k)  # N u
    # disconnected[m][d] = A_m[d] = N^m s_m(d) / d!; A_0 is e^q
    disconnected = [[1] * (d_max + 1)] + [[0] * (d_max + 1) for _ in range(n_max)]
    for d, sums in enumerate(_partition_sums(k, num, den, d_max)):
        lift = big // factorial(d)
        terms = list(sums.items())
        for m in range(1, n_max + 1):
            terms = [(p, w * p) for p, w in terms]
            disconnected[m][d] = lift * big ** (m - 1) * sum(w for _, w in terms)
    e_minus_q = [(-1) ** d for d in range(d_max + 1)]
    connected = [None]
    for m in range(1, n_max + 1):
        rest = disconnected[m]
        for t in range(m - 1):
            term = _star(connected[t + 1], disconnected[m - 1 - t])
            w = binomial(m - 1, t)
            rest = [r - w * x for r, x in zip(rest, term)]
        connected.append(_star(rest, e_minus_q))
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
    One completed-cycle pass gives every row (module docstring). It is
    exact at any depth at or above the budget (b + 1) * top of the deepest
    row top with an even total weight, the default depth; an explicit depth
    below it raises UnstableExtraction before any row is computed. With
    stability on, b >= 1 and n_max >= 2, the pass is rerun with every
    q-series STABILITY_STEP degrees longer and compared cell by cell.
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
    rows = _rows(b, n_max, g_max, d_max)
    verified = False
    if stability and b >= 1 and n_max >= 2:
        if _rows(b, n_max, g_max, d_max + STABILITY_STEP) != rows:
            raise UnstableExtraction(
                f"weight-{b} table changed between q-series lengths {d_max} and "
                f"{d_max + STABILITY_STEP}"
            )
        verified = True
    return PolygonTable(b, g_max, tuple(rows), depth, verified)
