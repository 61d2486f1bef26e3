"""Independent cross-checks for the correlator engines.

Everything here is computed along a route that shares as little code as
possible with the machinery it checks:

* closed product formulas for the degree-one sector,
* closed alternating binomial sums for the two lowest two-point families,
* six generating-function identities pinning whole correlator families
  against explicit polynomial combinations of the resolvent entries,
* the trace and determinant constraints of the resolvent itself,
* large-genus ratio reports whose limits have closed constants.

All values are exact rationals.  Decimals appear only in display strings,
rendered by integer long division, never through floats.
"""

from dataclasses import dataclass

from .correlators import default_depth, n_point, one_point, stability_check, two_point
from .eps import EPS_ONE, EPS_ZERO, EpsLaurent
from .errors import IdentityViolation, IndexOutOfRange, MalformedValue, P1GWError
from .rational import ONE, Rat, ZERO, binomial, decimal_str, factorial, rat_str
from .recursion import extract_bij, polygon_table
from .resolvent import resolvent_bundle
from .series import INF, LambdaSeries
from . import reference


# --- degree one --------------------------------------------------------------

def c2m(m: int):
    """Building block 1 / (4^m (2m+1)!) of the degree-one sector."""
    if m < 0:
        raise IndexOutOfRange(f"need m >= 0, got {m}")
    return Rat(1, 4**m * factorial(2 * m + 1))


def degree_one(ks):
    """Degree-one correlator value: the product of c2m factors.

    Vanishes unless every insertion index is even; the genus is then
    pinned to sum(ks) / 2 by the dimension constraint, so only the value
    is returned.
    """
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise MalformedValue("need at least one insertion")
    for k in ks:
        if k < 0:
            raise IndexOutOfRange(f"insertion index must be >= 0, got {k}")
    if any(k % 2 for k in ks):
        return ZERO
    out = ONE
    for k in ks:
        out *= c2m(k // 2)
    return out


# --- closed two-point families ------------------------------------------------

def two_point_tau0_closed(g: int, d: int):
    """Genus-g degree-d pair correlator with one index-0 insertion.

    Closed alternating binomial sum; the partner index is 2g + 2d - 2.
    """
    if g < 0 or d < 1:
        raise MalformedValue(f"need g >= 0 and d >= 1, got g={g}, d={d}")
    w = 2 * g + 2 * d - 1
    num = sum(
        (-1) ** l * (2 * d - 1 - 2 * l) ** w * binomial(2 * d - 1, l)
        for l in range(d)
    )
    return Rat(num, 2 ** (w - 1) * factorial(w) * factorial(d - 1) * factorial(d))


def two_point_tau1_closed(g: int, d: int):
    """Genus-g degree-d pair correlator with one index-1 insertion.

    The partner index is 2g + 2d - 3; the bracketed difference of the two
    alternating sums collapses to zero at d = 1.
    """
    if g < 0 or d < 1:
        raise MalformedValue(f"need g >= 0 and d >= 1, got g={g}, d={d}")
    w = 2 * g + 2 * d - 2
    s1 = sum(
        (-1) ** l * (2 * d - 1 - 2 * l) ** (w + 1) * binomial(2 * d - 1, l)
        for l in range(d)
    )
    s2 = sum(
        (-1) ** l
        * (2 * d - 1 - 2 * l) ** w
        * (binomial(2 * d - 2, l) - binomial(2 * d - 2, l - 1))
        for l in range(d)
    )
    inner = Rat(s1, factorial(d - 1) * factorial(d)) - Rat(s2, factorial(d - 1) ** 2)
    return inner / (4 ** (g + d - 1) * factorial(w))


# --- generating-function identities -------------------------------------------

def _mono(p, q, e) -> EpsLaurent:
    return EpsLaurent.monomial(Rat(p, q), e)


def _const_series(c: EpsLaurent) -> LambdaSeries:
    return LambdaSeries.from_eps(c, INF)


def _rhs_i1(a, b, c):
    return a


def _rhs_i2(a, b, c):
    return 2 * a.lam_shift(1) + b - c


def _rhs_i3(a, b, c):
    return (
        _const_series(EPS_ONE)
        + 3 * a.lam_shift(2)
        + 2 * a
        + 2 * b.lam_shift(1)
        - b * _mono(1, 2, 1)
        - 2 * c.lam_shift(1)
        - c * _mono(1, 2, 1)
    )


def _rhs_i4(a, b, c):
    lin = LambdaSeries({1: EpsLaurent.const(Rat(2))}, INF)
    return (
        lin
        + 4 * a.lam_shift(3)
        + 4 * a.lam_shift(1)
        + b * _mono(1, 4, 2)
        - b.lam_shift(1) * _mono(1, 1, 1)
        + 3 * b.lam_shift(2)
        + 2 * b
        - c * _mono(1, 4, 2)
        - c.lam_shift(1) * _mono(1, 1, 1)
        - 3 * c.lam_shift(2)
        - 2 * c
    )


def _rhs_i5(a, b, c):
    return (
        -b.lam_shift(1)
        + b * _mono(1, 2, 1)
        - c.lam_shift(1)
        - c * _mono(1, 2, 1)
    )


def _rhs_i6(a, b, c):
    return (
        _const_series(_mono(1, 1, 1))
        + a * _mono(2, 1, 1)
        - b.lam_shift(2)
        + b.lam_shift(1) * _mono(1, 1, 1)
        - b * _mono(1, 4, 2)
        - c.lam_shift(2)
        - c.lam_shift(1) * _mono(1, 1, 1)
        - c * _mono(1, 4, 2)
    )


# id -> (fixed insertions, eps prefactor exponent, resolvent combination)
IDENTITIES = {
    "I1": ((0,), _rhs_i1),
    "I2": ((1,), _rhs_i2),
    "I3": ((2,), _rhs_i3),
    "I4": ((3,), _rhs_i4),
    "I5": ((0, 1), _rhs_i5),
    "I6": ((1, 1), _rhs_i6),
}

IDENTITY_IDS = tuple(sorted(IDENTITIES))


@dataclass(frozen=True)
class IdentityReport:
    ident: str
    depth: int
    coefficients_checked: int


def identity_check(ident: str, depth: int = 12) -> IdentityReport:
    """Check one generating-function identity coefficient by coefficient.

    The left side sums correlator-engine values with fixed insertions
    against a running index k, weighted by factorials, as a series in the
    spectral variable through exponent -depth.  The right side is an
    explicit polynomial combination of the resolvent entries.  The two
    come from genuinely different pipelines, so agreement here checks the
    engines and the closed resolvent coefficients against each other.

    Raises IdentityViolation naming the first differing coefficient.
    """
    if ident not in IDENTITIES:
        raise MalformedValue(f"unknown identity {ident!r}; choose from {IDENTITY_IDS}")
    if depth < 4:
        raise MalformedValue(f"identity depth must be >= 4, got {depth}")
    prefix, rhs_fn = IDENTITIES[ident]

    scale = 1
    for k in prefix:
        scale *= factorial(k + 1)
    lhs = {}
    for k in range(depth - 1):
        if len(prefix) == 1:
            val = two_point(prefix[0], k)
        else:
            val = n_point(tuple(sorted(prefix + (k,), reverse=True)))
        term = val.shift(len(prefix) + 1) * (scale * factorial(k + 1))
        if term:
            lhs[-k - 2] = term

    bun = resolvent_bundle(depth + 6)
    rhs = rhs_fn(bun.alpha, bun.beta, bun.gamma)

    checked = 0
    for e in range(3, -depth - 1, -1):
        want = rhs.coeff(e)
        have = lhs.get(e, EPS_ZERO)
        checked += 1
        if have != want:
            raise IdentityViolation(
                f"{ident}: first differing coefficient at lam^{e}: "
                f"correlator side {have!r}, resolvent side {want!r}"
            )
    return IdentityReport(ident, depth, checked)


@dataclass(frozen=True)
class TraceDetReport:
    depth: int
    coefficients_checked: int


def trace_det_check(depth: int = 20) -> TraceDetReport:
    """Trace must be exactly 1 and determinant exactly 0 through -depth."""
    if depth < 0:
        raise MalformedValue(f"depth must be >= 0, got {depth}")
    r = resolvent_bundle(depth).r
    tr = r.trace()
    det = r.a * r.d - r.b * r.c
    checked = 0
    for e in range(0, -depth - 1, -1):
        want = EPS_ONE if e == 0 else EPS_ZERO
        if tr.coeff(e) != want:
            raise IdentityViolation(
                f"trace coefficient at lam^{e} is {tr.coeff(e)!r}, expected {want!r}"
            )
        if det.coeff(e):
            raise IdentityViolation(
                f"determinant coefficient at lam^{e} is {det.coeff(e)!r}, expected 0"
            )
        checked += 2
    return TraceDetReport(depth, checked)


# --- large-genus asymptotics ---------------------------------------------------

def asymptotic_constant(k: int, d: int):
    """Exact limit constant of the factorially rescaled pair correlators.

    Rejects (k, d) = (1, 1): the index-1 family is only claimed from
    degree 2 on (its degree-1 members all vanish, so the rescaled ratio
    is identically zero over a zero limit).
    """
    if k < 0:
        raise IndexOutOfRange(f"need k >= 0, got {k}")
    if d < 1:
        raise IndexOutOfRange(f"need d >= 1, got {d}")
    if k == 1 and d == 1:
        raise MalformedValue("the index-1 family needs degree >= 2")
    h = Rat(2 * d - 1, 2)
    bulk = 2 * h ** (2 * d) / (factorial(k + 1) * factorial(d) ** 2)
    return bulk * (1 + Rat((-1) ** k) / (2 ** (k + 1) * h ** (k + 1)))


def _pair_value(k: int, g: int, d: int):
    """Genus-g degree-d value of the pair (k, 2g + 2d - k - 2)."""
    if k == 0:
        return two_point_tau0_closed(g, d)
    if k == 1:
        return two_point_tau1_closed(g, d)
    partner = 2 * g + 2 * d - k - 2
    if partner < 0:
        raise MalformedValue(f"no partner index at k={k}, g={g}, d={d}")
    return two_point(k, partner).coeff(2 * g - 2)


def asymptotic_ratio(k: int, g: int, d: int):
    """Exact rescaled ratio (2g+2d-k-1)! <...>_{g,d} / (d - 1/2)^(2g)."""
    v = _pair_value(k, g, d)
    return factorial(2 * g + 2 * d - k - 1) * v / Rat(2 * d - 1, 2) ** (2 * g)


@dataclass(frozen=True)
class AsymptoticReport:
    k: int
    d: int
    limit: object
    limit_decimal: str
    rows: tuple  # (g, exact ratio, decimal string)


def asymptotic_report(k: int, d: int, g_max: int) -> AsymptoticReport:
    """Exact ratios g by g, with display decimals at 12 significant digits.

    g_max is capped at 40, the input range this report supports.
    """
    if not 0 <= g_max <= 40:
        raise MalformedValue(f"need 0 <= g_max <= 40, got {g_max}")
    limit = asymptotic_constant(k, d)  # validates k, d
    g_min = 0
    while 2 * g_min + 2 * d - k - 2 < 0:
        g_min += 1
    rows = []
    for g in range(g_min, g_max + 1):
        r = asymptotic_ratio(k, g, d)
        rows.append((g, r, decimal_str(r)))
    return AsymptoticReport(k, d, limit, decimal_str(limit), tuple(rows))


# --- branched-cover counts -----------------------------------------------------

def hurwitz(g: int, d: int):
    """Count of degree-d sphere covers with 2g + 2d - 2 simple branch points.

    Equals the all-index-1 correlator with that many insertions, evaluated
    through the commutator recursion (the insertion count outruns the
    direct cycle-sum engine's arity cap well before g + d does).
    """
    n = 2 * g + 2 * d - 2
    if g < 0 or d < 1 or n < 1:
        raise MalformedValue(
            f"need g >= 0, d >= 1 and 2g + 2d - 2 >= 1, got g={g}, d={d}"
        )
    return extract_bij(1, n - 2, 1, 1).coeff(2 * g - 2)


# --- bundled verification suites ------------------------------------------------

def _suite(name, checks, failures, **extra):
    out = {"suite": name, "checks": checks, "failures": failures}
    out.update(extra)
    return out


def verify_identities(depth: int = 12) -> dict:
    checks = 0
    failures = []
    for ident in IDENTITY_IDS:
        try:
            rep = identity_check(ident, depth)
            checks += rep.coefficients_checked
        except P1GWError as err:
            checks += 1
            failures.append(str(err))
    return _suite("identities", checks, failures)


def verify_degree1() -> dict:
    checks = 0
    failures = []

    def expect(label, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            failures.append(f"{label}: got {rat_str(got)}, expected {rat_str(want)}")

    for ks, want in reference.DEGREE1_SPOT:
        expect(f"spot {ks}", degree_one(ks), Rat(want))
    # frozen degree-one cells across the tables: the d = 1 column sits at
    # genus b*n/2 whenever that lands inside the printed window
    for b, rows in reference.TABLES.items():
        for n, row in rows.items():
            if b * n % 2:
                continue
            g = b * n // 2
            if g < len(row):
                expect(f"table b={b} n={n} g={g}", degree_one((b,) * n), Rat(row[g]))
    # engine agreement on small pairs, including odd-index vanishing
    for ks in ((0, 0), (2, 2), (1, 1), (0, 4), (3, 1)):
        g = sum(ks) // 2
        expect(
            f"engine pair {ks}",
            two_point(*ks).coeff(2 * g - 2),
            degree_one(ks),
        )
    return _suite("degree1", checks, failures)


def verify_tables() -> dict:
    checks = 0
    failures = []
    conflicts = []
    plans = dict.fromkeys(reference.ACCEPTANCE_TABLE_SCOPE)
    for b in plans:
        n_max = max(reference.ACCEPTANCE_TABLE_SCOPE[b])
        plans[b] = polygon_table(b, n_max)
    for b, tab in plans.items():
        for n in reference.ACCEPTANCE_TABLE_SCOPE[b]:
            row = reference.table_row(b, n)
            for g, want in enumerate(row):
                if g > tab.g_max:
                    break
                checks += 1
                got = tab.cell(n, g)
                if got != want:
                    failures.append(
                        f"b={b} n={n} g={g}: got {rat_str(got)}, "
                        f"expected {rat_str(want)}"
                    )
    for b, n in reference.KNOWN_CONFLICT_ROWS:
        series = one_point(b)
        row = reference.table_row(b, n)
        for g, want in enumerate(row):
            got = series.coeff(2 * g - 2)
            if got == want:
                checks += 1
                continue
            conflicts.append(
                f"b={b} n={n} g={g}: known-conflict (tabulated {rat_str(want)}, "
                f"one-point series {rat_str(got)})"
            )
    expected = {
        (int(b), int(g)): Rat(tabulated)
        for (b, n, g), (tabulated, _) in reference.KNOWN_CONFLICTS.items()
    }
    for key in expected:
        checks += 1
        if not any(f"b={key[0]} n=1 g={key[1]}:" in c for c in conflicts):
            failures.append(
                f"expected known-conflict cell b={key[0]} n=1 g={key[1]} "
                "now agrees; reference data needs review"
            )
    if len(conflicts) != len(expected):
        failures.append(
            f"unexpected conflict set: {conflicts!r}"
        )
    return _suite("tables", checks, failures, known_conflicts=conflicts)


def verify_stability() -> dict:
    checks = 0
    failures = []
    for ks, _ in reference.FLAGSHIP:
        checks += 1
        d = default_depth(ks)
        try:
            stability_check(ks, d, d + 4)
        except P1GWError as err:
            failures.append(f"{ks}: {err}")
    return _suite("stability", checks, failures)


def verify_determinant(depth: int = 20) -> dict:
    try:
        rep = trace_det_check(depth)
        return _suite("determinant", rep.coefficients_checked, [])
    except P1GWError as err:
        return _suite("determinant", 1, [str(err)])


VERIFY_SUITES = {
    "identities": verify_identities,
    "degree1": verify_degree1,
    "tables": verify_tables,
    "stability": verify_stability,
    "determinant": verify_determinant,
}
