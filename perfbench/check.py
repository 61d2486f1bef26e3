"""Correctness gate: each operation's exact output against an independent route.

Routes: the frozen flagship values and table rows in p1gw.reference (with
the quarantined single-insertion cells replaced by their cross-checked
one-point values), oracles.degree_one on the degree-one cell, the closed
two-point families where an index is 0 or 1, the frozen resolvent head, and
exact zero for odd index sums. CLI outputs are also checked for their exit
code and, for JSON, for a byte-identical canonical round trip. Runs in the
benchmark's own process, after the timed run.
"""

import json
from functools import lru_cache
from math import factorial

from worker import cli_format, parse_tabular


def _rat(s):
    from p1gw import rat_from_str

    return rat_from_str(s)


@lru_cache(maxsize=None)
def _flagships():
    from p1gw import reference

    return {ks: terms for ks, terms in reference.flagship_series()}


@lru_cache(maxsize=None)
def _table_row(b, n):
    """Frozen row (b, n), quarantined cells replaced; None if not printed."""
    from p1gw import reference

    row = reference.table_row(b, n)
    if row is None:
        return None
    row = list(row)
    for (cb, cn, g), (_, series_value) in reference.KNOWN_CONFLICTS.items():
        if (cb, cn) == (b, n):
            row[g] = _rat(series_value)
    return tuple(row)


def check_terms(ks, terms):
    """Check a genus series {eps exponent: Rat} of the correlator <tau_ks>."""
    from p1gw import oracles, reference

    ks = tuple(sorted(ks, reverse=True))
    total = sum(ks)
    nonzero = {e: v for e, v in terms.items() if v}
    if total % 2:
        return [f"{ks}: odd index sum but nonzero terms {nonzero}"] if nonzero else []
    bad = [e for e in nonzero if e % 2 or not -2 <= e <= total]
    if bad:
        return [f"{ks}: eps exponents {bad} admit no (g, d) cell"]
    problems = []

    def expect(what, e, want):
        got = terms.get(e, 0)
        if got != want:
            problems.append(f"{ks} {what} at eps^{e}: got {got}, expected {want}")

    frozen = _flagships().get(ks)
    if frozen is not None and nonzero != {e: v for e, v in frozen.items() if v}:
        problems.append(f"{ks}: differs from the frozen flagship value")
    expect("degree-one cell", total - 2, oracles.degree_one(ks))
    if len(ks) == 1:
        k = ks[0]
        for e, v in (reference.one_point_head(k) or {}).items():
            expect("one-point head", e - 1, v / factorial(k + 1))
        for g, v in enumerate(_table_row(k, 1) or ()):
            expect("frozen n=1 row", 2 * g - 2, v)
    if len(ks) == 2 and ks[1] in (0, 1):
        closed = oracles.two_point_tau0_closed if ks[1] == 0 else oracles.two_point_tau1_closed
        for g in range((total + 2) // 2):
            expect("closed two-point family", 2 * g - 2, closed(g, (total + 2) // 2 - g))
    return problems


def check_table(b, n_max, rows):
    from p1gw import oracles

    problems = []
    g_max = len(rows[0]) - 1
    for n, row in enumerate(rows, start=1):
        row = [_rat(c) for c in row]
        if (b * n) % 2 and any(row):
            problems.append(f"table b={b} n={n}: odd total weight but nonzero cells")
        for g, want in enumerate(_table_row(b, n) or ()):
            if g <= g_max and row[g] != want:
                problems.append(f"table b={b} n={n} g={g}: got {row[g]}, expected {want}")
        g1 = b * n // 2
        if (b * n) % 2 == 0 and g1 <= g_max and row[g1] != oracles.degree_one((b,) * n):
            problems.append(f"table b={b} n={n}: degree-one cell {row[g1]}")
    return problems


def _terms(obj):
    return {int(e): _rat(v) for e, v in obj.items()}


# --- CLI outputs ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _engine_ratio(k, g, d):
    """Asymptotic ratio through the two-point engine, not the closed forms."""
    from p1gw import Rat, two_point

    v = two_point(k, 2 * g + 2 * d - k - 2).coeff(2 * g - 2)
    return factorial(2 * g + 2 * d - k - 1) * v / Rat(2 * d - 1, 2) ** (2 * g)


@lru_cache(maxsize=None)
def _head_cells():
    """Frozen resolvent head as {exponent: {entry: (json object, poly string)}}."""
    from p1gw import render
    from p1gw.resolvent import PRINTED_HEAD

    return {
        e: {name: (render.eps_series_obj(v), render.eps_poly_str(v))
            for name, v in zip("abcd", (a, b, c, d))}
        for e, ((a, b), (c, d)) in PRINTED_HEAD.items()
    }


def _cli_rows(cmd, fmt, text):
    """Table output as a list of dicts keyed like the JSON rows."""
    if fmt == "json":
        obj = json.loads(text)
        if cmd == "correlator":
            return obj, obj["by_genus"]
        if cmd == "table":
            return obj, [dict(c, n=r["n"]) for r in obj["rows"] for c in r["cells"]]
        if cmd == "resolvent":
            return obj, [dict(obj["entries"][k], lam_exp=k) for k in obj["entries"]]
        return obj, obj["rows"]
    headers, rows = parse_tabular(text, fmt)
    if cmd == "table":
        return None, [{"n": r[0], "g": h[2:], "value": c}
                      for r in rows for h, c in zip(headers[1:], r[1:])]
    return None, [dict(zip(headers, r)) for r in rows]


def check_cli(op, out):
    argv, fmt = op["argv"], cli_format(op["argv"])
    code, text = out["exit"], out["stdout"]
    if code != op["exit"]:
        return [f"{argv}: exit code {code}, expected {op['exit']}: {out['stderr'][-300:]}"]
    if code != 0:
        return [] if not text and out["stderr"] else [f"{argv}: usage error output malformed"]
    cmd = argv[0]
    if cmd == "verify" or fmt == "json":
        if json.dumps(json.loads(text), indent=2) + "\n" != text:
            return [f"{argv}: JSON output is not canonical"]
    if cmd == "verify":
        rep = json.loads(text)
        return [] if rep["suite"] == argv[1] and not rep["failures"] and rep["checks"] else [
            f"{argv}: verify report {rep}"]
    obj, rows = _cli_rows(cmd, fmt, text)
    opt = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "correlator":
        ks = tuple(int(k) for k in argv[1:argv.index("--format")])
        terms = {2 * int(r["g"]) - 2: _rat(r["value"]) for r in rows}
        problems = check_terms(ks, terms)
        series = {e: v for e, v in _terms(obj["eps_series"]).items() if v} if obj else None
        if obj is not None and series != {e: v for e, v in terms.items() if v}:
            problems.append(f"{argv}: eps_series disagrees with by_genus")
        return problems
    if cmd == "table":
        b, n_max = int(opt["--b"]), int(opt["--n-max"])
        grid = [[None] * (len(rows) // n_max) for _ in range(n_max)]
        for r in rows:
            grid[int(r["n"]) - 1][int(r["g"])] = r["value"]
        return check_table(b, n_max, grid)
    if cmd == "hurwitz":
        n_max = int(opt["--n-max"])
        grid = {(int(r["branch_points"]), int(r["g"])): _rat(r["count"]) for r in rows}
        want = {(n, g): v for n in range(2, n_max + 1, 2)
                for g, v in enumerate(_table_row(1, n)) if g <= n // 2}
        return [] if grid == want else [f"{argv}: counts differ from the frozen b=1 table"]
    if cmd == "asymptotics":
        k, d = int(opt["--k"]), int(opt["--d"])
        return [f"{argv}: ratio at g={r['g']} is {r['ratio']}"
                for r in rows if _rat(r["ratio"]) != _engine_ratio(k, int(r["g"]), d)]
    if cmd == "resolvent":
        head = _head_cells()
        problems = []
        for r in rows:
            e = int(r["lam_exp"])
            for name in ("abcd" if e in head else ()):
                want = head[e][name][0 if fmt == "json" else 1]
                if r[name] != want:
                    problems.append(f"{argv}: lam^{e} entry {name} is {r[name]}")
        return problems
    return [f"{argv}: no check for command {cmd!r}"]


def check_op(op, out):
    """Problems with one operation's output; an empty list means correct."""
    kind = op["kind"]
    if kind == "correlator":
        problems = check_terms(op["ks"], _terms(out["value"]))
        if len(op["ks"]) >= 2 and not out["stable"]:
            problems.append(f"{op['ks']}: stability not verified")
        return problems
    if kind == "pair":
        ks = (op["b"],) * op["m"] + (op["i"], op["j"])
        return check_terms(ks, _terms(out["value"]))
    if kind == "table":
        problems = check_table(op["b"], op["n_max"], out["rows"])
        return problems if out["stable"] else problems + ["table stability not verified"]
    return check_cli(op, out)
