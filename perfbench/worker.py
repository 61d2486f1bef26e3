"""Run process of the benchmark: times a plan, or replays it under spans.

    python3 perfbench/worker.py run   < plan.json   # untraced timed loop
    python3 perfbench/worker.py trace < plan.json   # traced replay
    python3 perfbench/worker.py cli-op < argv.json  # one traced CLI command
    python3 perfbench/worker.py sample              # loop times until stdin closes

The package must be importable (PYTHONPATH=src). The result is one JSON
object on stdout. The package is imported lazily so that the cli-op mode can
time a fresh interpreter's import.

The sample mode runs beside the run or trace mode, on the same CPU, and
times a fixed loop (reference_s) every SAMPLE_EVERY_S. On a shared 2-core
container the same code ran up to 1.7x slower in phases of one to tens of
seconds, so run.py scales the time of each operation by the CPU's mean
speed while it ran; see speed_factor in run.py.

The untraced loop calls the public entry point of each operation and times
it alone. The traced replay makes, in the same order, the public calls that
the operation makes internally, one span per call, so that the memos are in
the same state as in the untraced run:

    correlator(ks), n >= 3 -> resolvent_bundle(d), entry_table(d),
        n_point(ks, d, check_cancellation=False), the same with True
        (probes = checked - unchecked, a derived span),
        resolvent_bundle(d + 4), n_point(ks, d + 4, False)
    correlator(ks), n = 2  -> resolvent_bundle(d), two_point(k1, k2, d),
        resolvent_bundle(d + 4), two_point(k1, k2, d + 4, False)
    correlator((k,))       -> one_point(k)
    polygon_table(b, n)    -> resolvent_bundle(D), per even row one_point or
        rm_equal(b, n - 2, D, cap) then extract_bij(b, n - 2, b, b, D, cap);
        then the same rows at D + 4 under a table_rerun span
    extract_bij(b, m, i, j) -> resolvent_bundle(D), rm_equal(b, m, D),
        extract_bij(b, m, i, j, depth=D)
    p1gw.cli argv          -> a fresh interpreter that imports p1gw.cli,
        runs cli.main(argv), replays oracles.VERIFY_SUITES[suite] for verify
        and re-renders the output with render.to_json or render.render_rows
"""

import contextlib
import csv
import io
import json
import os
import resource
import select
import subprocess
import sys
import traceback
from time import perf_counter

CLI_TIMEOUT_S = 120
REF_TERMS = 300
REF_NOMINAL_S = 0.002  # unit of the scaled times; the loop took 1.6-2.7 ms on a 2.1 GHz x86-64 core
SAMPLE_EVERY_S = 0.05


def reference_s():
    """Time of a fixed loop of exact rational arithmetic: the current speed
    of this core on the kind of work the package does. Its numerators and
    denominators grow to over a hundred digits, like the package's, and it
    tracked the slow phases of the package's operations better than a loop
    of small integers did."""
    from fractions import Fraction  # here, so that cli_op times the package importing it

    t0 = perf_counter()
    x = Fraction(1, 3)
    for i in range(1, REF_TERMS):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    return perf_counter() - t0


def sample():
    """(time, reference_s()) every SAMPLE_EVERY_S until stdin reaches EOF."""
    reference_s()  # imports fractions outside the first sample
    points = []
    while True:
        points.append((perf_counter(), reference_s()))
        if select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
            return points


class Tracer:
    """In-memory span recorder: name, start, end, parent span and op id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def derived(self, name, minuend, subtrahend):
        """Stage obtained by subtraction: duration(minuend) - duration(subtrahend)."""
        dur = (minuend["end"] - minuend["start"]) - (subtrahend["end"] - subtrahend["start"])
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": minuend["parent"],
            "start": minuend["start"],
            "end": minuend["start"] + dur,
            "derived": True,
        })

    def adopt(self, spans, parent):
        """Append spans recorded by another process below span `parent`."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, id=s["id"] + base, op=self.op)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            self.spans.append(s)


def eps_terms(value):
    """EpsLaurent -> {"exponent": "p/q"} for its nonzero terms."""
    return {str(e): str(c) for e, c in sorted(value.terms.items()) if c}


def parse_tabular(text, fmt):
    """Split csv, markdown or latex table output into (headers, rows).

    Lines that belong to no table row, such as a trailer, are dropped.
    """
    lines = text.splitlines()
    if fmt == "csv":
        cells = list(csv.reader(lines))
    elif fmt == "markdown":
        cells = [l[2:-2].split(" | ") for l in lines if l.startswith("| ")]
        del cells[1:2]  # the | --- | separator row
    elif fmt == "latex":
        cells = [l[:-3].split(" & ") for l in lines if l.endswith(" \\\\")]
    else:
        raise ValueError(f"not a tabular format: {fmt!r}")
    headers = cells[0]
    return headers, [row for row in cells[1:] if len(row) == len(headers)]


def cli_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


# --- untraced timed loop -----------------------------------------------------

def _run_op(op):
    """Run one operation; return (start, end, JSON-ready output)."""
    import p1gw

    kind = op["kind"]
    if kind == "correlator":
        t0 = perf_counter()
        rec = p1gw.correlator(op["ks"])
        t1 = perf_counter()
        return t0, t1, {"value": eps_terms(rec.value), "depth": rec.depth_used,
                    "stable": rec.stability_verified}
    if kind == "table":
        t0 = perf_counter()
        tab = p1gw.polygon_table(op["b"], op["n_max"])
        t1 = perf_counter()
        return t0, t1, {"rows": [[str(c) for c in row] for row in tab.rows],
                    "g_max": tab.g_max, "depth": tab.depth_used,
                    "stable": tab.stability_verified}
    if kind == "pair":
        t0 = perf_counter()
        value = p1gw.extract_bij(op["b"], op["m"], op["i"], op["j"])
        t1 = perf_counter()
        return t0, t1, {"value": eps_terms(value)}
    if kind == "cli":
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "p1gw.cli", *op["argv"]],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        t1 = perf_counter()
        return t0, t1, {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    raise ValueError(f"unknown operation kind {kind!r}")


def run_plan(ops):
    import p1gw  # noqa: F401  (import cost is setup_s, not wall_s)

    results = []
    t_start = perf_counter()
    for op in ops:
        try:
            t0, t1, out = _run_op(op)
            results.append({"id": op["id"], "start": t0, "end": t1, "out": out})
        except Exception:  # one failed operation must not end the run
            results.append({"id": op["id"], "error": traceback.format_exc()})
    wall = perf_counter() - t_start
    who = resource.RUSAGE_CHILDREN if ops and ops[0]["kind"] == "cli" else resource.RUSAGE_SELF
    return {"wall_s": wall, "peak_rss_kib": resource.getrusage(who).ru_maxrss, "ops": results}


# --- traced replay -------------------------------------------------------------

def _replay_correlator(tr, ks):
    from p1gw import correlators, resolvent

    ks = tuple(sorted(ks, reverse=True))
    if len(ks) == 1:
        with tr.span("correlators.one_point"):
            return correlators.one_point(ks[0])
    d = correlators.default_depth(ks)
    with tr.span("resolvent.build"):
        resolvent.resolvent_bundle(d)
    if len(ks) == 2:
        with tr.span("correlators.two_point"):
            value = correlators.two_point(*ks, depth=d)
        with tr.span("resolvent.build"):
            resolvent.resolvent_bundle(d + 4)
        with tr.span("correlators.stability_rerun"):
            again = correlators.two_point(*ks, depth=d + 4, check_cancellation=False)
    else:
        with tr.span("resolvent.entry_table"):
            resolvent.entry_table(d)
        with tr.span("correlators.cycle_main") as main:
            value = correlators.n_point(ks, depth=d, check_cancellation=False)
        with tr.span("correlators.cycle_checked") as checked:
            correlators.n_point(ks, depth=d, check_cancellation=True)
        tr.derived("correlators.cycle_probe", checked, main)
        with tr.span("resolvent.build"):
            resolvent.resolvent_bundle(d + 4)
        with tr.span("correlators.stability_rerun"):
            again = correlators.n_point(ks, depth=d + 4, check_cancellation=False)
    if again != value:
        raise RuntimeError(f"replay of {ks} changed between depths {d} and {d + 4}")
    return value


def _table_rows(tr, b, n_max, g_max, depth, cap):
    from p1gw import correlators, recursion

    rows = []
    for n in range(1, n_max + 1):
        if (b * n) % 2:
            rows.append(["0"] * (g_max + 1))
            continue
        if n == 1:
            with tr.span("correlators.one_point"):
                series = correlators.one_point(b)
        else:
            with tr.span("recursion.level"):
                recursion.rm_equal(b, n - 2, depth, cap)
            with tr.span("recursion.extract"):
                series = recursion.extract_bij(b, n - 2, b, b, depth=depth, eps_cap=cap)
        rows.append([str(series.coeff(2 * g - 2)) for g in range(g_max + 1)])
    return rows


def _replay_table(tr, b, n_max, g_max, depth):
    from p1gw import resolvent

    cap = n_max * (b + 1) + 2  # the eps cap polygon_table uses
    with tr.span("resolvent.build"):
        resolvent.resolvent_bundle(depth)
    rows = _table_rows(tr, b, n_max, g_max, depth, cap)
    with tr.span("recursion.table_rerun"):
        with tr.span("resolvent.build"):
            resolvent.resolvent_bundle(depth + 4)
        again = _table_rows(tr, b, n_max, g_max, depth + 4, cap)
    if again != rows:
        raise RuntimeError(f"replay of table b={b} changed between depths")
    return rows


def _replay_pair(tr, b, m, i, j):
    from p1gw import recursion, resolvent

    d = recursion.default_extract_depth(b, m, i, j)
    with tr.span("resolvent.build"):
        resolvent.resolvent_bundle(d)
    with tr.span("recursion.level"):
        recursion.rm_equal(b, m, d)
    with tr.span("recursion.extract"):
        return recursion.extract_bij(b, m, i, j, depth=d)


def _replay_cli(tr, argv, parent):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "cli-op"],
        input=json.dumps(argv), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode:
        raise RuntimeError(f"cli replay failed: {proc.stderr}")
    got = json.loads(proc.stdout)
    tr.adopt(got["spans"], parent)
    return got["exit"], got["stdout"]


def trace_plan(ops, expected):
    """Replay ops under spans; `expected` maps op id -> untraced output."""
    tr = Tracer()
    with tr.span("import"):
        import p1gw  # noqa: F401
    from p1gw import recursion, resolvent

    mismatches = []
    for op in ops:
        tr.op = op["id"]
        want = expected.get(op["id"])
        kind = op["kind"]
        try:
            with tr.span(f"op.{kind}") as op_span:
                if kind == "correlator":
                    same = eps_terms(_replay_correlator(tr, op["ks"])) == want["value"]
                elif kind == "table":
                    rows = _replay_table(tr, op["b"], op["n_max"], want["g_max"], want["depth"])
                    same = rows == want["rows"]
                elif kind == "pair":
                    same = eps_terms(_replay_pair(tr, op["b"], op["m"], op["i"], op["j"])) == want["value"]
                else:
                    code, out = _replay_cli(tr, op["argv"], op_span["id"])
                    same = (code, out) == (want["exit"], want["stdout"])
            if not same:
                mismatches.append(f"op {op['id']}: replay output differs from the untraced run")
        except Exception:  # recorded as a mismatch; the replay goes on
            mismatches.append(f"op {op['id']}: {traceback.format_exc()}")
    memo = sum(len(vars(recursion).get(name, ())) for name in ("_EQUAL_MEMO", "_FAMILY_MEMO"))
    return {
        "spans": tr.spans,
        "mismatches": mismatches,
        "bundle_misses": resolvent.resolvent_bundle.cache_info().misses,
        "memo_entries": memo,
    }


def cli_op(argv):
    """One CLI command in this fresh interpreter, with import, main,
    verify-suite and render spans."""
    tr = Tracer()
    with tr.span("cli.import"):
        from p1gw import cli, oracles, render
    out, err = io.StringIO(), io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if code == 0:
        args = cli.build_parser().parse_args(argv)
        if args.command == "verify":
            depth = {"identities": 12, "determinant": 20}.get(args.suite)
            with tr.span("oracles.verify"):
                oracles.VERIFY_SUITES[args.suite](*([args.depth or depth] if depth else []))
        fmt = "json" if args.command == "verify" else args.format
        if fmt == "json":
            obj = json.loads(text)
            with tr.span("render.emit"):
                render.to_json(obj)
        else:
            headers, rows = parse_tabular(text, fmt)
            with tr.span("render.emit"):
                render.render_rows(headers, rows, fmt)
    return {"exit": code, "stdout": text, "spans": tr.spans}


def main():
    mode = sys.argv[1]
    if mode == "sample":
        json.dump(sample(), sys.stdout)
        return
    payload = json.load(sys.stdin)
    if mode == "run":
        result = run_plan(payload)
    elif mode == "trace":
        result = trace_plan(payload["ops"], {int(k): v for k, v in payload["expected"].items()})
    elif mode == "cli-op":
        result = cli_op(payload)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
