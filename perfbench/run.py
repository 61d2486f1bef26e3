"""Benchmark for p1gw: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 18 --trace 0

Run it from the repository root; the package is taken from ./src. One
client in one process issues the workload's operations one after another
(a closed loop, no threads, never --jobs or --cache-dir). The untraced run
happens in a separate run process (perfbench/worker.py), whose peak memory
is reported; for the cli workload that process only starts the CLI
processes, and their peak memory is reported. Every output is then checked
against an independent route (perfbench/check.py). Times measured in the
run process are scaled to a reference speed sampled beside it (see
speed_factor and perfbench/README.md).

--trace 0 prints the end-to-end metrics. --trace 1 also replays the plan,
in the same order, in another process with one span per public call, and
prints the per-layer metrics (self times, counts and the tracing overhead,
traced time minus the untraced wall_s). Spans and the full report are
written under .perfbench/ in the current directory. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only if every check passed.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import check
from plan import FLAGSHIPS, ODD_HEAVY, WORKLOADS, make_plan
from worker import REF_NOMINAL_S

SETUP_RUNS = 15
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
HERE = Path(__file__).resolve().parent

# End-to-end metrics of the result line (the end_to_end list of
# BENCHMARK.json), then those only printed and kept in the report: on runs
# of 12 to 16 operations the median operation's time spreads too widely
# between runs to be gated, and fail_ratio is 0 when the run is correct.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p95_ms": "ms", "peak_rss_mb": "MiB"}
REPORTED = dict(END_TO_END, op_p50_ms="ms", fail_ratio="ratio")
# per-layer metric -> span whose summed self time it reports
LAYER_SPANS = {
    "resolvent.build_s": "resolvent.build",
    "resolvent.entry_table_s": "resolvent.entry_table",
    "correlators.cycle_main_s": "correlators.cycle_main",
    "correlators.cycle_probe_s": "correlators.cycle_probe",
    "correlators.two_point_s": "correlators.two_point",
    "correlators.one_point_s": "correlators.one_point",
    "correlators.stability_rerun_s": "correlators.stability_rerun",
    "recursion.level_s": "recursion.level",
    "recursion.extract_s": "recursion.extract",
    "oracles.verify_s": "oracles.verify",
    "cli.import_s": "cli.import",
    "cli.main_s": "cli.main",
    "render.emit_s": "render.emit",
}
PER_LAYER_UNITS = dict(
    {name: "s" for name in LAYER_SPANS},
    **{
        "resolvent.bundle_misses": "count",
        "correlators.zero_result_s": "s",
        "correlators.escalations": "count",
        "recursion.table_rerun_s": "s",
        "recursion.memo_entries": "count",
        "trace.overhead_s": "s",
    },
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(src):
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def run_json(args, payload, env, timeout=RUN_TIMEOUT_S):
    proc = subprocess.run(
        [sys.executable, *args], input=json.dumps(payload), env=env,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode:
        fail(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def measure_setup(module, env):
    """Median import time of `module` in fresh interpreters, one warm-up
    first: (scaled, unscaled). Each interpreter times the reference loop
    right after the import, on its own core, and its import time is scaled
    by that."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            f"dt = time.perf_counter() - t; import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"from worker import reference_s; print(dt, min(reference_s() for _ in range(5)))")
    scaled, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode:
            fail(f"importing {module} failed:\n{proc.stderr[-2000:]}")
        dt, ref = map(float, proc.stdout.split())
        scaled.append(dt * REF_NOMINAL_S / ref)
        raw.append(dt)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def pin_to_one_cpu():
    """Restrict this process and the processes it starts to one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


class Sampler:
    """The reference-loop sampler (worker.py sample) running beside the run."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "sample"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def stop(self):
        """Stop the sampler and return its (time, reference time) points."""
        out, _ = self.proc.communicate(timeout=30)
        return json.loads(out) if self.proc.returncode == 0 else []


def speed_factor(points, start, end, default=1.0):
    """Mean of REF_NOMINAL_S / reference time over the samples taken
    between start and end: the mean speed of the CPU over that time, so
    that a summed time scaled by it counts each second at the speed the CPU
    had then. `default` if nothing was sampled."""
    times = [t for t, _ in points]
    window = points[bisect.bisect_left(times, start):bisect.bisect_right(times, end)]
    return statistics.fmean(REF_NOMINAL_S / r for _, r in window) if window else default


def environment(seed, root):
    from p1gw import Rat

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "p1gw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "backend": f"{Rat.__module__}.{Rat.__name__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def canonical_input(op):
    """(kind, input) with orders that the program ignores normalised away."""
    kind = op["kind"]
    if kind == "correlator":
        return kind, tuple(sorted(op["ks"], reverse=True))
    if kind == "pair":
        return kind, (op["b"], op["m"], max(op["i"], op["j"]), min(op["i"], op["j"]))
    if kind == "table":
        return kind, (op["b"], op["n_max"])
    return kind, tuple(op["argv"])


def insertions(op):
    if op["kind"] == "correlator":
        return tuple(op["ks"])
    if op["kind"] == "pair":
        return (op["b"],) * op["m"] + (op["i"], op["j"])
    return None


def properties(workload, ops, outs):
    """Shares of the inputs that later claims can cite."""
    from p1gw import correlators, recursion, resolvent

    n = len(ops)
    seen, repeated = set(), 0
    for op in ops:
        key = canonical_input(op)
        repeated += key in seen
        seen.add(key)
    props = {
        "operations": n,
        "kind_share": {k: c / n for k, c in sorted(Counter(op["kind"] for op in ops).items())},
        "repeated_input_share": repeated / n,
    }
    with_ks = [insertions(op) for op in ops if insertions(op) is not None]
    if with_ks:
        props["odd_index_sum_share"] = sum(sum(ks) % 2 for ks in with_ks) / len(with_ks)
        props["insertion_count_share"] = {
            str(c): k / len(with_ks) for c, k in sorted(Counter(map(len, with_ks)).items())
        }
    depths = set()
    for op in ops:
        out = outs.get(op["id"]) or {}
        if op["kind"] == "correlator" and len(op["ks"]) >= 2:
            d = correlators.default_depth(op["ks"])
            depths |= {d, d + 4}
        elif op["kind"] == "pair":
            depths.add(recursion.default_extract_depth(op["b"], op["m"], op["i"], op["j"]))
        elif op["kind"] == "table" and "depth" in out:
            depths |= {out["depth"], out["depth"] + 4}
    if workload != "cli":
        props["distinct_resolvent_depths"] = len(depths)
        props["resolvent_lru_size"] = resolvent.resolvent_bundle.cache_info().maxsize
    else:
        props["subcommand_share"] = {
            k: c / n for k, c in sorted(Counter(op["argv"][0] for op in ops).items())}
        fmts = Counter(check.cli_format(op["argv"]) for op in ops if op["exit"] == 0)
        props["format_share"] = {k: c / sum(fmts.values()) for k, c in sorted(fmts.items())}
        props["usage_error_share"] = sum(op["exit"] == 3 for op in ops) / n
    return props


def layer_metrics(trace, points, ops, outs, wall_s):
    """Per-layer metrics from the traced replay's spans, scaled by the
    CPU's mean speed over the replay."""
    from p1gw import correlators

    spans = trace["spans"]
    f = speed_factor(points, min(s["start"] for s in spans), max(s["end"] for s in spans))
    dur = {s["id"]: (s["end"] - s["start"]) * f for s in spans}
    child = Counter()
    for s in spans:
        if s["parent"] is not None and not s.get("derived"):
            child[s["parent"]] += dur[s["id"]]
    self_time = Counter({span: 0.0 for span in LAYER_SPANS.values()})
    for s in spans:
        self_time[s["name"]] += dur[s["id"]] - child[s["id"]]
    op_spans = [s for s in spans if s["name"].startswith("op.")]
    zero_ops = {op["id"] for op in ops
                if op["kind"] in ("correlator", "pair") and not (outs.get(op["id"]) or {}).get("value")}
    escalations = sum(
        (outs[op["id"]]["depth"] - correlators.default_depth(op["ks"])) // 4
        for op in ops if op["kind"] == "correlator" and op["id"] in outs
    )
    metrics = {name: self_time[span] for name, span in LAYER_SPANS.items()}
    metrics.update({
        "resolvent.bundle_misses": trace["bundle_misses"],
        "correlators.zero_result_s": sum(dur[s["id"]] for s in op_spans if s["op"] in zero_ops),
        "correlators.escalations": escalations,
        "recursion.table_rerun_s": sum(dur[s["id"]] for s in spans
                                       if s["name"] == "recursion.table_rerun"),
        "recursion.memo_entries": trace["memo_entries"],
        "trace.overhead_s": sum(dur[s["id"]] for s in op_spans) - wall_s,
    })
    self_by_span = {name: t for name, t in sorted(self_time.items())}
    return metrics, self_by_span


def quantile(values, q):
    """Inclusive-method quantile q in (0, 1) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "p1gw" / "__init__.py").is_file():
        fail(f"no package at {src / 'p1gw'}; run from the repository root")
    sys.path.insert(0, str(src))
    env = child_env(src)

    ops = make_plan(args.workload, args.seed, args.seconds)
    # The sampler shares one CPU with the run process and the processes it
    # starts, so that it reads the speed of the CPU they run on. Those run at
    # the lowest priority, so that they never preempt a loop of the sampler:
    # at equal priority the loop read 5-15% slower beside a stream of short
    # processes than beside one busy process, and the factor moved with the
    # program under test.
    pin_to_one_cpu()
    sampler = Sampler(env)
    os.nice(19)
    try:
        setup_s, raw_setup_s = measure_setup("p1gw.cli" if args.workload == "cli" else "p1gw", env)
        run = run_json([str(HERE / "worker.py"), "run"], ops, env)
        expected = {res["id"]: res["out"] for res in run["ops"] if "out" in res}
        trace = args.trace and run_json(
            [str(HERE / "worker.py"), "trace"], {"ops": ops, "expected": expected}, env)
    finally:
        points = sampler.stop()
    if not points:
        fail("the reference-loop sampler failed")

    outs, failures = {}, []
    for op, res in zip(ops, run["ops"]):
        if res.get("error"):
            failures.append(f"op {op['id']} {op}: raised\n{res['error']}")
            continue
        outs[op["id"]] = res["out"]
        try:
            problems = check.check_op(op, res["out"])
        except Exception:
            problems = [f"checking raised\n{traceback.format_exc()}"]
        if problems:
            failures.append(f"op {op['id']}: " + "; ".join(problems))

    timed = [(op, res) for op, res in zip(ops, run["ops"]) if "error" not in res]
    factor = speed_factor(points, min((r["start"] for _, r in timed), default=0),
                          max((r["end"] for _, r in timed), default=0))
    # Each operation is scaled by the samples taken while it ran, or by the
    # run's factor if it was too short to hold one: a long operation that
    # fell into a slow phase is then not scaled by the rest of the run.
    raw_ms = [1000 * (r["end"] - r["start"]) for _, r in timed] or [0.0]
    ms = [t * speed_factor(points, r["start"], r["end"], factor)
          for t, (_, r) in zip(raw_ms, timed)] or [0.0]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(ms) / 1000,
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": quantile(ms, 0.95),
        "peak_rss_mb": run["peak_rss_kib"] / 1024,
        "fail_ratio": len(failures) / len(ops),
    }
    report = {
        "workload": args.workload,
        "env": environment(args.seed, root),
        "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": REPORTED[k]} for k, v in metrics.items()},
        "unscaled": {
            "setup_s": raw_setup_s,
            "wall_s": run["wall_s"],
            "op_p50_ms": statistics.median(raw_ms),
            "op_p95_ms": quantile(raw_ms, 0.95),
            "speed_factor": factor,
        },
        "failures": failures,
        "properties": properties(args.workload, ops, outs),
        "op_ms": [
            {"op": op["id"], "input": canonical_input(op), "ms": t, "unscaled_ms": raw}
            for (op, _), t, raw in zip(timed, ms, raw_ms)
        ],
    }
    report["flagship_ops"] = [
        row for row in report["op_ms"]
        if row["input"][0] == "correlator" and row["input"][1] in FLAGSHIPS + (ODD_HEAVY,)
    ]
    result_metrics = {k: report["metrics"][k] for k in END_TO_END}
    correct = not failures
    if trace:
        layers, self_by_span = layer_metrics(trace, points, ops, outs, metrics["wall_s"])
        report["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
        report["self_time_by_span_s"] = self_by_span
        report["trace_mismatches"] = trace["mismatches"]
        result_metrics = report["per_layer"]
        correct = correct and not trace["mismatches"]
        spans_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in trace["spans"]))

    out_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1) + "\n")

    env_ = report["env"]
    print(f"workload {args.workload} seed {args.seed}: {env_['backend']}, Python "
          f"{env_['python']}, nproc {env_['nproc']}, commit {env_['commit']}, "
          f"src {env_['src_sha256'][:12]}")
    for name, m in report["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  {len(failures)} of {len(ops)} operations failed")
    for row in report["flagship_ops"]:
        print(f"  op {row['input'][1]!s:<29} {row['ms']:.1f} ms")
    for name, m in report.get("per_layer", {}).items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  properties {json.dumps(report['properties'])}")
    for line in failures + report.get("trace_mismatches", []):
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"  report {out_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
