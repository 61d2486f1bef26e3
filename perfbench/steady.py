"""Steadiness sweeps and comparisons of benchmark results.

    python3 perfbench/steady.py sweep --seeds 1-10 --out sweep.json
    python3 perfbench/steady.py compare perfbench/baseline.json sweep.json

sweep runs perfbench/run.py once per workload and seed (untraced, with the
run_seconds of BENCHMARK.json), then records for every end-to-end metric
the ten values, their median and quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, marking spreads at or above a third of the
metric's bound; the same statistics of the unscaled times are kept beside
them. compare prints the change of each median against a base
sweep and exits 1 if a metric got worse by more than its bound. It refuses
to compare sweeps made with different rational backends or Python
versions, which move the numbers several-fold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ENV_KEYS = ("backend", "python", "nproc", "commit", "src_sha256")


def load_spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"env": None, "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in [wl["name"] for wl in spec["workloads"]]:
        values, unscaled, flagships, failed = {}, {}, {}, 0
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode:
                sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            report = json.loads(Path(f".perfbench/{w}-seed{seed}-trace0.json").read_text())
            env = {k: report["env"][k] for k in ENV_KEYS}
            if summary["env"] is None:
                summary["env"] = env
            elif env != summary["env"]:
                sys.exit(f"environment changed during the sweep: {env} != {summary['env']}")
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in report["unscaled"].items():
                unscaled.setdefault(name, []).append(v)
            for row in report["flagship_ops"]:
                flagships.setdefault(str(tuple(row["input"][1])), []).append(row["ms"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "steady": spread < bounds[name] / 3, "values": vals}
            print(f"  {w:<8} {name:<12} median {med:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
                  f"spread {spread:.4f} (bound/3 {bounds[name] / 3:.4f})"
                  f"{'' if stats[name]['steady'] else '  NOT STEADY'}")
        raw = {}
        for name, vals in unscaled.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            raw[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print(f"  {w:<8} {name:<12} unscaled: median {med:<10.5g} spread {(q3 - q1) / med:.4f}")
        summary["workloads"][w] = {
            "failed": failed,
            "metrics": stats,
            "unscaled": raw,
            "flagship_ms_median": {k: statistics.median(v) for k, v in flagships.items()},
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


def compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = (json.loads(Path(p).read_text()) for p in (args.base, args.new))
    for key in ("backend", "python"):
        if base["env"][key] != new["env"][key]:
            sys.exit(f"refusing to compare: {key} {base['env'][key]} vs {new['env'][key]}")
    worse = 0
    for w, wstats in new["workloads"].items():
        for name, s in wstats["metrics"].items():
            b = base["workloads"].get(w, {}).get("metrics", {}).get(name)
            if b is None:
                continue
            change = s["median"] / b["median"] - 1
            if metrics[name]["better"] == "higher":
                change = -change
            bad = change > metrics[name]["bound"]
            worse += bad
            print(f"{w:<8} {name:<12} {b['median']:<10.5g} -> {s['median']:<10.5g} "
                  f"{change:+.2%} worse (bound {metrics[name]['bound']:.0%})"
                  f"{'  REGRESSION' if bad else ''}")
    sys.exit(1 if worse else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("sweep")
    sp.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=sweep)
    sp = sub.add_parser("compare")
    sp.add_argument("base")
    sp.add_argument("new")
    sp.set_defaults(func=compare)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
