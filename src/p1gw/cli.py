"""Command-line surface.

Subcommands: correlator, table, hurwitz, verify, asymptotics, resolvent.
Exit codes are a stable contract: 0 success, 1 verification or
computation failure, 2 unstable extraction, 3 usage error.
"""

import argparse
import sys
from typing import NamedTuple

from .completed import polygon_table
from .correlators import correlator
from .errors import (
    IndexOutOfRange,
    MalformedValue,
    P1GWError,
    UnstableExtraction,
)
from .rational import rat_str
from .render import FORMATS, decimal_str, eps_poly_str, eps_series_obj, render_rows, to_json

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNSTABLE = 2
EXIT_USAGE = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the CLI contract
    # reserves 2 for instability, so route usage problems through 3
    def error(self, message):
        raise CliUsageError(message)


class RunConfig(NamedTuple):
    depth_override: object = None
    stability: bool = True
    format: str = "json"


def _add_common(sp, depth=True, stability=True):
    # a subcommand registers only the flags it reads
    if depth:
        sp.add_argument("--depth", type=int, default=None, help="truncation depth override (>= 4)")
    if stability:
        sp.add_argument("--no-stability", action="store_true", help="skip the stability recheck")
    sp.add_argument("--format", choices=FORMATS, default="json", help="output format")


def _config(args) -> RunConfig:
    depth = getattr(args, "depth", None)
    if depth is not None and depth < 4:
        raise CliUsageError(f"--depth must be >= 4, got {depth}")
    return RunConfig(depth, not getattr(args, "no_stability", False), args.format)


def _emit(payload, headers, rows, cfg, trailer=None):
    if cfg.format == "json":
        sys.stdout.write(to_json(payload))
        return
    sys.stdout.write(render_rows(headers, rows, cfg.format))
    if trailer:
        sys.stdout.write(trailer + "\n")


def cmd_correlator(args, cfg: RunConfig) -> int:
    rec = correlator(tuple(args.k), depth=cfg.depth_override, stability=cfg.stability)
    payload = {
        "insertions": list(rec.insertions),
        "eps_series": eps_series_obj(rec.value),
        "by_genus": [
            {"g": g, "d": d, "value": rat_str(v)} for g, d, v in rec.by_genus
        ],
        "depth": rec.depth_used,
        "stable": rec.stability_verified,
    }
    rows = [(str(g), str(d), rat_str(v)) for g, d, v in rec.by_genus]
    _emit(payload, ("g", "d", "value"), rows, cfg)
    return EXIT_OK


def _polygon_payload(tab) -> dict:
    rows = []
    for n in range(1, len(tab.rows) + 1):
        cells = []
        for g in range(tab.g_max + 1):
            num = tab.b * n - 2 * g + 2
            d = num // 2 if num % 2 == 0 else None
            cells.append({"g": g, "d": d, "value": rat_str(tab.cell(n, g))})
        rows.append({"n": n, "cells": cells})
    return {
        "b": tab.b,
        "n_max": len(tab.rows),
        "g_max": tab.g_max,
        "depth": tab.depth_used,
        "stable": tab.stability_verified,
        "rows": rows,
    }


def cmd_table(args, cfg: RunConfig) -> int:
    b, n_max = args.b, args.n_max
    if not 0 <= b <= 6:
        raise CliUsageError(f"--b must be between 0 and 6, got {b}")
    if not 1 <= n_max <= 12:
        raise CliUsageError(f"--n-max must be between 1 and 12, got {n_max}")
    tab = polygon_table(b, n_max, depth=cfg.depth_override, stability=cfg.stability)
    payload = _polygon_payload(tab)
    headers = ("n",) + tuple(f"g={g}" for g in range(tab.g_max + 1))
    rows = [
        (str(n),) + tuple(rat_str(tab.cell(n, g)) for g in range(tab.g_max + 1))
        for n in range(1, n_max + 1)
    ]
    _emit(payload, headers, rows, cfg)
    return EXIT_OK


def cmd_hurwitz(args, cfg: RunConfig) -> int:
    n_max = args.n_max
    if not 2 <= n_max <= 12:
        raise CliUsageError(f"--n-max must be between 2 and 12, got {n_max}")
    tab = polygon_table(1, n_max, depth=cfg.depth_override, stability=cfg.stability)
    cells = []
    for n in range(2, n_max + 1, 2):
        for g in range(n // 2 + 1):
            cells.append((g, n // 2 + 1 - g, n, tab.cell(n, g)))
    cells.sort(key=lambda c: (c[0], c[1]))
    payload = {
        "n_max": n_max,
        "depth": tab.depth_used,
        "stable": tab.stability_verified,
        "rows": [
            {"g": g, "d": d, "branch_points": n, "count": rat_str(v)}
            for g, d, n, v in cells
        ],
    }
    rows = [(str(g), str(d), str(n), rat_str(v)) for g, d, n, v in cells]
    _emit(payload, ("g", "d", "branch_points", "count"), rows, cfg)
    return EXIT_OK


# The oracle layer loads only in the two subcommands that read it, so that
# every other command skips its import. These are the names of its
# VERIFY_SUITES, sorted; cli.VERIFY_SUITES resolves to that same dict.
VERIFY_SUITE_NAMES = ("degree1", "determinant", "identities", "stability", "tables")
# the verify suites that read a depth, with their default depths
VERIFY_DEPTHS = {"identities": 12, "determinant": 20}


def __getattr__(name):
    if name == "VERIFY_SUITES":
        from .oracles import VERIFY_SUITES

        return VERIFY_SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_verify(args, cfg: RunConfig) -> int:
    from .oracles import VERIFY_SUITES

    suite = VERIFY_SUITES[args.suite]
    if args.suite in VERIFY_DEPTHS:
        report = suite(cfg.depth_override or VERIFY_DEPTHS[args.suite])
    elif cfg.depth_override is not None:
        raise CliUsageError(f"verify {args.suite} reads no --depth")
    else:
        report = suite()
    # always machine-readable JSON; this output is a CI contract
    sys.stdout.write(to_json(report))
    return EXIT_OK if not report["failures"] else EXIT_FAILURE


def cmd_asymptotics(args, cfg: RunConfig) -> int:
    from .oracles import asymptotic_report

    rep = asymptotic_report(args.k, args.d, args.g_max)
    payload = {
        "k": rep.k,
        "d": rep.d,
        "limit": rat_str(rep.limit),
        "limit_decimal": rep.limit_decimal,
        "rows": [
            {
                "g": g,
                "ratio": rat_str(r),
                "decimal": dec,
                "abs_diff_decimal": decimal_str(abs(r - rep.limit)),
            }
            for g, r, dec in rep.rows
        ],
    }
    rows = [
        (str(g), rat_str(r), dec, decimal_str(abs(r - rep.limit)))
        for g, r, dec in rep.rows
    ]
    trailer = f"limit = {rat_str(rep.limit)} = {rep.limit_decimal}"
    _emit(payload, ("g", "ratio", "decimal", "abs_diff"), rows, cfg, trailer=trailer)
    return EXIT_OK


def cmd_resolvent(args, cfg: RunConfig) -> int:
    from .resolvent import resolvent_bundle

    depth = cfg.depth_override if cfg.depth_override is not None else 10
    bundle = resolvent_bundle(depth)
    entries = {}
    for e in range(0, -depth - 1, -1):
        entries[str(e)] = {
            name: eps_series_obj(getattr(bundle.r, name).coeff(e))
            for name in "abcd"
        }
    payload = {"depth": depth, "source": "built", "entries": entries}
    rows = [
        (str(e),) + tuple(eps_poly_str(getattr(bundle.r, n).coeff(e)) for n in "abcd")
        for e in range(0, -depth - 1, -1)
    ]
    _emit(payload, ("lam_exp", "a", "b", "c", "d"), rows, cfg)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="p1gw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("correlator", help="evaluate one stationary correlator")
    sp.add_argument("k", type=int, nargs="+", help="insertion indices")
    _add_common(sp)
    sp.set_defaults(handler=cmd_correlator)

    sp = sub.add_parser("table", help="equal-insertion table, rows n, columns g")
    sp.add_argument("--b", type=int, required=True, help="common insertion index (0..6)")
    sp.add_argument("--n-max", type=int, required=True, help="largest insertion count (<= 12)")
    _add_common(sp)
    sp.set_defaults(handler=cmd_table)

    sp = sub.add_parser("hurwitz", help="branched-cover counts indexed by (g, d)")
    sp.add_argument("--n-max", type=int, default=12, help="largest branch point count (<= 12)")
    _add_common(sp)
    sp.set_defaults(handler=cmd_hurwitz)

    sp = sub.add_parser("verify", help="run one bundled verification suite")
    sp.add_argument("suite", choices=VERIFY_SUITE_NAMES)
    _add_common(sp, stability=False)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("asymptotics", help="large-genus ratio convergence table")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--g-max", type=int, default=10)
    _add_common(sp, depth=False, stability=False)
    sp.set_defaults(handler=cmd_asymptotics)

    sp = sub.add_parser("resolvent", help="dump the resolvent matrix to a depth")
    _add_common(sp, stability=False)
    sp.set_defaults(handler=cmd_resolvent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config(args)
        return args.handler(args, cfg)
    except CliUsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except UnstableExtraction as err:
        print(f"unstable extraction: {err}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (MalformedValue, IndexOutOfRange) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except P1GWError as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
