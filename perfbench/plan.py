"""Seeded operation lists for the four benchmark workloads.

A plan is a list of JSON-ready operation dicts. The seed picks the inputs
(which composition of a fixed (n, index-sum) shape, which off-diagonal
split of a pair query, which format a CLI command prints, and the order of
the operations); the shapes, counts and mandatory operations are fixed, so
every seed asks for the same kind and amount of work. Nothing here imports
the package under test.

Costs quoted below were measured on a 2-core x86-64 container with
Python 3.11.7 and the fractions.Fraction rational backend.
"""

import random

# The four cycle-sum flagships of reference.FLAGSHIP plus the two-point one.
FLAGSHIPS = ((1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4), (6, 6))
# Odd index sum: the exact value is 0, but the cycle DP runs in full (6.7 s).
ODD_HEAVY = (2, 1, 1, 1, 1, 1)

# Seeded cycle shapes (n, index sum). Every composition of a CHEAP shape runs
# faster than (3, 3, 3, 3) and every composition of HEAVY slower, and the
# plan holds one more cheap than heavy operation, so the median operation is
# always (3, 3, 3, 3) and op_p50_ms does not depend on the seed.
CYCLE_CHEAP = ((3, 9), (3, 10), (4, 7))
CYCLE_HEAVY = ((5, 6),)
CYCLE_CORE_S = 14.7  # nominal cost of the flagships plus ODD_HEAVY
CYCLE_PAIR_S = 1.45  # nominal cost of one cheap plus one heavy operation

# polygon_table(b, n_max) operations, all with stability on.
TABLES = ((1, 12), (2, 8), (3, 4), (4, 3))
# Off-diagonal extract_bij(b, m, i, j) queries, as strata (b, m, count, the
# choices of max(i, j)). The seed picks `count` distinct values of max(i, j)
# and then min(i, j) and the order of the two. The cost hardly depends on
# i and j, and within one b the default depths of different queries never
# coincide, so no query reuses another's recursion levels. Five cheap
# queries (15-60 ms), five near 100 ms and two near 300 ms sit around
# polygon_table(4, 3) (~100 ms) so that the median operation falls in the
# middle of the ~100 ms group whatever the seed.
PAIR_STRATA = (
    (1, 2, 1, (2, 3, 4, 5)),
    (2, 1, 1, (2, 3, 4, 5)),
    (3, 1, 2, (2, 3, 4, 5)),
    (4, 1, 1, (2, 3, 4, 5)),
    (1, 3, 2, (3, 4, 5)),
    (2, 2, 3, (2, 3, 4, 5)),
    (1, 4, 1, (3, 4, 5)),
    (2, 3, 1, (2, 3, 4, 5)),
)

# One block of the queries stream: 30 correlator() calls, as (insertion
# count, index sums). For each entry the blocks of a run draw the distinct
# multisets of indices in turn (see balanced), since their costs differ up
# to 3x: (12, 0) takes 0.7 s and (6, 6) 0.3 s.
QUERY_BLOCK = (
    (1, (None,) * 10),  # one-point: an index from each tenth of 0..39
    (2, (0, 2, 4, 6, 8, 10, 12, 5, 9)),
    (3, (2, 4, 6, 8, 3, 7)),
    (4, (2, 4, 3)),
    (5, (2, 3)),
)
QUERY_ONE_POINT_TENTH = 4  # one-point indices 0..39, cost ~ k^3
QUERY_TWO_POINT_MAX = 12
QUERY_BLOCK_S = 2.6

FORMATS = ("json", "csv", "markdown", "latex")
CLI_USAGE_ERRORS = (
    ("table", "--b", "7", "--n-max", "3"),
    ("correlator", "1", "-1"),
    ("correlator", "--depth", "2", "1", "1"),
    ("asymptotics", "--k", "1", "--d", "1"),
    ("hurwitz", "--n-max", "13"),
    ("frobnicate",),
    ("table", "--b", "2"),
)
CLI_BLOCK_S = 1.8


def composition(rng, n, total):
    """Uniformly random composition of total into n non-negative parts."""
    cuts = sorted(rng.sample(range(total + n - 1), n - 1))
    bounds = [-1] + cuts + [total + n - 1]
    return tuple(bounds[i + 1] - bounds[i] - 1 for i in range(n))


def partitions(total, n, cap):
    """Distinct non-increasing n-tuples of integers in 0..cap summing to total."""
    if n == 1:
        return [(total,)] if total <= cap else []
    return [(first,) + rest
            for first in range(min(total, cap), -1, -1)
            for rest in partitions(total - first, n - 1, first)]


def balanced(rng, options, k):
    """k picks from options: whole shuffled passes, then a sample of the rest,
    so that every seed picks nearly the same mix."""
    out = []
    while len(out) + len(options) <= k:
        out += rng.sample(options, len(options))
    return out + rng.sample(options, k - len(out))


def _corr(ks):
    return {"kind": "correlator", "ks": list(ks)}


def plan_cycle(rng, seconds):
    pairs = max(1, int((seconds - CYCLE_CORE_S) // CYCLE_PAIR_S))
    shapes = [CYCLE_CHEAP[0]]
    for i in range(pairs):
        shapes += [CYCLE_CHEAP[(i + 1) % len(CYCLE_CHEAP)], CYCLE_HEAVY[i % len(CYCLE_HEAVY)]]
    ops = [_corr(ks) for ks in FLAGSHIPS + (ODD_HEAVY,)]
    ops += [_corr(composition(rng, n, s)) for n, s in shapes]
    rng.shuffle(ops)
    return ops


def plan_tables(rng, seconds):
    """A fixed-size plan (about 19 s); `seconds` does not change it."""
    ops = [{"kind": "table", "b": b, "n_max": n} for b, n in TABLES]
    for b, m, count, his in PAIR_STRATA:
        for hi in rng.sample(his, count):
            i, j = rng.sample([hi, rng.randint(1, hi - 1)], 2)
            ops.append({"kind": "pair", "b": b, "m": m, "i": i, "j": j})
    rng.shuffle(ops)
    return ops


def plan_queries(rng, seconds):
    blocks = max(1, round(seconds / QUERY_BLOCK_S))
    # Only the two-point flagship: the cycle-sum ones (~7.5 s together) would
    # make most of this stream's wall_s big cycle DPs, which `cycle` measures.
    ops = [_corr(FLAGSHIPS[-1])]
    for n, sums in QUERY_BLOCK:
        for t, s in enumerate(sums):
            if n == 1:
                options = [(k,) for k in range(t * QUERY_ONE_POINT_TENTH, (t + 1) * QUERY_ONE_POINT_TENTH)]
            else:
                options = partitions(s, n, QUERY_TWO_POINT_MAX if n == 2 else s)
            for ks in balanced(rng, options, blocks):
                ops.append(_corr(rng.sample(ks, n)))
    rng.shuffle(ops)
    return ops


CLI_TABLES = [(b, n) for b, n_max in ((1, 4), (2, 3), (3, 2), (4, 2)) for n in range(1, n_max + 1)]
# (k, d) = (1, 1) is rejected by the program; it is among CLI_USAGE_ERRORS
CLI_ASYMPTOTICS = [(k, d, g) for k, d in ((0, 1), (0, 2), (1, 2)) for g in (1, 2, 3)]


def plan_cli(rng, seconds):
    """Blocks of nine commands: the six subcommands with a table output, in
    each of the four formats at least once, `verify` and two usage errors.
    Each command's parameters are spread over the blocks with balanced()."""
    blocks = max(1, round(seconds / CLI_BLOCK_S))

    def pick(options):
        return balanced(rng, options, blocks)

    even = [p for n in (2, 3) for t in (2, 4, 6) for p in partitions(t, n, t)]
    odd = [p for n in (2, 3) for t in (3, 5) for p in partitions(t, n, t)]
    columns = zip(
        pick(even), pick(odd), pick(CLI_TABLES), pick([2, 3, 4]), pick(CLI_ASYMPTOTICS),
        pick([4, 5, 6, 7, 8]), pick(["determinant", "degree1"]),
    )
    errors = balanced(rng, list(CLI_USAGE_ERRORS), 2 * blocks)
    ops = []
    for i, (ks_even, ks_odd, (b, n), hurwitz_n, (k, d, g), depth, suite) in enumerate(columns):
        fmts = list(FORMATS) + rng.sample(FORMATS, 2)
        rng.shuffle(fmts)
        cmds = [
            ["correlator", *map(str, rng.sample(ks_even, len(ks_even)))],
            ["correlator", *map(str, rng.sample(ks_odd, len(ks_odd)))],
            ["table", "--b", str(b), "--n-max", str(n)],
            ["hurwitz", "--n-max", str(hurwitz_n)],
            ["asymptotics", "--k", str(k), "--d", str(d), "--g-max", str(g)],
            ["resolvent", "--depth", str(depth)],
        ]
        ops += [{"kind": "cli", "argv": argv + ["--format", fmt], "exit": 0}
                for argv, fmt in zip(cmds, fmts)]
        ops.append({"kind": "cli", "argv": ["verify", suite], "exit": 0})
        ops += [{"kind": "cli", "argv": list(argv), "exit": 3} for argv in errors[2 * i: 2 * i + 2]]
    rng.shuffle(ops)
    return ops


PLANNERS = {
    "cycle": plan_cycle,
    "tables": plan_tables,
    "queries": plan_queries,
    "cli": plan_cli,
}
WORKLOADS = tuple(PLANNERS)


def make_plan(workload, seed, seconds):
    ops = PLANNERS[workload](random.Random(f"{workload}:{seed}"), seconds)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
