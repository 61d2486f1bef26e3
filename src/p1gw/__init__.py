"""Exact stationary Gromov-Witten invariants of the projective line.

All computations run over exact rationals. The resolvent matrix is built
from closed coefficient formulas; correlator() serves a closed one-point
formula, the divisor equation for index-0 insertions, and then, by a
cost rule on the input, one pass over the partitions of each degree
(completed cycles, the GW/Hurwitz correspondence, sharing no code with
the resolvent) or, for large weights, a commutator recursion on the
resolvent family; polygon_table gives every row of an equal-insertion
table from the same pass; two_point and n_point evaluate one cycle-sum
dynamic program over traces of resolvent products; and an independent
oracle layer (closed product and binomial-sum formulas, generating-function
identities, large-genus asymptotics) cross-checks everything it can reach.

Two engines load with the package: the completed-cycle pass
(p1gw.completed) and the router with its closed forms (p1gw.correlators).
Below the cost rule they serve correlator(), extract_bij and polygon_table
alone, so that importing them falls on `import p1gw` and never on a call a
caller times. Everything else loads on first use: the cycle DP with the
packed-integer form it runs on (p1gw.cycle, p1gw.packed), which
two_point, n_point and the oracles read; the commutator recursion
(p1gw.recursion), which only shapes past the rule read; the resolvent and
its series (p1gw.resolvent, p1gw.series), which both of those read; and
the oracle layer (p1gw.oracles and the frozen tables of p1gw.reference).
The first call that needs one imports it, and the module __getattr__
binds their public names on first access.
"""

from .completed import PolygonTable, polygon_table
from .correlators import (
    CorrelatorRecord,
    correlator,
    extract_bij,
    one_point,
    split_by_genus,
)
from .eps import EpsLaurent
from .errors import (
    CancellationFailure,
    DepthExceeded,
    IdentityViolation,
    IndexOutOfRange,
    MalformedValue,
    P1GWError,
    UnstableExtraction,
)
from .rational import Rat, rat_from_str, rat_str

__version__ = "0.1.0"

__all__ = [
    "CancellationFailure",
    "CorrelatorRecord",
    "DepthExceeded",
    "EpsLaurent",
    "IdentityViolation",
    "IndexOutOfRange",
    "LambdaSeries",
    "MalformedValue",
    "Mat2",
    "P1GWError",
    "PolygonTable",
    "Rat",
    "ResolventBundle",
    "UnstableExtraction",
    "asymptotic_constant",
    "asymptotic_ratio",
    "asymptotic_report",
    "build_resolvent",
    "c2m",
    "correlator",
    "degree_one",
    "extract_bij",
    "hurwitz",
    "identity_check",
    "n_point",
    "one_point",
    "polygon_table",
    "r_family",
    "rat_from_str",
    "rat_str",
    "resolvent_bundle",
    "rm_equal",
    "split_by_genus",
    "trace_det_check",
    "two_point",
    "two_point_tau0_closed",
    "two_point_tau1_closed",
    "__version__",
]

# the public names bound on first access by __getattr__, each to its module
_LAZY_NAMES = {
    **dict.fromkeys(
        (
            "asymptotic_constant",
            "asymptotic_ratio",
            "asymptotic_report",
            "c2m",
            "degree_one",
            "hurwitz",
            "identity_check",
            "trace_det_check",
            "two_point_tau0_closed",
            "two_point_tau1_closed",
        ),
        "oracles",
    ),
    **dict.fromkeys(("n_point", "two_point"), "cycle"),
    **dict.fromkeys(("r_family", "rm_equal"), "recursion"),
    **dict.fromkeys(("ResolventBundle", "build_resolvent", "resolvent_bundle"), "resolvent"),
    **dict.fromkeys(("LambdaSeries", "Mat2"), "series"),
}
_LAZY_MODULES = ("cycle", "oracles", "packed", "recursion", "reference", "resolvent", "series")


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY_NAMES:
        value = getattr(import_module("." + _LAZY_NAMES[name], __name__), name)
    elif name in _LAZY_MODULES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY_MODULES))
