"""Exact stationary Gromov-Witten invariants of the projective line.

All computations run over exact rationals. The resolvent matrix is built
from closed coefficient formulas; correlators of two or more insertions
come from one cycle-sum dynamic program over traces of resolvent
products; equal-insertion tables come from a commutator recursion on the
resolvent family; and an independent oracle layer (closed product and
binomial-sum formulas, generating-function identities, large-genus
asymptotics) cross-checks everything it can reach.
"""

from .correlators import (
    CorrelatorRecord,
    correlator,
    n_point,
    one_point,
    split_by_genus,
    stability_check,
    two_point,
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
from .oracles import (
    asymptotic_constant,
    asymptotic_ratio,
    asymptotic_report,
    c2m,
    degree_one,
    hurwitz,
    identity_check,
    trace_det_check,
    two_point_tau0_closed,
    two_point_tau1_closed,
)
from .rational import Rat, rat_from_str, rat_str
from .recursion import (
    PolygonTable,
    RecursionKey,
    extract_bij,
    polygon_table,
    r_family,
    rm_equal,
)
from .resolvent import ResolventBundle, build_resolvent, resolvent_bundle
from .series import LambdaSeries, Mat2

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
    "RecursionKey",
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
    "stability_check",
    "trace_det_check",
    "two_point",
    "two_point_tau0_closed",
    "two_point_tau1_closed",
    "__version__",
]
