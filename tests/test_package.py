"""The package surface: what `import p1gw` loads, its public names and its
result records."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p1gw
from p1gw import cli, oracles
from p1gw.completed import PolygonTable, polygon_table
from p1gw.correlators import CorrelatorRecord, correlator
from p1gw.errors import MalformedValue
from p1gw.oracles import AsymptoticReport, IdentityReport, TraceDetReport
from p1gw.resolvent import ResolventBundle, resolvent_bundle

SRC = str(Path(p1gw.__file__).resolve().parent.parent)


def _python(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


# ------------------------------------------------------------ import footprint


# the modules that load on first use (p1gw/__init__)
ON_DEMAND = ("p1gw.cycle", "p1gw.oracles", "p1gw.packed", "p1gw.recursion", "p1gw.reference",
             "p1gw.resolvent", "p1gw.series")


def _loaded(names):
    return f"print(' '.join(m for m in {names!r} if m in sys.modules))"


def test_import_loads_the_engines_and_not_the_oracle_layer():
    engines = ("dataclasses", "inspect", "p1gw.completed", "p1gw.correlators")
    probe = "import sys, p1gw; " + _loaded(engines + ON_DEMAND)
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["p1gw.completed", "p1gw.correlators"]


# what the library benchmark workloads time: the flagships, an odd-sum
# shape, one-point, small multi-point correlators, the four tables, and
# extract_bij below the cost rule
_TIMED = """
import sys, p1gw
for ks in [(1,) * 6, (2,) * 5, (3,) * 4, (4, 4, 4), (6, 6), (2, 1, 1, 1, 1, 1), (12, 0),
           (5, 4, 3), (3, 3, 2, 2), (2, 2, 1, 1, 0)] + [(k,) for k in range(40)]:
    p1gw.correlator(ks)
for b, n in ((1, 12), (2, 8), (3, 4), (4, 3)):
    p1gw.polygon_table(b, n)
for case in ((1, 4, 5, 3), (2, 3, 2, 5), (4, 1, 5, 1), (3, 1, 2, 3)):
    p1gw.extract_bij(*case)
"""


def test_nothing_timed_loads_the_recursion_stack():
    proc = _python("-c", _TIMED + _loaded(ON_DEMAND))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
    # the first shape past the rule loads the recursion, which reads the
    # resolvent and the packed form, and not the cycle DP
    recursion_stack = ["p1gw.packed", "p1gw.recursion", "p1gw.resolvent", "p1gw.series"]
    proc = _python("-c", _TIMED + "p1gw.correlator((18, 18)); " + _loaded(ON_DEMAND))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == recursion_stack
    proc = _python("-c", "import sys, p1gw; p1gw.rm_equal; " + _loaded(ON_DEMAND))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == recursion_stack


def test_the_cycle_dp_loads_on_first_use_without_the_recursion():
    cycle_stack = ["p1gw.cycle", "p1gw.packed", "p1gw.resolvent", "p1gw.series"]
    for call in ("p1gw.two_point(2, 2)", "p1gw.correlators.n_point((1, 1, 1, 1))"):
        proc = _python("-c", f"import sys, p1gw; {call}; " + _loaded(ON_DEMAND))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == cycle_stack, call


def _importtime(*argv):
    # -X importtime names on stderr every module the process imports
    proc = _python("-X", "importtime", "-m", "p1gw.cli", *argv)
    return proc, {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


def _cli_loaded(*argv):
    # -X importtime does not name a module that importlib loads, as the
    # package __getattr__ does, so this reads sys.modules after cli.main
    probe = ("import contextlib, io, sys; from p1gw import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main({list(argv)!r})\n"
             "print(code); " + _loaded(ON_DEMAND + ("csv", "json")))
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0", argv
    return loaded


def test_cli_process_exit_codes_and_imports():
    assert _python("-m", "p1gw.cli", "frobnicate").returncode == 3
    proc, imported = _importtime("correlator", "2", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["insertions"] == [2, 2]
    assert "p1gw.correlators" in imported
    assert not imported & {"csv", "dataclasses", *ON_DEMAND}
    assert _cli_loaded("correlator", "2", "2") == ["json"]
    # the closed-form asymptotics and the table and stability suites read
    # the oracle layer and no engine that loads on demand
    argv = ("asymptotics", "--k", "0", "--d", "2", "--g-max", "3")
    proc, imported = _importtime(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "p1gw.oracles" in imported
    assert imported & set(ON_DEMAND) <= {"p1gw.oracles", "p1gw.reference"}
    for argv in (argv, ("verify", "tables"), ("verify", "stability")):
        assert _cli_loaded(*argv) == ["p1gw.oracles", "p1gw.reference", "json"], argv
    # the markdown and latex renderers and a usage error import neither csv nor json
    for argv in (("correlator", "2", "2", "--format", "markdown"),
                 ("asymptotics", "--k", "1", "--d", "2", "--format", "latex"), ("frobnicate",)):
        _, imported = _importtime(*argv)
        assert not imported & {"csv", "json"}, argv


# ------------------------------------------------------------ public surface


def test_every_public_name_resolves():
    for name in p1gw.__all__:
        assert getattr(p1gw, name) is not None, name
    assert p1gw.degree_one is oracles.degree_one
    assert p1gw.oracles is oracles


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from p1gw import *", namespace)
    assert set(p1gw.__all__) <= set(namespace)
    assert namespace["asymptotic_report"] is oracles.asymptotic_report


def test_dir_lists_every_public_name():
    assert set(p1gw.__all__) <= set(dir(p1gw))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        p1gw.no_such_name
    with pytest.raises(AttributeError):
        cli.NO_SUCH_NAME
    with pytest.raises(ImportError):
        exec("from p1gw import no_such_name", {})


def test_cli_verify_suites_are_the_oracle_suites():
    assert cli.VERIFY_SUITES is oracles.VERIFY_SUITES
    assert cli.VERIFY_SUITE_NAMES == tuple(sorted(oracles.VERIFY_SUITES))


# ------------------------------------------------------------ result records

# field order of each record as it was when the records were dataclasses
RECORD_FIELDS = {
    CorrelatorRecord: ("insertions", "value", "by_genus", "depth_used", "stability_verified"),
    PolygonTable: ("b", "g_max", "rows", "depth_used", "stability_verified"),
    ResolventBundle: ("alpha", "p", "q", "beta", "gamma", "r", "depth"),
    IdentityReport: ("ident", "depth", "coefficients_checked"),
    TraceDetReport: ("depth", "coefficients_checked"),
    AsymptoticReport: ("k", "d", "limit", "limit_decimal", "rows"),
    cli.RunConfig: ("depth_override", "stability", "format"),
}


def _records():
    return [
        correlator((2, 2)),
        polygon_table(1, 4),
        resolvent_bundle(4),
        oracles.identity_check("I1", 4),
        oracles.trace_det_check(4),
        oracles.asymptotic_report(0, 2, 2),
        cli.RunConfig(),
    ]


def test_record_fields_keep_the_dataclass_order():
    for rec in _records():
        assert type(rec)._fields == RECORD_FIELDS[type(rec)]
    assert cli.RunConfig() == (None, True, "json")


def test_records_are_immutable():
    for rec in _records():
        with pytest.raises(AttributeError):
            setattr(rec, type(rec)._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = None


def test_record_repr_names_its_fields():
    assert repr(cli.RunConfig(8)) == "RunConfig(depth_override=8, stability=True, format='json')"
    for rec in _records():
        assert repr(rec).startswith(f"{type(rec).__name__}({type(rec)._fields[0]}=")


def test_polygon_table_cell_checks_its_range():
    tab = polygon_table(1, 4)
    assert tab.cell(2, 0) == tab.rows[1][0]
    for n, g in ((0, 0), (5, 0), (1, -1), (1, tab.g_max + 1)):
        with pytest.raises(MalformedValue):
            tab.cell(n, g)
