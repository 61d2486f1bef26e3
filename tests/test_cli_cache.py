"""The command line surface."""

import json
from unittest import mock

import pytest

from p1gw import cli, completed
from p1gw.render import eps_series_obj, to_json
from p1gw.resolvent import resolvent_bundle


# ---------------------------------------------------------------- cli


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_correlator_json_schema(capsys):
    code, out, _ = _run(capsys, ["correlator", "2", "2", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["insertions"] == [2, 2, 2]
    assert payload["eps_series"] == {
        "-2": "1",
        "0": "25/24",
        "2": "19/192",
        "4": "1/13824",
    }
    assert payload["by_genus"][0] == {"g": 0, "d": 4, "value": "1"}
    assert payload["by_genus"][3] == {"g": 3, "d": 1, "value": "1/13824"}
    assert payload["stable"] is True
    # canonical JSON must survive a parse/serialize cycle byte for byte
    assert to_json(json.loads(out)) == out


def test_cli_correlator_zero_value(capsys):
    code, out, _ = _run(capsys, ["correlator", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["eps_series"] == {}
    assert payload["by_genus"] == []
    # an odd index sum is zero at any depth, however shallow
    for argv, depth in ((["1"] * 7 + ["--depth", "5"], 5), (["2", "1", "--depth", "4"], 4)):
        code, out, _ = _run(capsys, ["correlator", *argv])
        assert code == 0
        payload = json.loads(out)
        assert (payload["eps_series"], payload["by_genus"]) == ({}, [])
        assert (payload["depth"], payload["stable"]) == (depth, True)


def test_cli_correlator_unstable_depth_exits_two(capsys):
    # a depth that would truncate the cycle sum exits 2, with or without the
    # deeper recheck, and prints no value
    for argv in (
        ["correlator", "2", "2", "2", "--depth", "4"],
        ["correlator", "2", "2", "2", "--depth", "4", "--no-stability"],
        ["correlator", "6", "6", "--depth", "8"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unstable" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--b", "2", "--n-max", "3", "--depth", "5"],  # needs depth >= 9
        ["hurwitz", "--n-max", "4", "--depth", "7", "--no-stability"],  # needs depth >= 8
    ],
)
def test_cli_table_shallow_depth_exits_two(capsys, argv):
    # a table depth below its deepest row's budget exits 2 before any row
    # is computed, as a correlator does
    with mock.patch.object(completed, "_sums", side_effect=AssertionError):
        code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "unstable" in err.lower()


def test_cli_correlator_no_stability_accepts_fixed_depth(capsys):
    code, out, _ = _run(
        capsys, ["correlator", "2", "2", "2", "--depth", "12", "--no-stability"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["eps_series"]["4"] == "1/13824"


@pytest.mark.parametrize(
    "argv",
    [
        ["correlator", "-1"],
        ["correlator", "2", "--depth", "3"],
        ["correlator", "2", "--jobs", "0"],
        ["correlator"],
        ["table", "--b", "9", "--n-max", "4"],
        ["table", "--b", "2", "--n-max", "13"],
        ["hurwitz", "--n-max", "1"],
        ["asymptotics", "--k", "1", "--d", "1"],
        ["asymptotics", "--k", "0", "--d", "2", "--g-max", "41"],
        ["nonsense"],
        # removed flags are rejected, not accepted and ignored
        ["correlator", "2", "1", "1", "--jobs", "2"],
        ["table", "--b", "2", "--n-max", "3", "--jobs", "2"],
        ["correlator", "2", "2", "--cache-dir", "cache"],
        # a subcommand takes only the flags it reads
        ["asymptotics", "--k", "0", "--d", "1", "--depth", "500", "--no-stability"],
        ["asymptotics", "--k", "0", "--d", "1", "--depth", "500"],
        ["asymptotics", "--k", "0", "--d", "1", "--no-stability"],
        ["resolvent", "--depth", "6", "--no-stability"],
        ["verify", "determinant", "--no-stability"],
        ["verify", "degree1", "--depth", "8"],
        ["verify", "tables", "--depth", "8"],
        ["verify", "stability", "--depth", "8"],
        # one insertion more than the library's MAX_POINTS
        ["correlator"] + ["1"] * 9,
    ],
)
def test_cli_usage_errors_exit_three(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err


def test_cli_table_markdown(capsys):
    code, out, _ = _run(
        capsys, ["table", "--b", "0", "--n-max", "4", "--format", "markdown"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| n | g=0 |"
    assert lines[2:] == ["| 1 | 1 |", "| 2 | 1 |", "| 3 | 1 |", "| 4 | 1 |"]


def test_cli_table_csv(capsys):
    code, out, _ = _run(
        capsys, ["table", "--b", "2", "--n-max", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,g=0,g=1,g=2,g=3"
    assert lines[2].startswith("2,")
    # rationals stay rational in every data format
    assert "/" in lines[2]
    assert "." not in lines[2]


def test_cli_table_json_degree_labels(capsys):
    code, out, _ = _run(capsys, ["table", "--b", "2", "--n-max", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 2 and payload["n_max"] == 2
    row2 = payload["rows"][1]
    assert row2["n"] == 2
    assert row2["cells"][0] == {"g": 0, "d": 3, "value": "1/3"}
    assert all(c["d"] is not None for c in row2["cells"])
    # odd b*n + 2 has no integer degree
    row1 = json.loads(
        _run_table_b3(capsys)
    )["rows"][0]
    assert all(c["d"] is None for c in row1["cells"])


def _run_table_b3(capsys):
    code = cli.main(["table", "--b", "3", "--n-max", "1"])
    assert code == 0
    return capsys.readouterr().out


def test_cli_hurwitz_rows(capsys):
    code, out, _ = _run(capsys, ["hurwitz", "--n-max", "6"])
    assert code == 0
    payload = json.loads(out)
    rows = {(r["g"], r["d"]): r for r in payload["rows"]}
    assert rows[(0, 2)]["count"] == "1/2"
    assert rows[(0, 2)]["branch_points"] == 2
    assert rows[(0, 3)]["count"] == "4"
    assert rows[(0, 3)]["branch_points"] == 4
    assert rows[(1, 2)]["count"] == "1/2"
    assert rows[(2, 2)]["branch_points"] == 6


def test_cli_verify_green_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "determinant"])
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "determinant"
    assert payload["failures"] == []
    assert payload["checks"] == 42


def test_cli_verify_is_json_even_for_other_formats(capsys):
    code, out, _ = _run(
        capsys, ["verify", "determinant", "--format", "markdown", "--depth", "8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == 18


def test_cli_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.VERIFY_SUITES,
        "degree1",
        lambda: {"suite": "degree1", "checks": 1, "failures": ["boom"]},
    )
    code, out, _ = _run(capsys, ["verify", "degree1"])
    assert code == 1
    assert json.loads(out)["failures"] == ["boom"]


def test_cli_asymptotics_output(capsys):
    code, out, _ = _run(
        capsys, ["asymptotics", "--k", "0", "--d", "2", "--g-max", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["limit"] == "27/8"
    assert payload["limit_decimal"] == "3.375"
    assert [r["g"] for r in payload["rows"]] == [0, 1, 2, 3]
    assert payload["rows"][0]["ratio"] == "3"
    assert payload["rows"][1]["abs_diff_decimal"] == "0.0416666666667"


def test_cli_asymptotics_markdown_trailer(capsys):
    code, out, _ = _run(
        capsys,
        ["asymptotics", "--k", "0", "--d", "1", "--g-max", "2", "--format", "markdown"],
    )
    assert code == 0
    assert out.rstrip().endswith("limit = 1 = 1")
    assert out.startswith("| g | ratio | decimal | abs_diff |")


def test_cli_resolvent_matches_direct_build(capsys):
    code, out, _ = _run(capsys, ["resolvent", "--depth", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 4
    assert payload["source"] == "built"
    bundle = resolvent_bundle(4)
    for e in range(0, -5, -1):
        entry = payload["entries"][str(e)]
        for name in "abcd":
            assert entry[name] == eps_series_obj(getattr(bundle.r, name).coeff(e))


def test_cli_resolvent_cache_flag(capsys, tmp_path):
    # the resolvent cache is gone: the flag is a usage error and writes nothing
    code, out, err = _run(
        capsys, ["resolvent", "--depth", "5", "--cache-dir", str(tmp_path)]
    )
    assert code == 3
    assert out == "" and err
    assert list(tmp_path.iterdir()) == []


def test_cli_resolvent_env_var_cache(capsys, tmp_path, monkeypatch):
    # P1GW_CACHE_DIR is no longer read: the series is built, nothing is written
    monkeypatch.setenv("P1GW_CACHE_DIR", str(tmp_path))
    code, out, _ = _run(capsys, ["resolvent", "--depth", "4"])
    assert code == 0
    assert json.loads(out)["source"] == "built"
    assert list(tmp_path.iterdir()) == []
