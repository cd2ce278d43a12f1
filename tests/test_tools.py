"""tools/same_outputs.py, the output-identity check between two trees."""

import base64
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_same_outputs_on_the_repository_against_itself():
    r = subprocess.run(
        [sys.executable, "tools/same_outputs.py", ".", ".",
         "solve_mix:1:1", "profile_table:1:1", "verify_oracles:1:1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    # a kind's row, then the change side's digest on a line of its own
    kinds = {(row[0], row[1]) for row in rows[::2]}
    assert {workload for workload, _ in kinds} == {"solve_mix", "profile_table",
                                                   "verify_oracles"}
    assert {kind for _, kind in kinds} >= {"solve", "check", "tke", "profile", "figure2",
                                           "rk4", "quadrature", "limits", "highprec"}
    for row, change in zip(rows[::2], rows[1::2]):
        assert int(row[2]) > 0 and row[3] == "0", row
        assert row[4] == change[0], row
    n = sum(int(row[2]) for row in rows[::2])
    assert lines[-1] == f"{n} of {n} operations identical"


def test_same_outputs_checks_out_revisions():
    _git = same_outputs._git
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout")
    before = _git("worktree", "list", "--porcelain").stdout
    r = subprocess.run(
        [sys.executable, "tools/same_outputs.py", "HEAD", "HEAD", "solve_mix:1:1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.splitlines()[-1].endswith(" operations identical")
    assert _git("worktree", "list", "--porcelain").stdout == before


def test_same_outputs_reports_a_difference(capsys):
    parent = [["solve_mix", "solve", "a" * 64, "solve --k 1", "[]"],
              ["solve_mix", "check", "b" * 64, "check --k 1", "[]"]]
    change = [parent[0], ["solve_mix", "check", "c" * 64, "check --k 1", "[]"]]
    assert same_outputs.compare(parent, parent) == 0
    assert same_outputs.compare(parent, change) == 1
    out = capsys.readouterr().out
    assert "differs: solve_mix check --k 1" in out
    assert out.splitlines()[-1] == "1 of 2 operations identical"
    assert same_outputs.compare(parent, change[:1]) == 1


def test_spec_parsing():
    assert same_outputs.parse_spec("solve_mix:21-24:60") == ("solve_mix", [21, 22, 23, 24], 60)
    assert same_outputs.parse_spec("verify_oracles:3:1") == ("verify_oracles", [3], 1)


def test_same_outputs_lists_the_keys_that_differ(capsys):
    keys = [["k", "1"], ["beta_inf", "1.0"], ["regularity", "'smooth'"]]
    nudged = [["k", "1"], ["beta_inf", "1.0000000000000002"], ["regularity", "'smooth'"]]
    parent = [["solve_mix", "solve", "a" * 64, "solve --k 1", json.dumps(keys)]]
    change = [["solve_mix", "solve", "b" * 64, "solve --k 1", json.dumps(nudged)]]
    assert same_outputs.compare(parent, change) == 1
    out = capsys.readouterr().out.splitlines()
    i = out.index("differs: solve_mix solve --k 1")
    assert out[i + 1:-1] == [
        "  beta_inf: 1.0 -> 1.0000000000000002  (1 ulp, |b - a| = 2.220446049250313e-16)"]


def test_same_outputs_gives_the_size_of_a_move_across_zero():
    """An ulp count across zero or a sign is large whatever the move; |b - a|
    beside it gives its size."""
    moves = same_outputs.key_differences(
        [["boundary_err_minus", "5.551115123125783e-17"], ["slope_err_plus", "-1e-300"]],
        [["boundary_err_minus", "0.0"], ["slope_err_plus", "1e-300"]],
    )
    assert moves == [
        "  boundary_err_minus: 5.551115123125783e-17 -> 0.0"
        "  (4363988038922010624 ulps, |b - a| = 5.551115123125783e-17)",
        "  slope_err_plus: -1e-300 -> 1e-300  (237244095778645682 ulps, |b - a| = 2e-300)",
    ]


def test_ulps_and_raw_values():
    assert same_outputs.ulps(0.0, -0.0) == 0
    assert same_outputs.ulps(-5e-324, 5e-324) == 2
    assert same_outputs.ulps(1.0, 1.0 + 2 * 2.0 ** -52) == 2
    # a key present on one side only is reported as <absent> on the other
    assert same_outputs.key_differences(
        [["stability_class", "'Stable'"], ["c1_mean", "nan"]],
        [["stability_class", "'Unstable'"], ["conjugated", "False"], ["c1_mean", "0.5"]],
    ) == ["  stability_class: 'Stable' -> 'Unstable'", "  c1_mean: nan -> 0.5",
          "  conjugated: <absent> -> False"]


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype=float).tobytes()).decode()


def test_same_outputs_reports_oracle_values_and_arrays(capsys):
    # a quadrature value with its relative distance, an array's largest
    # absolute difference, and a task that raised on one side only
    parent = [
        ["verify_oracles", "quadrature", "a" * 64, "quadrature smooth",
         json.dumps([["value", "2.0"]])],
        ["verify_oracles", "rk4", "b" * 64, "rk4 phase-ode",
         json.dumps([["values", _b64([1.0, 2.0, 3.0])]])],
        ["verify_oracles", "quadrature", "c" * 64, "quadrature conical",
         json.dumps([["value", "4.0"]])],
        ["verify_oracles", "highprec", "d" * 64, "highprec scaled",
         json.dumps([["values", _b64([1.0])]])],
    ]
    change = [
        [*parent[0][:2], "e" * 64, parent[0][3], json.dumps([["value", "2.000000002"]])],
        [*parent[1][:2], "f" * 64, parent[1][3],
         json.dumps([["values", _b64([1.0, 2.0 + 2.0 ** -20, 3.0 - 2.0 ** -10])]])],
        [*parent[2][:2], "0" * 64, parent[2][3], json.dumps([["value", "4.000000016"]])],
        [*parent[3][:2], "1" * 64, parent[3][3],
         json.dumps([["error", "IntegrationError: quadrature failed to converge"]])],
    ]
    assert same_outputs.shown_arrays(parent, change) == [1, 3]
    assert same_outputs.compare(parent, change) == 1
    out = capsys.readouterr().out.splitlines()
    i = out.index("differs: verify_oracles quadrature smooth")
    assert out[i + 1:] == [
        f"  value: 2.0 -> 2.000000002  (relative {abs(2.000000002 - 2.0) / 2.0!r})",
        "differs: verify_oracles rk4 phase-ode",
        f"  values: largest absolute difference {2.0 ** -10!r}",
        "differs: verify_oracles quadrature conical",
        f"  value: 4.0 -> 4.000000016  (relative {abs(4.000000016 - 4.0) / 4.0!r})",
        "differs: verify_oracles highprec scaled",
        "  values: 1 -> <absent> values",
        "  error: <absent> -> IntegrationError: quadrature failed to converge",
        f"largest relative move of a quadrature value: {abs(4.000000016 - 4.0) / 4.0!r}"
        " (2 differing)",
        "0 of 4 operations identical",
    ]


def test_same_outputs_worker_lists_the_arrays_asked_for():
    # the first op of a verify_oracles cycle is an RK4 task: with --dump 0
    # its line carries its values, base64 of float64; the other oracle
    # tasks carry only the quadrature's value
    r = subprocess.run(
        [sys.executable, "tools/same_outputs.py", "--worker", ".", "--dump", "0",
         "verify_oracles:1:1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    rows = [line.split("\t") for line in r.stdout.splitlines()]
    assert rows[0][1] == "rk4"
    (key, data), = json.loads(rows[0][4])
    assert key == "values" and len(same_outputs._array(data)) == 19991
    kinds = {}
    for row in rows[1:]:
        kinds.setdefault(row[1], set()).add(tuple(key for key, _ in json.loads(row[4])))
    assert kinds["rk4"] == kinds["highprec"] == {()}
    assert kinds["quadrature"] == {("value",)}
