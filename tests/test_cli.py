"""End-to-end command-line checks (subprocess, exit codes, round-trips)."""

import argparse
import contextlib
import dataclasses
import io
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dhym_ruled import (
    BundleClass,
    ValidationError,
    canonicalize,
    cli,
    coupled,
    dhym,
    from_complexified,
    limits,
    make_surface,
    pose,
)
from dhym_ruled.cli import (
    THRESHOLDS,
    build_descriptor,
    build_parser,
    format_descriptor,
    main,
    parse_descriptor,
    residual_summary,
    verification_pass,
)

from conftest import draw_stable
from second_forms import (
    certificate_pass, eval_H_deriv, eval_psi_deriv, ode_residual_H, reverify)

BASE = [sys.executable, "-m", "dhym_ruled"]
FIG1 = ["--k", "1", "--h", "0", "--kprime", "5", "--k1", "-1", "--k2", "1"]


def run(*args, **kw):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, **kw
    )


def test_check_stable():
    r = run("check", *FIG1)
    assert r.returncode == 0
    assert "stability_class = Stable" in r.stdout
    assert "stability_margin = 0.16666666666666674" in r.stdout


def test_check_semistable():
    r = run("check", "--k", "1", "--h", "0", "--kprime", "4", "--k1", "-1", "--k2", "1")
    assert r.returncode == 2
    assert "Semistable" in r.stdout


def test_check_unstable():
    r = run("check", "--k", "1", "--h", "0", "--kprime", "2", "--k1", "-1", "--k2", "1")
    assert r.returncode == 3
    assert "Unstable" in r.stdout


#: Figure 1 and seeded stable classes, reduced (k1 < 0) as drawn.
_MIRROR_RNG = np.random.default_rng(74)
_MIRROR_CASES = [(make_surface(1, 0, 5), BundleClass(k1=-1.0, k2=1.0)),
                 *(draw_stable(_MIRROR_RNG) for _ in range(12))]


@pytest.mark.parametrize("command, extra", [
    ("check", []), ("solve", []), ("solve", ["--beta0=0.4"]),
    ("profile", ["--samples=301"]), ("tke", []), ("tke", ["--beta0=0.4"]),
    ("tke", ["--solve-beta"])],
    ids=["check", "solve", "solve-conical", "profile", "tke", "tke-conical", "tke-solve-beta"])
def test_check_prints_the_mirror_flag(command, extra, capsys):
    """check and solve report the reduced class's data, so a mirrored input's
    output differs from its reduced form's only in the conjugated line; a
    mirrored profile table differs only in H and im_residual, each the
    negation of the reduced class's value, an exact zero printed alike.
    tke prints no conjugated line, so a class and its mirror give the same
    exit code, stdout and stderr, figure 2's class (the one --solve-beta
    solves) and failures included."""
    cases = _MIRROR_CASES
    if command == "tke":
        cases = [*cases, (make_surface(1, 6, 1.0), BundleClass(k1=-1.0, k2=-1.0))]
    for s, b in cases:
        mirror = BundleClass(k1=-b.k1, k2=-b.k2)
        (code, out, err), (mcode, mout, merr) = (
            run_in_process([command, *_class_argv(s, c), *extra], capsys)
            for c in (b, mirror))
        if command == "tke":
            assert (mcode, mout, merr) == (code, out, err), (s, b)
            continue
        assert (code, err) == (mcode, merr) == (0, ""), (s, b, err)
        rows, mrows = out.splitlines(), mout.splitlines()
        assert len(rows) == len(mrows)
        if command != "profile":
            assert [(m, r) for m, r in zip(mrows, rows) if m != r] == [
                ("conjugated = True", "conjugated = False")], (s, b)
            continue
        assert rows[0] == mrows[0] == "t,phi,psi,H,im_residual,scalar_residual"
        for row, mrow in zip(rows[1:], mrows[1:]):
            for i, (r, m) in enumerate(zip(row.split(","), mrow.split(","))):
                want = repr(-float(r)) if i in (3, 4) and float(r) != 0.0 else r
                assert m == want, (s, b, row, mrow)


def test_degenerate_class_usage_error():
    r = run("check", "--k", "1", "--h", "0", "--kprime", "5", "--k1", "0", "--k2", "1")
    assert r.returncode == 1
    assert "degenerate" in r.stderr


def test_missing_flags_usage_error():
    r = run("solve", "--k", "1", "--kprime", "5")
    assert r.returncode == 1


def test_unknown_command_usage_error():
    r = run("frobnicate")
    assert r.returncode == 1


@pytest.mark.parametrize("argv, code, prog", [
    ([], 1, "dhym-ruled"),
    (["bogus"], 1, "dhym-ruled"),
    (["--help"], 0, "dhym-ruled"),
    (["solve", "--help"], 0, "dhym-ruled solve"),
    (["solve", *FIG1, "--bogus", "1"], 1, "dhym-ruled solve"),
])
def test_dispatch_exit_codes(argv, code, prog, capsys):
    """An argv that starts with a subcommand reaches that subcommand's parser,
    whose usage line a help request or an error prints; any other argv
    reaches the top-level parser."""
    got, out, err = run_in_process(argv, capsys)
    assert got == code
    assert (out if code == 0 else err).startswith(f"usage: {prog} [-h]")
    if "--bogus" in argv:
        assert "unrecognized arguments: --bogus 1" in err


@pytest.mark.parametrize("argv, code", [(["check", *FIG1], 0), (["bogus"], 1),
                                        (["check", *FIG1, "--bogus"], 1)])
def test_main_reads_sys_argv(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["dhym-ruled", *argv])
    assert run_in_process(None, capsys)[0] == code


def test_solve_descriptor(tmp_path):
    out = tmp_path / "sol.txt"
    r = run("solve", *FIG1, "--out", str(out))
    assert r.returncode == 0
    d = parse_descriptor(out.read_text())
    assert d["d0"] == pytest.approx(-158.0, rel=1e-12)
    assert d["d1"] == pytest.approx(455.0 / 12.0, rel=1e-12)
    assert d["Cprime"] == -24.8
    assert d["stability_class"] == "Stable"
    assert d["positivity_method"] == "ConvexityCertified"


def test_solve_conical_positive_alpha(tmp_path):
    out = tmp_path / "sol.txt"
    r = run("solve", *FIG1, "--beta0", "0.5", "--out", str(out))
    assert r.returncode == 0
    d = parse_descriptor(out.read_text())
    assert d["alpha"] == pytest.approx(1.975194, rel=1e-6)
    assert d["alpha"] > 0


def test_solve_complexified(tmp_path):
    out = tmp_path / "sol.txt"
    r = run(
        "solve", "--k", "1", "--h", "0", "--kprime", "1",
        "--complexified", "--kpp", "-1", "--out", str(out),
    )
    assert r.returncode == 0
    d = parse_descriptor(out.read_text())
    assert d["k1"] == d["k2"] == -0.25


def test_solve_roundtrip_bitwise(tmp_path):
    out = tmp_path / "sol.txt"
    run("solve", *FIG1, "--beta0", "0.7", "--out", str(out))
    d = parse_descriptor(out.read_text())
    redone = reverify(d)
    for key, val in redone.items():
        assert abs(val - d[key]) <= 1e-12, key


def test_descriptor_roundtrip_nonfinite():
    """parse_descriptor inverts format_descriptor on every kind of value a
    descriptor holds, with each float's bits kept: signed zeros, nan, both
    infinities, the smallest subnormal and the largest double."""
    d = {"a": float("nan"), "b": float("inf"), "c": float("-inf"), "n": 3,
         "zero": 0.0, "negzero": -0.0, "tiny": 5e-324, "huge": sys.float_info.max,
         "neghuge": -sys.float_info.max, "big": 10**29 + 7, "neg": -12, "t": True,
         "f": False, "none": None, "s": "Stable", "quote": "it's", "empty": ""}
    back = parse_descriptor(format_descriptor(d))
    assert list(back) == list(d)
    for key, val in d.items():
        got = back[key]
        assert type(got) is type(val), key
        if type(val) is float:
            assert struct.pack("<d", got) == struct.pack("<d", val), key
        else:
            assert got == val, key
    assert format_descriptor(back) == format_descriptor(d)


def test_solve_semistable_gate():
    r = run("solve", "--k", "1", "--h", "0", "--kprime", "4", "--k1", "-1", "--k2", "1")
    assert r.returncode == 2
    r = run(
        "solve", "--k", "1", "--h", "0", "--kprime", "4",
        "--k1", "-1", "--k2", "1", "--allow-semistable",
    )
    assert r.returncode == 2  # semistable exit persists, but output is emitted
    assert "regularity = 'holder12'" in r.stdout


def test_solve_unstable_exit():
    r = run("solve", "--k", "1", "--h", "0", "--kprime", "2", "--k1", "-1", "--k2", "1")
    assert r.returncode == 3


def test_profile_table(tmp_path):
    out = tmp_path / "prof.csv"
    r = run("profile", *FIG1, "--samples", "11", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,phi,psi,H,im_residual,scalar_residual"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 5.0
    assert abs(float(first[1])) < 1e-9  # phi vanishes at the endpoint
    last = lines[-1].split(",")
    assert abs(float(last[1])) < 1e-9


def test_profile_semistable_blank_derivative_columns(tmp_path):
    out = tmp_path / "prof.csv"
    r = run(
        "profile", "--k", "1", "--h", "0", "--kprime", "4",
        "--k1", "-1", "--k2", "1", "--samples", "5",
        "--allow-semistable", "--out", str(out),
    )
    assert r.returncode == 2
    first = out.read_text().strip().splitlines()[1].split(",")
    assert float(first[0]) == 4.0
    assert first[4] == "" and first[5] == ""


def test_tke_solve():
    r = run(
        "tke", "--k", "1", "--h", "6", "--kprime", "1",
        "--k1", "-1", "--k2", "-1", "--solve-beta",
    )
    assert r.returncode == 0
    beta0 = float(r.stdout.splitlines()[0].split(" = ")[1])
    assert beta0 == pytest.approx(42.0 / 53.0, rel=1e-14)


def test_tke_at_large_kprime_over_k(capsys):
    """H(1) is a value when k'/k = 1e12, though the asymptote lies 7e-13
    below 1, and both subcommand forms exit 0."""
    argv = ["tke", "--k", "1", "--h", "0", "--kprime", "1e12", "--k1", "-1", "--k2", "-2"]
    code, out, err = run_in_process(argv, capsys)
    assert (code, err) == (0, "")
    values = dict(line.split(" = ") for line in out.splitlines())
    assert float(values["H_at_1"]) == pytest.approx(1.0 - 1e-12, rel=1e-14)
    assert float(values["beta_bar"]) < 1.0
    code, out, err = run_in_process([*argv, "--solve-beta"], capsys)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[0].split(" = ")[1]) < 1.0


TKE_CLASS = ["--k", "1", "--h", "6", "--kprime", "1", "--k1", "-1", "--k2", "-1"]


@pytest.mark.parametrize("argv", [
    ["check", *FIG1],
    ["tke", *TKE_CLASS],
    ["tke", *TKE_CLASS, "--solve-beta"],
    # tables of several chunks, written a chunk at a time
    ["profile", *FIG1, "--samples", "3001"],
    ["figure2", "--k", "1", "--h", "6", "--kprime", "1", "--samples", "9001"],
], ids=" ".join)
def test_out_receives_the_text(argv, tmp_path, capsys):
    code, text, _ = run_in_process(argv, capsys)
    out = tmp_path / "out.txt"
    assert run_in_process([*argv, "--out", str(out)], capsys) == (code, "", "")
    assert out.read_text() == text != ""


@pytest.mark.parametrize("argv", [
    ["profile", *FIG1, "--samples", "100000"],
    ["figure2", "--k", "1", "--h", "6", "--kprime", "1", "--samples", "1000"],
], ids=" ".join)
def test_reader_closing_early_is_not_an_error(argv):
    """A table is written a chunk at a time: when the reader stops (as
    ``| head`` does), the command ends with its own exit code and no
    traceback."""
    p = subprocess.Popen(BASE + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = p.stdout.readline()
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait(timeout=120) == 0
    assert err == b""
    assert first.startswith((b"t,phi,", b"# beta_bar"))


def test_figure2(tmp_path):
    out = tmp_path / "fig2.csv"
    r = run("figure2", "--k", "1", "--h", "6", "--kprime", "1",
            "--samples", "21", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# beta_bar = 0.222222222")
    assert lines[1] == "beta,H"
    row = dict(zip(("beta", "H"), lines[-1].split(",")))
    assert float(row["H"]) == pytest.approx(12.0 / 7.0, rel=1e-12)


def test_limits_large(tmp_path):
    out = tmp_path / "lim.csv"
    r = run(
        "limits", *FIG1, "--mode", "large",
        "--alphas", "0.1,0.01,0.001", "--out", str(out),
    )
    assert r.returncode == 0
    text = out.read_text()
    assert "# alpha_tilde = -0.8333333333333334" in text


def test_limits_small(tmp_path):
    out = tmp_path / "lim.csv"
    r = run(
        "limits", "--k", "1", "--h", "0", "--kprime", "5",
        "--k1", "-2", "--k2", "-1", "--mode", "small",
        "--alphas", "100,1000,10000", "--out", str(out),
    )
    assert r.returncode == 0
    assert "# branch = 1" in out.read_text()


@pytest.mark.parametrize("command", ["profile", "figure2"])
@pytest.mark.parametrize("samples", ["-3", "0", "1"])
def test_samples_below_two_usage_error(command, samples):
    cls = FIG1 if command == "profile" else FIG1[:6]
    r = run(command, *cls, "--samples", samples)
    assert r.returncode == 1
    assert "--samples" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("command", ["profile", "figure2"])
def test_samples_above_bound_usage_error(command, capsys):
    """10^11 rows would not fit in memory; the parser rejects the count
    before anything is allocated."""
    cls = FIG1 if command == "profile" else FIG1[:6]
    code, out, err = run_in_process([command, *cls, "--samples", str(10**11)], capsys)
    assert (code, out) == (1, "")
    assert "--samples" in err and str(cli.MAX_SAMPLES) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", *FIG1],
    ["profile", *FIG1, "--samples", "11"],
    ["figure2", "--k", "1", "--kprime", "5", "--samples", "11"],
    ["check", *FIG1],
], ids=lambda argv: argv[0])
def test_out_into_missing_directory_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.csv"
    code, out, err = run_in_process([*argv, "--out", str(target)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(target) in err
    assert not target.parent.exists()


NONFINITE_ARGV = {
    "--kprime": ["solve", "--k", "1", "--k1", "-1", "--k2", "1", "--kprime"],
    "figure2 --kprime": ["figure2", "--k", "1", "--h", "6", "--kprime"],
    "--k1": ["check", "--k", "1", "--kprime", "5", "--k2", "1", "--k1"],
    "--k2": ["check", "--k", "1", "--kprime", "5", "--k1", "-1", "--k2"],
    "--kpp": ["check", "--k", "1", "--kprime", "5", "--complexified", "--kpp"],
    "--alpha-prime": ["solve", *FIG1, "--alpha-prime"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", list(NONFINITE_ARGV))
def test_nonfinite_input_usage_error(flag, value):
    r = run(*NONFINITE_ARGV[flag], value)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr


def run_in_process(argv, capsys):
    """(exit code, stdout, stderr) of cli.main, without a subprocess."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _is_builtin_number(v):
    if type(v) is tuple:
        return all(map(_is_builtin_number, v))
    return type(v) in (int, float)


LIMITS_CASES = [
    ("large", FIG1, "0.1,0.01,0.001,0.0001"),
    ("large", ["--k", "2", "--h", "1", "--kprime", "3", "--k1", "1.3", "--k2", "0.4"],
     "0.1,0.01"),
    ("small", ["--k", "1", "--h", "0", "--kprime", "5", "--k1", "-2", "--k2", "-1"],
     "100,1000,10000"),
    # one scale: no order can be fitted (NaN)
    ("small", ["--k", "1", "--h", "0", "--kprime", "5", "--k1", "-2", "--k2", "-1"],
     "100"),
]


@pytest.mark.parametrize("mode, class_argv, alphas", LIMITS_CASES)
def test_limits_report_values_are_builtins(mode, class_argv, alphas, capsys):
    """cmd_limits writes repr of each report value, so none may be a numpy
    scalar (np.float64 is a float subclass; its repr is not a float's)."""
    args = build_parser().parse_args(
        ["limits", *class_argv, "--mode", mode, "--alphas", alphas])
    pr = cli._pose_args(args)
    fam = limits.build_family(pr.surface, pr.bundle, args.alphas)
    check = limits.large_radius_check if mode == "large" else limits.small_radius_check
    rep = check(fam)
    values = {"alphas": rep.alphas, "sup_errors": rep.sup_errors, "order": rep.order,
              **rep.constants}
    for k, v in values.items():
        assert _is_builtin_number(v), (k, v)
    code, out, err = run_in_process(
        ["limits", *class_argv, "--mode", mode, "--alphas", alphas], capsys)
    assert (code, err) == (0, "")
    assert "np." not in out


def test_limits_small_where_the_limit_cancels(capsys):
    """On branch -1 with C_hat = 8.4e-25, t - sqrt(t^2 + C_hat) rounds to 0,
    which makes the limit form ratio c1 0/0; the rationalized K keeps it at
    1/(2 gamma), with no warning."""
    k1 = 6.984409242352151e-26
    code, out, err = run_in_process(
        ["limits", "--k=1", "--kprime=1.0", f"--k1={k1!r}", "--k2=1.0",
         "--alphas=1.0", "--mode=small"], capsys)
    assert (code, err) == (0, "")
    consts = dict(line[2:].split(" = ") for line in out.splitlines()
                  if line.startswith("# "))
    b = pose(make_surface(1, 0, 1.0), BundleClass(k1=k1, k2=1.0)).bundle
    gamma = (b.k1 ** 2 - b.k2 ** 2) / (2.0 * b.k1)
    assert consts["branch"] == "-1"
    assert float(consts["c1_mean"]) == pytest.approx(1.0 / (2.0 * gamma), rel=1e-12)


def test_limits_complexified_mirror_prints_the_same_report(capsys):
    """kpp = 2 poses a conjugated class and kpp = -2 its reduced mirror: both
    compare H in the solution's own frame with the reduced class's limit."""
    outs = []
    for kpp in ("2.0", "-2.0"):
        code, out, err = run_in_process(
            ["limits", "--k", "1", "--kprime", "5", "--complexified", f"--kpp={kpp}",
             "--mode", "large", "--alphas=1e-1,1e-2,1e-3,1e-4"], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    order = float(outs[0].split("# fitted_order = ")[1].split("\n")[0])
    assert order >= 0.9


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.5", "1.5"])
@pytest.mark.parametrize("command", ["solve", "profile", "tke"])
def test_beta0_outside_unit_interval_usage_error(command, value, capsys):
    code, out, err = run_in_process([command, *FIG1, "--beta0", value], capsys)
    assert code == 1
    assert "--beta0" in err
    assert out == ""


def test_tke_beta0_default_is_one(capsys):
    default = run_in_process(["tke", *FIG1], capsys)
    assert default[0] == 0
    assert run_in_process(["tke", *FIG1, "--beta0", "1"], capsys) == default
    half = run_in_process(["tke", *FIG1, "--beta0", "0.5"], capsys)
    assert half[0] == 0 and half[1] != default[1]


def test_negative_scientific_notation_is_a_value():
    base = ["check", "--k", "1", "--h", "0", "--kprime", "5"]
    r = run(*base, "--k1", "-1e-4", "--k2", "-2.5E+3")
    assert r.returncode == 0, r.stderr
    assert r.stdout == run(*base, "--k1=-1e-4", "--k2=-2.5E+3").stdout


@pytest.mark.parametrize("argv", [
    ["solve", *FIG1, "--alpha-prime", "1e-4"],
    ["profile", "--k", "1", "--h", "0", "--kprime", "5", "--k1", "-1e-4", "--k2", "1e-4"],
])
def test_residual_failure_names_the_check(argv):
    r = run(*argv)
    assert r.returncode == 4
    msg = r.stderr.strip().splitlines()[-1]
    assert msg.startswith("residual suite failed: ")
    key, _, rest = msg.removeprefix("residual suite failed: ").partition(" = ")
    value, _, bound = rest.partition(" > ")
    assert float(bound) == THRESHOLDS[key]
    assert float(value) > THRESHOLDS[key]


#: A class whose interval [1/x - 1, 1/x + 1] lies past 2e14, and one so far
#: out, at 1/x > 2^53, that its width rounds to 0
FAR_CLASS = ["--k", "1", "--h", "0", "--kprime=2e14", "--k1=-1.3", "--k2=-0.4"]
ZERO_WIDTH_CLASS = ["--k", "1", "--h", "0", "--kprime=1e17", "--k1=-1.3", "--k2=-0.4"]


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_far_interval_is_judged_by_the_residual_suite(command, capsys):
    """The boundary solve of a valid class far out has determinant 2; the
    residual suite, not a usage error, gives the verdict."""
    code, _, err = run_in_process([command, *FAR_CLASS], capsys)
    assert code == 4, err
    key = err.removeprefix("residual suite failed: ").partition(" = ")[0]
    assert err.startswith("residual suite failed: ") and key in THRESHOLDS, err


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_zero_width_interval_is_a_usage_error(command, capsys):
    code, out, err = run_in_process([command, *ZERO_WIDTH_CLASS], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "out of double-precision range" in err
    assert "Traceback" not in err


def test_zero_width_class_still_checks(capsys):
    code, out, err = run_in_process(["check", *ZERO_WIDTH_CLASS], capsys)
    assert (code, err) == (0, "")
    assert "stability_class = Stable" in out


def _near_semistable_argvs(n, seed=20261018):
    """solve argvs of stable classes with margins 10^U(-11, -2)."""
    return [["solve", *_class_argv(s, b)]
            for s, b in _near_semistable_classes(n, seed, -11.0, -2.0)]


def _near_semistable_classes(n, seed, lo, hi):
    """(surface, class) pairs, stable with margins 10^U(lo, hi)."""
    rng = np.random.default_rng(seed)
    classes = []
    while len(classes) < n:
        s = make_surface(int(rng.integers(1, 4)), int(rng.integers(0, 3)),
                         float(rng.integers(1, 7)))
        k1, eps = -rng.uniform(0.2, 3.0), 10.0 ** rng.uniform(lo, hi)
        # margin(k2) = (1-x) k2^2 + 2 k1 (1+x) k2 + (1-x)(1+k1^2)
        x = s.x
        qa, qb = 1.0 - x, 2.0 * k1 * (1.0 + x)
        disc = qb * qb - 4.0 * qa * ((1.0 - x) * (1.0 + k1 * k1) - eps)
        if disc < 0.0:
            continue
        b = BundleClass(k1=k1, k2=(-qb + math.sqrt(disc)) / (2.0 * qa))
        if eps / 2 < pose(s, b).margin < 2 * eps:
            classes.append((s, b))
    return classes


#: solve argvs that exit 4, each with the first key over its bound: a profile
#: whose basis terms round above the absolute psi bound (2^-33) and a small
#: complexified class.
EXIT_4 = [
    (["solve", "--k", "3", "--h", "1", "--kprime=4.0", "--k1=-0.630065252448106",
      "--k2=-2.9694126750620833", "--alpha-prime=0.03465137816458235"],
     "psi_err_plus"),
    (["solve", "--k", "3", "--h", "2", "--kprime=6.0", "--complexified",
      "--kpp=0.49273741318747977"], "max_scalar_residual"),
]


def test_numerical_failure_exits_4(capsys):
    """A residual over its bound is exit 4 with the descriptor, never exit 1.

    Near the semistable band H is exact at t_minus and its numerators are
    formed from (t_minus, u_minus), so every class there passes.
    """
    expected = {tuple(argv): key for argv, key in EXIT_4}
    for argv in [*(argv for argv, _ in EXIT_4), *_near_semistable_argvs(100)]:
        code, out, err = run_in_process(argv, capsys)
        d = parse_descriptor(out)
        assert format_descriptor(d) == out
        over = [k for k, bound in THRESHOLDS.items() if k in d and not d[k] <= bound]
        if tuple(argv) in expected:
            assert code == 4, (argv, err)
            assert over == [expected[tuple(argv)]], argv
            assert err.startswith(f"residual suite failed: {over[0]} = ")
        else:
            assert (code, over, err) == (0, [], ""), argv


def test_perturbed_phase_exits_4(monkeypatch, capsys):
    """A descriptor whose sin(theta) is off by 1e-13 relative misses the
    constant-phase equation: on figure 1 max_im_part is about 3.5e-12 and
    the only key over its bound."""
    conical_coefficients = coupled.conical_coefficients

    def perturbed(s, b, beta0):
        prof = conical_coefficients(s, b, beta0)
        sol = dataclasses.replace(prof.sol, sin_theta=prof.sol.sin_theta * (1.0 + 1e-13))
        return dataclasses.replace(prof, sol=sol)

    monkeypatch.setattr(coupled, "conical_coefficients", perturbed)
    code, out, err = run_in_process(["solve", *FIG1], capsys)
    d = parse_descriptor(out)
    assert code == 4 and format_descriptor(d) == out
    assert [k for k, bound in THRESHOLDS.items() if not d[k] <= bound] == ["max_im_part"]
    assert err.startswith("residual suite failed: max_im_part = ")
    code, out, err = run_in_process(["profile", *FIG1, "--samples", "11"], capsys)
    assert code == 4 and len(out.splitlines()) == 12
    assert err.startswith("residual suite failed: max_im_part = ")


#: solve argvs of near-semistable classes on which t^2 + C' formed by
#: subtraction misses the boundary value and slope at t_minus by ~1e-7 and
#: ~2e-8.
SLOPE_MISS = [
    ["solve", "--k", "3", "--h", "1", "--kprime=6.0",
     "--k1=-2.8915504820619056", "--k2=10.690564382531623"],
    ["solve", "--k", "2", "--h", "0", "--kprime=5.0",
     "--k1=-1.8158211301628686", "--k2=5.795481209340961"],
]


@pytest.mark.parametrize("argv", SLOPE_MISS, ids=" ".join)
def test_near_semistable_boundary_is_exact(argv, capsys):
    code, out, err = run_in_process(argv, capsys)
    assert code == 0, err
    d = parse_descriptor(out)
    assert d["boundary_err_minus"] <= 1e-12
    assert d["slope_err_minus"] <= 1e-12


#: (k1, k2, k'/k) of semistable classes whose float margin is exactly 0.
SEMISTABLE_FAMILIES = [(-1.0, 1.0, 4.0), (-2.0, 1.0, 4.0), (-1.0, 2.0, 4.0),
                       (-2.0, 2.0, 16.0), (-0.5, 0.5, 1.0), (-1.5, 0.5, 1.5)]


@pytest.mark.parametrize("mirror", [1.0, -1.0], ids=["canonical", "mirrored"])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("k1, k2, ratio", SEMISTABLE_FAMILIES)
def test_semistable_family_radicand_is_zero(k1, k2, ratio, k, mirror, capsys):
    s = make_surface(k, 0, ratio * k)
    b = BundleClass(k1=mirror * k1, k2=mirror * k2)
    assert pose(s, b).u_minus == 0.0
    code, out, err = run_in_process(
        ["solve", *_class_argv(s, b), "--allow-semistable"], capsys)
    assert code == 2, err
    d = parse_descriptor(out)
    assert (d["stability_class"], d["regularity"]) == ("Semistable", "holder12")


@pytest.mark.parametrize("cls, beta0, extra, code", [
    ((1, 0, 5.0, -1.0, 1.0), 1.0, [], 0),
    ((3, 2, 9.0, 1.3, 0.7), 0.3, ["--beta0", "0.3"], 0),
    ((1, 0, 4.0, -1.0, 1.0), 1.0, ["--allow-semistable"], 2),
])
def test_profile_columns_match_pointwise_calls(tmp_path, cls, beta0, extra, code):
    k, h, kp, k1, k2 = cls
    out = tmp_path / "prof.csv"
    r = run("profile", "--k", str(k), "--h", str(h), f"--kprime={kp!r}",
            f"--k1={k1!r}", f"--k2={k2!r}", "--samples", "401", *extra,
            "--out", str(out))
    assert r.returncode == code
    assert r.stderr == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 401

    s = make_surface(k, h, kp)
    b = canonicalize(BundleClass(k1=k1, k2=k2))
    sol = dhym.solve_dhym(s, b)
    prof = coupled.conical_coefficients(s, b, beta0)
    holder = sol.regularity == "holder12"
    assert holder == (code == 2)
    blank = [i for i, row in enumerate(rows) if row[4] == "" or row[5] == ""]
    assert blank == ([0] if holder else [])

    # every row bitwise against the public calls on the same arrays; the
    # derivative-based columns on t[i:], past a holder12 end
    t = np.linspace(sol.t_minus, sol.t_plus, 401)
    i = 1 if holder else 0
    psi = coupled.eval_psi(prof, t)
    columns = [
        t, psi / (2.0 * t), psi, dhym.eval_H(sol, t),
        coupled.phase_and_radius(prof, s, b, sol, t[i:])[0],
        coupled.scalar_residual(prof, s, b, t[i:]),
    ]
    for j, want in enumerate(columns):
        got = [row[j] for row in rows[len(rows) - len(want):]]
        assert got == [repr(v) for v in want.tolist()], j


def _pointwise_summary(s, b, sol, prof):
    """residual_summary as separate calls: the ODE residual, the phase and the
    scalar residual each on the 999-point interior grid, 0-d calls at the
    ends."""
    interior = np.linspace(sol.t_minus, sol.t_plus, 1001)[1:-1]
    tgt_minus, tgt_plus = dhym.boundary_targets(s, b)
    im, _ = coupled.phase_and_radius(prof, s, b, sol, interior)
    out = {
        "max_dhym_residual": float(np.max(np.abs(ode_residual_H(sol, interior)))),
        "max_im_part": float(np.max(np.abs(im))),
        "max_scalar_residual": float(
            np.max(np.abs(coupled.scalar_residual(prof, s, b, interior)))
        ),
        "boundary_err_minus": abs(dhym.eval_H(sol, sol.t_minus) - tgt_minus),
        "boundary_err_plus": abs(dhym.eval_H(sol, sol.t_plus) - tgt_plus),
        "psi_err_minus": abs(coupled.eval_psi(prof, sol.t_minus)),
        "psi_err_plus": abs(coupled.eval_psi(prof, sol.t_plus)),
        "slope_err_plus": abs(
            eval_psi_deriv(prof, sol.t_plus, 1) + 2.0 * prof.beta0 * sol.t_plus
        ),
    }
    if sol.regularity == "smooth":
        out["slope_err_minus"] = abs(
            eval_psi_deriv(prof, sol.t_minus, 1)
            - 2.0 * prof.beta_inf * sol.t_minus
        )
    return out


def _summary_cases():
    """(surface, class as given, beta0) for the fused-pass comparison."""
    fig1 = make_surface(1, 0, 5)
    cases = [
        (fig1, BundleClass(k1=-1.0, k2=1.0), 1.0),
        (fig1, BundleClass(k1=-1.0, k2=1.0), 0.5),
        (make_surface(1, 0, 4), BundleClass(k1=-1.0, k2=1.0), 1.0),  # semistable
        (fig1, BundleClass(k1=1.0, k2=-1.0), 1.0),  # conjugated
        (*from_complexified(1, 0, 5.0, 3.0), 1.0),
    ]
    rng = np.random.default_rng(20261018)
    cases += [(*draw_stable(rng), 1.0) for _ in range(50)]
    for _ in range(20):
        s, b = draw_stable(rng)
        a = float(10.0 ** rng.uniform(-3.0, 0.0))
        cases.append((s, limits.scaled_class(canonicalize(b), a), 1.0))
    # the classes whose exit codes are fragile: near the semistable band, and
    # scaled by alpha' in [1e-4, 1e-3)
    cases += [(s, b, 1.0) for s, b in _near_semistable_classes(30, 20261019, -10.0, -3.0)]
    for _ in range(20):
        s, b = draw_stable(rng)
        a = float(10.0 ** rng.uniform(-4.0, -3.0))
        cases.append((s, limits.scaled_class(canonicalize(b), a), 1.0))
    return cases


def test_residual_summary_matches_pointwise_calls():
    """The one-pass summary is bitwise the summary of separate calls."""
    two_point_differs = 0
    branches = set()
    for s, b, beta0 in _summary_cases():
        pr = pose(s, b)
        s, b = pr.surface, pr.bundle
        sol = dhym.solve_dhym(s, b)
        prof = coupled.conical_coefficients(s, b, beta0)
        assert prof.sol == sol, (s, b)
        grid = np.linspace(sol.t_minus, sol.t_plus, 1001)
        assert dhym.default_grid(sol).tobytes() == grid.tobytes(), (s, b)
        vp = verification_pass(prof)
        assert vp.t.tobytes() == grid.tobytes(), (s, b)
        got = residual_summary(prof, vp)
        assert got == _pointwise_summary(s, b, sol, prof), (s, b, beta0)
        assert all(type(v) is float for v in got.values())
        branches.add(sol.cos_theta > 0.0)
        # psi at the ends from one 2-point call rounds differently, which
        # this comparison must be able to see
        ends = coupled.eval_psi(prof, np.array([sol.t_minus, sol.t_plus]))
        two_point_differs += np.abs(ends).tolist() != [got["psi_err_minus"],
                                                       got["psi_err_plus"]]
    assert branches == {True, False}  # both forms of H and H'
    assert two_point_differs > 0


def _descriptor_cases():
    """The fused-pass cases plus conical and complexified draws, so that
    every kind of class a solve meets is in the set: smooth, conical,
    conjugated, complexified, semistable, near-semistable and alpha'-scaled."""
    cases = _summary_cases()
    rng = np.random.default_rng(20261020)
    cases += [(*draw_stable(rng), float(rng.uniform(0.1, 1.0))) for _ in range(30)]
    n = len(cases) + 20
    while len(cases) < n:
        k, h, kprime = int(rng.integers(1, 4)), int(rng.integers(0, 3)), float(rng.integers(1, 7))
        s, b = from_complexified(k, h, kprime, float(rng.uniform(0.2, 4.0)))
        if pose(s, b).margin > 0:
            cases.append((s, b, float(rng.choice([1.0, rng.uniform(0.1, 1.0)]))))
    return cases


def _posed_solve(s, b, beta0):
    pr = pose(s, b)
    s, b = pr.surface, pr.bundle
    return s, b, dhym.solve_dhym(s, b), coupled.conical_coefficients(s, b, beta0)


#: solve --k 3 --h 1 --kprime=5.0 --complexified --kpp=-1.0106252218244185:
#: t sin(theta) ** 2 by libm's pow rounds apart from the product at t_minus
POW_SQUARE_CLASS = (*from_complexified(3, 1, 5.0, -1.0106252218244185), 1.0)


def test_H_and_slopes_have_the_same_bits_at_every_shape():
    """H, H', both parts of the phase, the scalar residual and psi' read the
    same bits from a 0-d call, an array call and the verification pass, ends
    included.  psi is left out: its t**3 and u**1.5 still round by shape
    (ROADMAP item 20's psi half)."""
    rng = np.random.default_rng(20261020)
    forms = set()
    for case in [*_descriptor_cases(), POW_SQUARE_CLASS]:
        s, b, sol, prof = _posed_solve(*case)
        forms.add((sol.cos_theta > 0.0, dhym._near_root(sol)))
        ends = [sol.t_minus, sol.t_plus]
        t = np.array([ends[0], *np.sort(rng.uniform(*ends, 20)), ends[1]])
        calls = [
            lambda t: dhym.eval_H(sol, t),
            lambda t: eval_H_deriv(sol, t),
            lambda t: coupled.phase_and_radius(prof, s, b, sol, t)[0],
            lambda t: coupled.phase_and_radius(prof, s, b, sol, t)[1],
            lambda t: coupled.scalar_residual(prof, s, b, t),
        ]
        # a holder12 solution's H' divides by zero at t_minus
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, f in enumerate(calls):
                pointwise = np.array([f(x) for x in t.tolist()])
                assert pointwise.tobytes() == f(t).tobytes(), (case, j)
        grid = verification_pass(prof)
        H = [dhym.eval_H(sol, x) for x in ends]
        assert grid.H[[0, -1]].tobytes() == np.array(H).tobytes(), case
        slopes = [coupled._psi_p_of(prof, x, math.sqrt(dhym.radicand(sol, x)), x * x)
                  for x in ends]
        assert grid.psi_p[[0, -1]].tobytes() == np.array(slopes).tobytes(), case
    assert forms == {(True, True), (True, False), (False, True), (False, False)}


def test_solve_and_profile_make_no_0d_H_call(monkeypatch, tmp_path, capsys):
    """solve and profile read H at the ends from the verification pass."""
    def refuse(*args):
        raise AssertionError("a 0-d eval_H call")

    monkeypatch.setattr(dhym, "eval_H", refuse)
    out = tmp_path / "prof.csv"
    for argv in (["solve", *FIG1], ["profile", *FIG1, "--out", str(out)]):
        code, _, err = run_in_process(argv, capsys)
        assert (code, err) == (0, ""), argv


def test_descriptor_matches_separate_calls():
    """The descriptor read from one SolvePass is bitwise the descriptor of
    the separate public calls: positivity_certificate on its own grid, and
    the residual suite as separate calls."""
    branches, methods = set(), set()
    for case in _descriptor_cases():
        s, b, sol, prof = _posed_solve(*case)
        got = build_descriptor(prof)
        pos = coupled.positivity_certificate(prof, certificate_pass(prof))
        want = {
            **got,
            "positivity_method": pos.method,
            "positivity_min": pos.min_value,
            "positivity_argmin": pos.argmin,
            **_pointwise_summary(s, b, sol, prof),
        }
        assert list(got) == list(want), case
        assert format_descriptor(got) == format_descriptor(want), case
        branches.add(sol.cos_theta > 0.0)
        methods.add(pos.method)
    assert branches == {True, False}
    assert {"ConvexityCertified", "GridVerified"} <= methods


def test_descriptor_values_are_builtins():
    """format_descriptor writes repr of each value, so none may be a numpy
    scalar (np.float64 is a float subclass; its repr is not a float's)."""
    for case in _descriptor_cases():
        d = build_descriptor(_posed_solve(*case)[3])
        for k, v in d.items():
            assert v is None or type(v) in (bool, int, float, str), (k, type(v))


def test_solve_poses_each_class_once(capsys):
    """Each class one solve touches is posed once, however many stages read
    it; and pose is called only by the stages that take (s, b): the command
    line, the unstable gate and the coefficients, plus the scaled class."""
    cases = [
        (FIG1, 1, 3),
        # a mirrored input is posed in its canonical form only
        (["--k", "1", "--h", "0", "--kprime", "5", "--k1", "1", "--k2", "-1"], 1, 3),
        # the input class, then the scaled class
        ([*FIG1, "--alpha-prime", "0.5"], 2, 4),
    ]
    for class_argv, misses, calls in cases:
        pose.cache_clear()
        for _ in range(2):
            before = pose.cache_info()
            code, _, err = run_in_process(["solve", *class_argv], capsys)
            assert code == 0, err
            after = pose.cache_info()
            assert after.misses - before.misses == misses, class_argv
            assert (after.hits + after.misses) - (before.hits + before.misses) == calls, class_argv
            misses = 0  # the second run poses nothing new
    s, b = make_surface(1, 0, 5), BundleClass(k1=-1.0, k2=1e-300)
    for _ in range(2):  # an input that raises is not remembered
        with pytest.raises(ValidationError, match="double-precision range"):
            pose(s, b)


def test_figure2_blank_cell_at_pole(tmp_path):
    out = tmp_path / "fig2.csv"
    r = run("figure2", "--k", "1", "--h", "6", "--kprime", "1",
            "--samples", "10", "--out", str(out))
    assert r.returncode == 0
    assert r.stderr == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 10
    # beta = 2/9 is the third sample and the vertical asymptote
    assert float(rows[2][0]) == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert [i for i, row in enumerate(rows) if row[1] == ""] == [2]


def _class_argv(s, b):
    return ["--k", str(s.k), "--h", str(s.h), f"--kprime={s.kprime!r}",
            f"--k1={b.k1!r}", f"--k2={b.k2!r}"]


#: Margin 4.0e-13: inside the semistable band, a quarter of its half-width.
BAND_EDGE = (make_surface(1, 0, 4), BundleClass(k1=-1.0, k2=0.9999999999995))


def test_band_edge_class_one_answer(capsys):
    s, b = BAND_EDGE
    code, out, _ = run_in_process(["check", *_class_argv(s, b)], capsys)
    assert code == 2 and "stability_class = Semistable" in out
    code, out, err = run_in_process(
        ["solve", *_class_argv(s, b), "--allow-semistable"], capsys)
    assert code == 2, err
    d = parse_descriptor(out)
    assert 0.0 < d["stability_margin"] < 1e-12
    assert (d["stability_class"], d["regularity"]) == ("Semistable", "holder12")
    assert all(d[key] <= bound for key, bound in THRESHOLDS.items() if key in d)
    assert dhym.solve_dhym(s, b).Cprime == coupled.conical_coefficients(s, b, 1.0).sol.Cprime


_rng = np.random.default_rng(20261018)
ONE_ANSWER_CLASSES = [
    (make_surface(1, 0, 5), BundleClass(k1=-1.0, k2=1.0)),  # figure 1
    (make_surface(1, 0, 4), BundleClass(k1=-1.0, k2=1.0)),  # semistable
    *(draw_stable(_rng) for _ in range(25)),
]


@pytest.mark.parametrize("s, b", ONE_ANSWER_CLASSES)
def test_descriptor_agrees_with_itself(s, b, capsys):
    code, out, err = run_in_process(
        ["solve", *_class_argv(s, b), "--allow-semistable"], capsys)
    assert code in (0, 2), err
    d = parse_descriptor(out)
    expected = {"Stable": "smooth", "Semistable": "holder12"}[d["stability_class"]]
    assert d["regularity"] == expected
    assert d["Cprime"] == dhym.solve_dhym(s, b).Cprime


#: Inputs that must exit 1 with one `error:` line.  Before the class data went
#: through one gate, the first ones ended in a Python traceback: underflowing
#: divisors and overflowing squares, and a subnormal k2^2 that overflows the
#: coupling constant.  figure2 wrote NaN and -0.0 for a k'/k whose triple
#: overflows.  The last two give class options that conflict; one of them
#: used to be dropped without a word.
OUT_OF_RANGE_ARGV = [
    ["solve", "--k", "1", "--kprime", "5", "--k1", "-1", "--k2", "1e-300"],
    ["solve", "--k", "1", "--kprime", "5", "--k1", "-1e-170", "--k2", "1e-170"],
    ["solve", "--k", "1", "--kprime", "1e300", "--k1", "-1", "--k2", "1"],
    ["solve", "--k", "1", "--kprime", "5", "--complexified", "--kpp", "1e-300"],
    ["check", "--k", "1", "--kprime", "5", "--k1", "-1e300", "--k2", "1"],
    ["solve", "--k", "1", "--kprime", "5", "--k1", "-1e300", "--k2", "1"],
    ["tke", "--k", "1", "--kprime", "5", "--k1", "-1e300", "--k2", "-1"],
    ["limits", *FIG1, "--mode", "large", "--alphas", "1e-200,1e-100"],
    ["solve", "--k", "1", "--kprime", "1", "--k1", "1", "--k2", "1.1e-161"],
    ["figure2", "--k", "1", "--h", "0", "--kprime=1e308", "--samples", "5"],
    ["figure2", "--k", "1", "--h", "0", "--kprime=1e-309", "--samples", "5"],
    ["check", "--k", "1", "--kprime", "5", "--k1", "-1", "--k2", "1", "--kpp", "3"],
    ["check", "--k", "1", "--kprime", "5", "--complexified", "--kpp", "3",
     "--k1", "-1", "--k2", "1"],
    # alpha, c3 and cR are finite, the boundary solve's d0 and d1 are not
    ["solve", "--k", "1", "--kprime", "999", "--k1", "-1", "--k2=-1e-150"],
    ["profile", "--k", "1", "--kprime", "999", "--k1", "-1", "--k2=-1e-150",
     "--samples", "3"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ARGV, ids=" ".join)
def test_out_of_range_class_usage_error(argv, capsys):
    code, out, err = run_in_process(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_scaled_semistable_class_gate(capsys):
    # (1, 0, 4, -1, 1) scaled by alpha' = 1 is the semistable class itself
    argv = ["solve", "--k", "1", "--kprime", "4", "--k1", "-1", "--k2", "1",
            "--alpha-prime", "1"]
    code, out, err = run_in_process(argv, capsys)
    assert (code, out) == (2, "")
    assert "--allow-semistable" in err
    code, out, err = run_in_process([*argv, "--allow-semistable"], capsys)
    assert code == 2, err
    d = parse_descriptor(out)
    assert (d["stability_class"], d["regularity"]) == ("Semistable", "holder12")


_scale_rng = np.random.default_rng(20261021)
#: (surface, class with k1 < 0, alpha'): figure 1 at three scalings, and draws
SCALED_CASES = [
    *((make_surface(1, 0, 5), BundleClass(k1=-1.0, k2=1.0), a)
      for a in (1.0, 1e-2, 1e-4)),
    *((*draw_stable(_scale_rng), float(10.0 ** _scale_rng.uniform(-4.0, 0.0)))
      for _ in range(5)),
]


@pytest.mark.parametrize("beta0", [[], ["--beta0", "0.5"]], ids=["smooth", "conical"])
@pytest.mark.parametrize("s, b, a", SCALED_CASES)
def test_alpha_prime_is_solve_on_the_scaled_class(s, b, a, beta0, capsys):
    code, out, err = run_in_process(
        ["solve", *_class_argv(s, b), f"--alpha-prime={a!r}", *beta0], capsys)
    scaled = BundleClass(k1=a * b.k1, k2=a * b.k2)
    assert run_in_process(["solve", *_class_argv(s, scaled), *beta0], capsys) == (
        code, out.replace(f"alpha_prime = {a!r}", "alpha_prime = None"), err)
    d = parse_descriptor(out)
    assert d["alpha_prime"] == a
    redone = reverify(d)
    assert redone == {key: d[key] for key in redone}


@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf", "abc"])
def test_alpha_prime_usage_error(value, capsys):
    code, out, err = run_in_process(["solve", *FIG1, "--alpha-prime", value], capsys)
    assert code == 1
    assert "--alpha-prime" in err
    assert out == ""


def test_main_reuses_one_parser_without_state(capsys):
    """Each main call answers as a fresh parser's subcommand would."""
    sequence = [
        ["solve", *FIG1, "--beta0", "0.5"],
        ["solve", *FIG1, "--beta0", "2"],
        ["solve", *FIG1],
        ["check", *FIG1],
        ["profile", *FIG1, "--samples", "11"],
        ["limits", *FIG1, "--mode", "large", "--alphas", "0.1,0.01"],
        [],
        ["bogus"],
        ["--help"],
        ["solve", "--help"],
    ]
    for argv in sequence:
        got = run_in_process(argv, capsys)
        try:
            args = build_parser().parse_args(argv)
            code = getattr(cli, f"cmd_{args.command}")(args)
        except SystemExit as exc:
            code = exc.code
        want = (code, *capsys.readouterr())
        assert got == want, argv


@pytest.mark.parametrize("alphas", ["1e-1,abc", ",", "", "1e-1,-1", "0", "1,nan", "inf"])
def test_limits_alphas_usage_error(alphas, capsys):
    code, out, err = run_in_process(
        ["limits", *FIG1, "--mode", "large", "--alphas", alphas], capsys)
    assert code == 1
    assert "--alphas" in err
    assert out == ""


def test_tol_option_is_gone(capsys):
    for command in ("check", "solve", "profile", "tke", "figure2", "limits"):
        code, out, _ = run_in_process([command, "--help"], capsys)
        assert code == 0 and "--tol" not in out, command


#: One argv value, ordinary four times in five so that runs get past the
#: parser; otherwise any float (extremes, subnormals, +-inf, NaN), an integer
#: of any size, or text that is not a number.
_TEXT = st.sampled_from(["abc", "", "1e", "-", "0x10", "1,2"])
_WILD = st.one_of(st.floats(), st.integers(), _TEXT)


def _value(ordinary):
    return st.integers(0, 9).flatmap(lambda i: ordinary if i < 8 else _WILD).map(str)


_NUMBER = _value(st.floats(-8.0, 8.0))
_FLAGS = {
    "--k": _value(st.integers(1, 4)),
    "--h": _value(st.integers(0, 6)),
    "--kprime": _value(st.floats(0.1, 8.0)),
    "--k1": _NUMBER,
    "--k2": _NUMBER,
    "--kpp": _NUMBER,
    "--beta0": _value(st.floats(0.05, 1.0)),
    "--alpha-prime": _value(st.floats(1e-3, 10.0)),
    # no integers beyond 40: a grid of 10^9 rows would only test the memory
    "--samples": st.one_of(st.integers(-2, 40), st.floats(), _TEXT).map(str),
    "--alphas": st.lists(_value(st.floats(1e-3, 1e3)), min_size=1, max_size=3).map(",".join),
}
_COMMAND_FLAGS = {
    "check": ("--k", "--h", "--kprime", "--k1", "--k2", "--kpp"),
    "solve": ("--k", "--h", "--kprime", "--k1", "--k2", "--kpp", "--beta0",
              "--alpha-prime"),
    "profile": ("--k", "--h", "--kprime", "--k1", "--k2", "--kpp", "--beta0",
                "--samples"),
    "tke": ("--k", "--h", "--kprime", "--k1", "--k2", "--kpp", "--beta0"),
    "figure2": ("--k", "--h", "--kprime", "--samples"),
    "limits": ("--k", "--h", "--kprime", "--k1", "--k2", "--kpp", "--alphas"),
}
_SWITCHES = {
    "check": ("--complexified",),
    "solve": ("--complexified", "--allow-semistable"),
    "profile": ("--complexified", "--allow-semistable"),
    "tke": ("--complexified", "--solve-beta"),
    "figure2": (),
    "limits": ("--complexified",),
}


@st.composite
def cli_argv(draw, command):
    """argv for one subcommand, each of its optional flags present or not."""
    argv = [command]
    for flag in _COMMAND_FLAGS[command]:
        if flag in ("--k", "--kprime", "--k1", "--k2", "--alphas") or draw(st.booleans()):
            argv.append(f"{flag}={draw(_FLAGS[flag])}")
    argv += [s for s in _SWITCHES[command] if draw(st.booleans())]
    if command == "limits":
        argv.append(draw(st.sampled_from(["--mode=large", "--mode=small"])))
    return argv


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_contract(command, data):
    argv = data.draw(cli_argv(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue()


#: Tokens that _parse must hand to argparse: help, "--", abbreviations, an
#: explicit value given to a switch, option-like and negative values, bare
#: options and stray values.
_NOISE = st.sampled_from([
    "-h", "--help", "--", "--kprim", "--kp", "--al", "--be", "--complexified=1",
    "--complexified=", "--allow-semistable=yes", "--out", "--out=-x", "--k1=",
    "--k1", "--beta0", "--mode", "large", "medium", "-1e-4", "-.5", "-inf",
    "-nan", "-1e", "-x", "--x", "-", "", "abc", "1", "0x10",
])


@st.composite
def mutated_argv(draw, command):
    """A cli_argv of command, without the command, with its ``--opt=value``
    arguments split at random, one option name abbreviated, noise tokens
    inserted, a stretch repeated and the last token dropped, each or none."""
    argv = []
    for arg in draw(cli_argv(command))[1:]:
        name, eq, value = arg.partition("=")
        argv += [name, value] if eq and draw(st.booleans()) else [arg]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(argv) - 1))
        if argv[i].startswith("--"):
            name, eq, value = argv[i].partition("=")
            argv[i] = name[:draw(st.integers(3, len(name)))] + eq + value
    for token in draw(st.lists(_NOISE, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    if argv and draw(st.booleans()):
        i = draw(st.integers(0, len(argv) - 1))
        argv += argv[i:i + draw(st.integers(1, 4))]
    if argv and draw(st.integers(0, 4)) == 0:
        argv.pop()
    return argv


def _parse_outcome(parse, argv):
    """(the Namespace as sorted items, or the exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse(list(argv))).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_SUBCOMMANDS = build_parser().commands


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_parse_is_the_subcommands_parse_args(command, data):
    """main's own reading of an argv gives what argparse gives: the same
    Namespace, or the same exit code and text."""
    sub = _SUBCOMMANDS[command]
    argv = data.draw(mutated_argv(command), label="argv")
    got = _parse_outcome(lambda a: cli._parse(sub, a), argv)
    assert got == _parse_outcome(sub.parse_args, argv), argv


def _unfollowed(p):
    """What of parser p's declaration cli._grammar does not read."""
    found = [kind for kind, declared in (
        ("parser default", p._defaults),
        ("mutually exclusive group", p._mutually_exclusive_groups),
        ("negative-number option", p._has_negative_number_optionals)) if declared]
    for a in p._actions:
        if not a.option_strings:
            found.append("positional")
        elif isinstance(a.default, str) and a.default is not argparse.SUPPRESS:
            found.append("string default")
    return found


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_parse_reads_the_whole_declaration(command):
    """_parse reads a subcommand's argv from _grammar alone, so every
    subcommand parser declares only what _grammar reads."""
    assert _unfollowed(_SUBCOMMANDS[command]) == []


@pytest.mark.parametrize("kind, declare", [
    ("parser default", lambda p: p.set_defaults(out=None)),
    ("mutually exclusive group",
     lambda p: p.add_mutually_exclusive_group().add_argument("--quiet", action="store_true")),
    ("negative-number option", lambda p: p.add_argument("-1", dest="one")),
    ("positional", lambda p: p.add_argument("name")),
    ("string default", lambda p: p.add_argument("--name", default="1")),
])
def test_the_declaration_guard_trips(kind, declare):
    p = cli._Parser(prog="synthetic")
    p.add_argument("--k", type=int, required=True)
    assert _unfollowed(p) == []
    declare(p)
    assert _unfollowed(p) == [kind]


_CANONICAL_ARGVS = [
    ["check", *FIG1],
    ["solve", *FIG1, "--beta0=0.5", "--alpha-prime", "0.5", "--allow-semistable"],
    ["profile", *FIG1, "--samples", "11", "--allow-semistable"],
    ["tke", "--k", "1", "--h", "0", "--kprime", "5", "--complexified", "--kpp=-3",
     "--beta0", "0.5"],
    ["figure2", "--k", "1", "--h", "0", "--kprime", "5", "--samples", "11"],
    ["limits", *FIG1, "--mode", "large", "--alphas", "0.1,0.01"],
]


@pytest.mark.parametrize("argv", _CANONICAL_ARGVS, ids=[a[0] for a in _CANONICAL_ARGVS])
def test_canonical_argv_does_not_reach_argparse(argv, monkeypatch, capsys):
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse parsed {args!r}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    code, out, err = run_in_process(argv, capsys)
    assert code == 0, err
    assert out
