"""How many stable classes the solve verifies, band by band, as ceilings.

Seeded bands of classes run ``solve`` in process through ``cli.main``.  The
classes are picked, and their exit codes predicted, by the exact Fraction
stability margin of perfbench/workloads.py, so no band trusts ``pose`` to
classify them.  Every solve must exit with its predicted code or with 4 (a
residual key over its bound): stderr is empty on exit 0 and names one
THRESHOLDS key on exit 4.  Each band's exit-4 count and its count of
``positivity_method = Failed`` must stay at or below the ceilings written
beside it, which are the counts measured when the band was added: a ceiling
may only go down.  Every tenth class also runs ``profile --samples 11``,
which must give the same exit code and stderr, since both verify the same
pass.

``pytest tests/test_coverage.py -s`` prints, per band, the count, the exit-4
count, the Failed count and the tally of the first failing keys.

The ``limits`` bands run each mode of ``limits`` on benchmark-box classes at
the benchmark's scales, each class as drawn and mirrored, (k1, k2) ->
(-k1, -k2).  A run misses when it exits non-zero, writes to stderr, or fails
the bounds of perfbench/checks.py on the fitted order or the spread; a class
and its mirror must print the same report.  The ceiling on misses is 0.
"""

import importlib.util
import io
import math
import random
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dhym_ruled import (
    BundleClass,
    IntegrationError,
    cli,
    conical_coefficients,
    make_surface,
    solve_dhym,
)
from dhym_ruled.coupled import average_radius_quadrature

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclass looks itself up there
_spec.loader.exec_module(workloads)

#: Classes a band draws, outside the solve_mix bands.
BAND_SIZE = 200
#: Every PROFILE_EVERY-th class of a band also runs profile.
PROFILE_EVERY = 10
_FAILED_KEY = re.compile(r"residual suite failed: (\w+) = ")


def _solve_mix(label):
    """The solves of that kind in 60 cycles of solve_mix seed 7."""
    def draw():
        stream = workloads.Stream("solve_mix", 7)
        return [op for _ in range(60) for op in stream.cycle()
                if op.kind == "solve" and op.label == label]
    return draw


def _stable(rng, make, size=BAND_SIZE):
    """``size`` ops from ``make(rng)`` whose exact margin is strictly stable."""
    ops = []
    while len(ops) < size:
        try:
            op = make(rng)
        except ValueError:  # inside the semistable band
            continue
        if op.expected == workloads.EXIT_OK:
            ops.append(op)
    return ops


def _wide_make(lo, hi):
    """A draw of the wide box of ROADMAP.md's correctness table, with k'/k
    log-uniform in [10^lo, 10^hi): k in 1..5, h in 0..3, |k1|, |k2|
    log-uniform in [1e-4, 1e4], smooth."""
    def make(rng):
        k, h = rng.randint(1, 5), rng.randint(0, 3)
        kp = k * 10.0 ** rng.uniform(lo, hi)
        k1 = -(10.0 ** rng.uniform(-4.0, 4.0))
        k2 = 10.0 ** rng.uniform(-4.0, 4.0) * rng.choice((-1.0, 1.0))
        return workloads.solve_op("wide", (k, h, kp, k1, k2))
    return make


def _wide_box(lo, hi):
    return lambda: _stable(random.Random(f"coverage:wide:{lo}:{hi}"), _wide_make(lo, hi))


def _scaled(lo, hi, conical):
    """Benchmark-box classes scaled by alpha' log-uniform in [10^lo, 10^hi]."""
    def make(rng):
        cls = workloads.draw_stable(rng)
        beta0 = rng.uniform(0.1, 1.0) if conical else None
        return workloads.solve_op("alpha-prime", cls, beta0=beta0,
                                  alpha_prime=10.0 ** rng.uniform(lo, hi))
    return lambda: _stable(random.Random(f"coverage:scaled:{lo}:{hi}:{conical}"), make)


def _complexified():
    return _stable(random.Random("coverage:complexified"), workloads.complexified_op)


#: band -> (its classes, ceiling on exit 4, ceiling on positivity Failed).
#: The wide box is split by k'/k into [1e-3, 1e-2), [1e-2, 1), [1, 1e2) and
#: [1e2, 1e8); the alpha' bands take [1e-4, 1] and [1, 1e4].
BANDS = {
    "solve_mix-smooth": (_solve_mix("smooth"), 0, 0),
    "solve_mix-conical": (_solve_mix("conical"), 0, 0),
    "solve_mix-conjugated": (_solve_mix("conjugated"), 0, 0),
    "solve_mix-complexified": (_solve_mix("complexified"), 4, 0),
    "solve_mix-semistable": (_solve_mix("semistable"), 0, 0),
    "solve_mix-near-semistable": (_solve_mix("near-semistable"), 0, 0),
    "solve_mix-unstable": (_solve_mix("unstable"), 0, 0),
    "solve_mix-alpha-prime": (_solve_mix("alpha-prime"), 146, 30),
    "wide-kprime-over-k-1e-3-to-1e-2": (_wide_box(-3.0, -2.0), 172, 5),
    "wide-kprime-over-k-1e-2-to-1": (_wide_box(-2.0, 0.0), 164, 2),
    "wide-kprime-over-k-1-to-1e2": (_wide_box(0.0, 2.0), 159, 19),
    "wide-kprime-over-k-1e2-to-1e8": (_wide_box(2.0, 8.0), 200, 93),
    "alpha-prime-1e-4-to-1-smooth": (_scaled(-4.0, 0.0, False), 122, 26),
    "alpha-prime-1e-4-to-1-conical": (_scaled(-4.0, 0.0, True), 123, 38),
    "alpha-prime-1-to-1e4-smooth": (_scaled(0.0, 4.0, False), 64, 0),
    "alpha-prime-1-to-1e4-conical": (_scaled(0.0, 4.0, True), 64, 0),
    "complexified-kpp-0.2-to-4": (_complexified, 9, 0),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _profile_argv(op):
    """The profile of the class op solves: --alpha-prime becomes the scaled
    class, as solve forms it from the canonical (k1 < 0) class."""
    argv = [a for a in op.argv[1:] if not a.startswith("--alpha-prime=")]
    if op.alpha_prime is not None:
        _, _, _, k1, k2 = op.cls
        assert k1 < 0
        scaled = {"--k1=": op.alpha_prime * k1, "--k2=": op.alpha_prime * k2}
        argv = [f"{a[:5]}{scaled[a[:5]]!r}" if a[:5] in scaled else a for a in argv]
    return ["profile", *argv, "--samples=11"]


@pytest.mark.parametrize("band", list(BANDS))
def test_band_within_its_ceilings(band):
    draw, max_exit4, max_failed = BANDS[band]
    ops = draw()
    exit4 = failed = 0
    first_keys = Counter()
    for i, op in enumerate(ops):
        code, out, err = _run(op.argv)
        assert code in (op.expected, cli.EXIT_RESIDUAL), (op.argv, code, err)
        if code == cli.EXIT_OK:
            assert err == "", (op.argv, err)
        if code == cli.EXIT_RESIDUAL:
            exit4 += 1
            m = _FAILED_KEY.match(err)
            assert m and m.group(1) in cli.THRESHOLDS and err.count("\n") == 1, (op.argv, err)
            first_keys[m.group(1)] += 1
        if out:
            failed += cli.parse_descriptor(out)["positivity_method"] == "Failed"
        if i % PROFILE_EVERY == 0:
            p_code, _, p_err = _run(_profile_argv(op))
            assert (p_code, p_err) == (code, err), op.argv
    print(f"\n{band}: {len(ops)} solves, {exit4} exit 4, {failed} Failed; "
          f"first failing keys {dict(first_keys.most_common())}")
    assert exit4 <= max_exit4, band
    assert failed <= max_failed, band


#: Classes a limits band draws; each runs as drawn and mirrored.
LIMITS_BAND_SIZE = 100
#: The bounds of perfbench/checks.py on a limits report: the fitted order and
#: the t-spread of the limit datum (mu_spread, large; c1_spread_rel, small).
LIMIT_ORDER_MIN, LIMIT_SPREAD_MAX = 0.9, 1e-6
#: mode -> (draw of a benchmark-box class, its spread key).
LIMITS_BANDS = {
    "large": (workloads.draw_stable, "mu_spread"),
    "small": (workloads.draw_small_limit, "c1_spread_rel"),
}


def _limits_misses(code, out, err, spread_key):
    if code != cli.EXIT_OK or err:
        return True
    kv = dict(line[2:].split(" = ", 1) for line in out.splitlines() if line.startswith("# "))
    return not (float(kv["fitted_order"]) >= LIMIT_ORDER_MIN
                and float(kv[spread_key]) < LIMIT_SPREAD_MAX)


@pytest.mark.parametrize("mode", list(LIMITS_BANDS))
def test_limits_band_misses_nothing(mode):
    draw, spread_key = LIMITS_BANDS[mode]
    rng = random.Random(f"coverage:limits:{mode}")
    misses = Counter()
    for _ in range(LIMITS_BAND_SIZE):
        k, h, kp, k1, k2 = draw(rng)
        outs = []
        for frame, cls in (("drawn", (k, h, kp, k1, k2)), ("mirrored", (k, h, kp, -k1, -k2))):
            code, out, err = _run(workloads.limits_op(mode, cls).argv)
            misses[frame] += _limits_misses(code, out, err, spread_key)
            outs.append(out)
        assert outs[0] == outs[1], (mode, k, h, kp, k1, k2)
    print(f"\nlimits-{mode}: {LIMITS_BAND_SIZE} classes, misses as drawn "
          f"{misses['drawn']}, mirrored {misses['mirrored']}")
    assert misses["drawn"] == misses["mirrored"] == 0, (mode, misses)


#: Strictly stable smooth classes of the wide box, k'/k in [1e-3, 1e8),
#: that the quadrature band draws.
QUADRATURE_BAND_SIZE = 300
#: The relative bound of perfbench/checks.py on the average radius.
QUADRATURE_RTOL = 1e-9
#: Ceiling on the quadrature band's misses.
QUADRATURE_MISSES_MAX = 0


def test_quadrature_band_within_its_ceiling():
    # the average-radius identity: the quadrature of the pointwise radius
    # against the volume weight is r_hat = |1 - k1^2 + k2^2 + 2 i k1|
    ops = _stable(random.Random("coverage:quadrature"), _wide_make(-3.0, 8.0),
                  QUADRATURE_BAND_SIZE)
    misses = Counter()
    for op in ops:
        k, h, kp, k1, k2 = op.cls
        s, b = make_surface(k, h, kp), BundleClass(k1=k1, k2=k2)
        r_hat = math.hypot(1.0 - k1 ** 2 + k2 ** 2, 2.0 * k1)
        try:
            avg = average_radius_quadrature(s, b, solve_dhym(s, b),
                                            conical_coefficients(s, b, 1.0))
        except IntegrationError:
            misses["IntegrationError"] += 1
            continue
        misses["off"] += abs(avg / r_hat - 1.0) > QUADRATURE_RTOL
    print(f"\nquadrature: {len(ops)} classes, misses {dict(misses)}")
    assert sum(misses.values()) <= QUADRATURE_MISSES_MAX, misses
