"""Correctness checks on each operation's output, run outside the timed interval.

Every bound here is one the repository already enforces: the ``THRESHOLDS``
table in ``cli.py``, the RK4 bound of acceptance criterion 3 (1e-8), the
quadrature bound of ``test_phase_and_radius`` (1e-9 relative), criterion 8's
orders (>= 0.9) and spreads (< 1e-6), and criterion 2's relative 1e-12 for the
matching curve.  None is loosened.

``classify`` sorts an outcome into ``ok``, ``failed`` (an exception, or an exit
code the program uses to decline or give up: 1 usage, 4 residual failure)
and ``wrong`` (an answer that contradicts the stability oracle or fails a
check).  Failed and wrong both count toward ``fail_frac``; only wrong makes a
run incorrect.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from workloads import beta_asymptote, matching_parts, tke_condition

EXIT_USAGE, EXIT_RESIDUAL = 1, 4
RK4_BOUND = 1e-8
QUADRATURE_RTOL = 1e-9
LIMIT_ORDER_MIN = 0.9
LIMIT_SPREAD_MAX = 1e-6
CURVE_RTOL = 1e-12
TKE_RTOL = 1e-9

_CLASS_NAME = {0: "Stable", 2: "Semistable", 3: "Unstable"}
_PROFILE_HEADER = "t,phi,psi,H,im_residual,scalar_residual"
#: Rows of a profile compared with the extended-precision evaluation.
_HIGHPREC_ROWS = 16


def classify(op, code, payload, error, pkg) -> tuple[str, str]:
    """(status, reason) of one finished operation."""
    if error is not None:
        return "failed", error
    if code != op.expected:
        reason = f"exit {code}, expected {op.expected}"
        if code == EXIT_RESIDUAL and op.kind == "solve":
            reason = _residual_failure(payload, pkg)
            return ("failed", reason) if reason.startswith("exit 4:") else ("wrong", reason)
        return ("failed" if code in (EXIT_USAGE, EXIT_RESIDUAL) else "wrong"), reason
    try:
        reason = _CHECKS[op.kind](op, payload, pkg)
    except (ValueError, KeyError, IndexError) as exc:
        reason = f"unparseable output: {exc!r}"
    return ("ok", "") if reason is None else ("wrong", reason)


def _residual_failure(text, pkg) -> str:
    """Exit 4 must come with a residual over its threshold in the descriptor."""
    try:
        d = pkg.cli.parse_descriptor(text)
    except ValueError as exc:
        return f"exit 4 with unparseable descriptor: {exc!r}"
    over = [k for k, v in pkg.cli.THRESHOLDS.items() if k in d and not d[k] <= v]
    if not over:
        return "exit 4 but every residual is within its threshold"
    k = over[0]
    return f"exit 4: {k} = {d[k]!r} > {pkg.cli.THRESHOLDS[k]!r}"


def _keyvals(text) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.lstrip("# ").partition(" = ")
        if sep:
            out[key] = val
    return out


def _solve(op, text, pkg):
    if op.expected == 3:
        return None if text == "" else "descriptor written for an unstable class"
    cli = pkg.cli
    d = cli.parse_descriptor(text)
    if cli.format_descriptor(d) != text:
        return "descriptor does not round-trip through parse_descriptor"
    for key, bound in cli.THRESHOLDS.items():
        if key not in d:
            if key == "slope_err_minus" and d["regularity"] == "holder12":
                continue
            return f"descriptor lacks {key}"
        if not d[key] <= bound:
            return f"{key} = {d[key]!r} > {bound!r} with exit {op.expected}"
    if d["stability_class"] != _CLASS_NAME[op.expected]:
        return f"stability_class {d['stability_class']!r}, expected {_CLASS_NAME[op.expected]!r}"
    return None


def _check(op, text, pkg):
    got = _keyvals(text)["stability_class"]
    if got != _CLASS_NAME[op.expected]:
        return f"stability_class {got!r}, expected {_CLASS_NAME[op.expected]!r}"
    return None


def _tke(op, text, pkg):
    kv = _keyvals(text)
    beta0, printed = float(kv["beta0"]), float(kv["condition_residual"])
    k, h, kp, k1, k2 = op.cls
    f = (1 + (Fraction(k1) + Fraction(k2)) ** 2) / (2 * Fraction(k1) * Fraction(k2))
    bound = TKE_RTOL * max(1.0, abs(float(f)))
    if not beta_asymptote(k, kp, h) < beta0 < 1:
        return f"beta0 {beta0!r} outside (beta_bar, 1)"
    exact = abs(float(tke_condition(k, kp, h, k1, k2, beta0)))
    if exact > bound or abs(printed) > bound:
        return f"condition residual {exact!r} (printed {printed!r}) > {bound!r}"
    return None


def _endpoints(cls):
    k, _, kp = cls[:3]
    x = k / (k + kp)
    return 1.0 / x - 1.0, 1.0 / x + 1.0


def _profile(op, text, pkg):
    lines = text.splitlines()
    if lines[0] != _PROFILE_HEADER:
        return f"profile header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != op.samples or any(len(r) != 6 for r in rows):
        return f"{len(rows)} profile rows of 6 columns, expected {op.samples}"
    t = np.array([float(r[0]) for r in rows])
    t_minus, t_plus = _endpoints(op.cls)
    if not (math.isclose(t[0], t_minus, rel_tol=1e-12)
            and math.isclose(t[-1], t_plus, rel_tol=1e-12) and np.all(np.diff(t) > 0)):
        return "profile grid is not increasing from t_minus to t_plus"
    blank = [i for i, r in enumerate(rows) if r[4] == "" or r[5] == ""]
    if blank and (blank != [0] or op.expected != 2):
        return f"blank residual columns in rows {blank[:5]}"
    thresholds = pkg.cli.THRESHOLDS
    for col, key in ((4, "max_im_part"), (5, "max_scalar_residual")):
        worst = max(abs(float(r[col])) for r in rows if r[col] != "")
        if not worst <= thresholds[key]:
            return f"profile column {col}: {worst!r} > {key} {thresholds[key]!r}"
    k, h, kp, k1, k2 = op.cls
    if op.expected == 0 and op.beta0 == 1.0 and k1 < 0:
        idx = np.linspace(0, len(rows) - 1, _HIGHPREC_ROWS).astype(int)
        psi = np.array([float(rows[i][2]) for i in idx])
        ref = pkg.oracle.eval_psi_highprec(k, h, kp, k1, k2, t[idx])
        bound = thresholds["psi_err_plus"] * max(1.0, float(np.max(np.abs(ref))))
        err = float(np.max(np.abs(psi - ref)))
        if not err <= bound:
            return f"psi differs from extended precision by {err!r} > {bound!r}"
    return None


def _figure2(op, text, pkg):
    lines = text.splitlines()
    k, h, kp = op.cls
    bb = float(beta_asymptote(k, kp, h))
    got = float(lines[0].partition(" = ")[2])
    if lines[0].split(" = ")[0] != "# beta_bar" or abs(got - bb) > CURVE_RTOL * abs(bb):
        return f"beta_bar line {lines[0]!r}, exact {bb!r}"
    rows = [line.split(",") for line in lines[2:]]
    if lines[1] != "beta,H" or len(rows) != op.samples:
        return f"{len(rows)} curve rows, expected {op.samples}"
    scale = max(1.0, abs(2.0 * (1.0 - h) / (k + kp)), 3.0 * kp / k + 6.0)
    for i in np.linspace(0, len(rows) - 1, _HIGHPREC_ROWS).astype(int):
        beta, val = float(rows[i][0]), rows[i][1]
        num, den = matching_parts(k, kp, h, beta)
        if abs(den) < 1e-3 * scale:
            continue  # near the pole the double evaluation is ill-conditioned
        want = float(2 * num / den)
        if val == "" or abs(float(val) - want) > CURVE_RTOL * abs(want):
            return f"H({beta!r}) = {val!r}, exact {want!r}"
    return None


def _limits(op, text, pkg):
    kv = _keyvals(text)
    if text.splitlines()[0] != "alpha_prime,sup_error":
        return "limits header"
    order = float(kv["fitted_order"])
    spread_key = "mu_spread" if op.label == "large" else "c1_spread_rel"
    spread = float(kv[spread_key])
    if not order >= LIMIT_ORDER_MIN:
        return f"fitted order {order!r} < {LIMIT_ORDER_MIN}"
    if not spread < LIMIT_SPREAD_MAX:
        return f"{spread_key} {spread!r} >= {LIMIT_SPREAD_MAX}"
    return None


def _rk4(op, result, pkg):
    sol, grid = result
    err = float(np.max(np.abs(grid.values - pkg.dhym.eval_H(sol, grid.nodes))))
    return None if err <= RK4_BOUND else f"RK4 error {err!r} > {RK4_BOUND}"


def _quadrature(op, avg, pkg):
    _, _, _, k1, k2 = op.cls
    r_hat = math.hypot(1.0 - k1 ** 2 + k2 ** 2, 2.0 * k1)
    rel = abs(avg / r_hat - 1.0)
    return None if rel <= QUADRATURE_RTOL else f"average radius off by {rel!r} relative"


def _highprec(op, vals, pkg):
    bound = pkg.cli.THRESHOLDS["psi_err_plus"]
    if not (abs(vals[0]) <= bound and abs(vals[-1]) <= bound):
        return f"extended-precision profile ends {vals[0]!r}, {vals[-1]!r}"
    if not np.all(vals[1:-1] > 0):
        return "extended-precision profile not positive inside"
    return None


_CHECKS = {
    "solve": _solve,
    "check": _check,
    "tke": _tke,
    "profile": _profile,
    "figure2": _figure2,
    "limits": _limits,
    "rk4": _rk4,
    "quadrature": _quadrature,
    "highprec": _highprec,
}
