"""Scaled curvature families and their zero-slope / infinite-slope limits.

Scaling the curvature class by alpha' > 0 just rescales (k1, k2); each
member of the family is an ordinary instance of the coupled solver.  This
module extracts the two limits: as alpha' -> 0 the solutions approach a
Hermitian Yang-Mills pair, and as alpha' -> infinity (under a stronger
stability inequality) a J-equation type pair.  Limit constants the class
data does not determine in closed form are extracted numerically as
t-independent values; t-independence itself is the verified claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import coupled
from .coupled import ProfilePoly
from .dhym import eval_H
from .errors import NoSolutionError, ValidationError
from .params import BundleClass, Problem, StabilityClass, SurfaceParams, pose

#: Points per scale sample of the sup-norm grids of both limit checks.
_SUP_GRID = 401


@dataclass(frozen=True)
class ScaledFamily:
    """Profiles (``sol`` is H) of the classes (alpha' k1, alpha' k2) of ``base``."""

    base: Problem
    alphas: tuple[float, ...]
    solutions: tuple[ProfilePoly, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm errors per scale sample plus a fitted convergence order."""

    alphas: tuple[float, ...]
    sup_errors: tuple[float, ...]
    order: float
    constants: dict = field(default_factory=dict)


def scaled_class(b: BundleClass, alpha_prime: float) -> BundleClass:
    """The class (alpha' k1, alpha' k2), with b's conjugation flag."""
    return replace(b, k1=alpha_prime * b.k1, k2=alpha_prime * b.k2)


def scaled_solution(
    s: SurfaceParams, b: BundleClass, alpha_prime: float
) -> ProfilePoly:
    """Solve the coupled system for the class scaled by alpha'.

    tests/test_limits.py::test_scaled_Cprime_consistency holds its C' to the
    closed form in tests/second_forms.py.
    """
    if not (math.isfinite(alpha_prime) and alpha_prime > 0):
        raise ValidationError(
            f"alpha_prime must be finite and positive, got {alpha_prime!r}"
        )
    pr = pose(s, scaled_class(pose(s, b).bundle, alpha_prime))
    if pr.stability is StabilityClass.UNSTABLE:
        raise NoSolutionError(
            pr.margin, f"scaled class unstable at alpha' = {alpha_prime}"
        )
    return coupled._profile(pr, 1.0)


def build_family(
    s: SurfaceParams, b: BundleClass, alphas
) -> ScaledFamily:
    alphas = tuple(float(a) for a in alphas)
    sols = tuple(scaled_solution(s, b, a) for a in alphas)
    return ScaledFamily(base=pose(s, b), alphas=alphas, solutions=sols)


def _fit_order(x: np.ndarray, err: np.ndarray) -> float:
    """Least-squares slope of log(err) against log(x).

    NaN unless at least two distinct x have a positive error.
    """
    mask = err > 0
    if len(set(x[mask].tolist())) < 2:
        return math.nan
    return float(np.polyfit(np.log(x[mask]), np.log(err[mask]), 1)[0])


def _convergence(fam: ScaledFamily, limit, x) -> tuple:
    """What both limit checks share, on the 401-node grid t of the interval
    all members share: each member's H, evaluated once; its sup error, of
    sign * H/alpha' (sign = -1 for a conjugated family, whose eval_H is
    mirrored) against limit(t), the reduced (k1 < 0) class's limit; and its
    coupling alpha'^2 alpha.  Returns t, the H arrays, the couplings and a
    report with the order fitted in x, to which each check adds its constants.
    """
    pr = fam.base
    t = np.linspace(pr.t_minus, pr.t_plus, _SUP_GRID)
    target = limit(t)
    Hs = [eval_H(prof.sol, t) for prof in fam.solutions]
    err = [float(np.max(np.abs(pr.sign * H / a - target)))
           for a, H in zip(fam.alphas, Hs)]
    report = ConvergenceReport(fam.alphas, tuple(err), _fit_order(x, np.asarray(err)))
    couplings = tuple(a ** 2 * p.alpha for a, p in zip(fam.alphas, fam.solutions))
    return t, Hs, couplings, report


def large_radius_check(fam: ScaledFamily) -> ConvergenceReport:
    """Convergence of H/alpha' to H0(t) = k1 t + (k2/t)(1/x^2 - 1) as alpha' -> 0.

    Also reports the limit coupling constant recovered from the per-sample
    couplings, the sup-norm decay of the scaled potentials, and the
    t-independence of the limit trace (the Hermitian Yang-Mills datum).
    nu_sup is the sup of |nu/alpha'|, where
    nu = sign * (alpha' k1 t + (alpha' k2/t)(1 - x^2)/x^2) - H.
    """
    pr = fam.base
    s, b = pr.surface, pr.bundle
    x = s.x
    w = 1.0 / x ** 2 - 1.0

    def H0(t):
        return b.k1 * t + (b.k2 / t) * w

    t, Hs, couplings, report = _convergence(fam, H0, np.asarray(fam.alphas))
    nu = [pr.sign * (a * b.k1 * t + (a * b.k2 / t) * (1.0 - x ** 2) / x ** 2) - H
          for a, H in zip(fam.alphas, Hs)]
    # trace of the limit curvature against the limit metric, pointwise in t
    tm = np.linspace(pr.t_minus, pr.t_plus, 11)
    mu = (H0(tm) + tm * (b.k1 - (b.k2 / tm ** 2) * w)) / tm
    report.constants.update(
        alpha_tilde=(-2.0 + s.s_sigma * x) / (2.0 * b.k2 ** 2),
        alpha_tilde_estimates=couplings,
        nu_sup=tuple(float(np.max(np.abs(n / a))) for a, n in zip(fam.alphas, nu)),
        mu_mean=float(np.mean(mu)),
        mu_spread=float(np.max(mu) - np.min(mu)),
    )
    # sup-norm Cauchy gap between the two smallest scale samples; evaluated
    # in extended precision because the double evaluation of the basis loses
    # all significance at strong scalings.  That evaluation rejects classes
    # that are not strictly stable: the gap is NaN when one is among them
    if len(fam.alphas) >= 2:
        pair = [scaled_class(b, fam.alphas[i]) for i in np.argsort(fam.alphas)[:2]]
        try:
            # through coupled.oracle, the attribute perfbench/spans.py wraps
            # when it traces a run
            vals = [
                coupled.oracle.eval_psi_highprec(s.k, s.h, s.kprime, c.k1, c.k2, t)
                for c in pair
            ]
            gap = float(np.max(np.abs(vals[0] - vals[1])))
        except ValueError:
            gap = math.nan
        report.constants["profile_cauchy_gap"] = gap
    return report


def small_radius_constants(pr: Problem):
    """Limit data of the infinite-slope family of the posed class pr.

    Returns (C_hat, branch, K) where K(t) = t + branch * sqrt(t^2 + C_hat)
    and the limit of H/alpha' is (k1^2 - k2^2)/(2 k1) * K(t).
    """
    b, x = pr.bundle, pr.surface.x
    k1, k2 = b.k1, b.k2
    if (k1 + k2) ** 2 <= x * (k1 - k2) ** 2:
        raise NoSolutionError(
            (k1 + k2) ** 2 - x * (k1 - k2) ** 2,
            "infinite-slope stability inequality fails",
        )
    if k1 ** 2 == k2 ** 2:
        raise ValidationError("degenerate limit: k1^2 = k2^2")
    C_hat = 4.0 * k1 * k2 * (
        1.0 / (x ** 2 * (k1 - k2) ** 2) - 1.0 / (k1 + k2) ** 2
    )
    branch = 1 if k1 ** 2 > k2 ** 2 else -1

    def K(t):
        if branch > 0:
            return t + np.sqrt(t ** 2 + C_hat)
        # rationalized: t - sqrt(t^2 + C_hat) cancels where C_hat << t^2
        return -C_hat / (t + np.sqrt(t ** 2 + C_hat))

    return C_hat, branch, K


def small_radius_check(fam: ScaledFamily) -> ConvergenceReport:
    """Convergence of H/alpha' to the closed-form limit as alpha' -> infinity.

    Reports the fitted order in 1/alpha', the t-independence of the limit
    form ratio and the limit of the rescaled coupling constants; it compares
    sign * H/alpha' with the reduced class's limit, as large_radius_check does.
    """
    pr = fam.base
    s, b = pr.surface, pr.bundle
    C_hat, branch, K = small_radius_constants(pr)
    gamma = (b.k1 ** 2 - b.k2 ** 2) / (2.0 * b.k1)
    _, _, couplings, report = _convergence(
        fam, lambda t: gamma * K(t), 1.0 / np.asarray(fam.alphas)
    )

    # ratio of the two limit wedge powers, pointwise in t: must be constant
    t = np.linspace(pr.t_minus, pr.t_plus, 13)[1:-1]
    Hl = gamma * K(t)
    R = np.sqrt(t ** 2 + C_hat)
    if branch > 0:
        Hlp = gamma * (1.0 + t / R)
        num = Hl + t * Hlp
    else:  # K' and K + t K' rationalized as K is
        Hlp = gamma * (C_hat / (R * (R + t)))
        num = gamma * (-C_hat ** 2 / (R * (R + t) ** 2))
    c1 = num / (2.0 * Hl * Hlp)
    report.constants.update(
        C_hat=C_hat,
        branch=branch,
        c1_mean=float(np.mean(c1)),
        c1_spread_rel=float((np.max(c1) - np.min(c1)) / abs(np.mean(c1))),
        alpha_scaled_estimates=couplings,
        alpha_scaled_limit=(
            abs(b.k1 ** 2 - b.k2 ** 2)
            * (-2.0 + s.s_sigma * s.x)
            / (2.0 * (b.k1 - b.k2) ** 2 * b.k2 ** 2)
        ),
    )
    return report
