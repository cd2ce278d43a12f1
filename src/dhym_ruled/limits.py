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

from .coupled import ProfilePoly, eval_psi, smooth_coefficients
from .dhym import DhymSolution, eval_H, eval_nu, solve_dhym
from .errors import NoSolutionError, ValidationError
from .params import BundleClass, StabilityClass, SurfaceParams, pose

#: Points per scale sample of the sup-norm grids of both limit checks.
_SUP_GRID = 401


@dataclass(frozen=True)
class ScaledFamily:
    """Solutions for the rescaled classes (alpha' k1, alpha' k2)."""

    base: tuple[SurfaceParams, BundleClass]
    alphas: tuple[float, ...]
    solutions: tuple[tuple[DhymSolution, ProfilePoly], ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm errors per scale sample plus a fitted convergence order."""

    alphas: tuple[float, ...]
    sup_errors: tuple[float, ...]
    order: float
    constants: dict = field(default_factory=dict)


def scaled_Cprime(s: SurfaceParams, b: BundleClass, alpha_prime: float) -> float:
    """Closed form of C' for the scaled class: the tests' reference."""
    a = alpha_prime
    k1, k2 = b.k1, b.k2
    x = s.x
    return (
        4.0
        * a ** 2
        * k1
        * k2
        * (
            1.0 / (x ** 2 * ((a * k1 - a * k2) ** 2 + 1.0))
            - 1.0 / ((a * k1 + a * k2) ** 2 + 1.0)
        )
    )


def scaled_class(b: BundleClass, alpha_prime: float) -> BundleClass:
    """The class (alpha' k1, alpha' k2), with b's conjugation flag."""
    return replace(b, k1=alpha_prime * b.k1, k2=alpha_prime * b.k2)


def scaled_solution(
    s: SurfaceParams, b: BundleClass, alpha_prime: float
) -> tuple[DhymSolution, ProfilePoly]:
    """Solve the coupled system for the class scaled by alpha'.

    tests/test_limits.py::test_scaled_Cprime_consistency holds its C' to the
    closed form scaled_Cprime.
    """
    if not (math.isfinite(alpha_prime) and alpha_prime > 0):
        raise ValidationError(
            f"alpha_prime must be finite and positive, got {alpha_prime!r}"
        )
    b = pose(s, b).bundle
    bs = scaled_class(b, alpha_prime)
    pr = pose(s, bs)
    if pr.stability is StabilityClass.UNSTABLE:
        raise NoSolutionError(
            pr.margin, f"scaled class unstable at alpha' = {alpha_prime}"
        )
    return solve_dhym(s, bs), smooth_coefficients(s, bs)


def build_family(
    s: SurfaceParams, b: BundleClass, alphas
) -> ScaledFamily:
    alphas = tuple(float(a) for a in alphas)
    sols = tuple(scaled_solution(s, b, a) for a in alphas)
    return ScaledFamily(base=(s, pose(s, b).bundle), alphas=alphas, solutions=sols)


def _fit_order(x: np.ndarray, err: np.ndarray) -> float:
    """Least-squares slope of log(err) against log(x).

    NaN unless at least two distinct x have a positive error.
    """
    mask = err > 0
    if len(set(x[mask].tolist())) < 2:
        return math.nan
    return float(np.polyfit(np.log(x[mask]), np.log(err[mask]), 1)[0])


def large_radius_check(fam: ScaledFamily) -> ConvergenceReport:
    """Convergence of H/alpha' to its affine-plus-1/t limit as alpha' -> 0.

    Also reports the limit coupling constant recovered from the per-sample
    couplings, the sup-norm decay of the scaled potentials, and the
    t-independence of the limit trace (the Hermitian Yang-Mills datum).
    """
    s, b = fam.base
    x = s.x
    sup_errors = []
    nu_sup = []
    alpha_scaled = []
    for a, (sol, prof) in zip(fam.alphas, fam.solutions):
        t = np.linspace(sol.t_minus, sol.t_plus, _SUP_GRID)
        target = b.k1 * t + (b.k2 / t) * (1.0 / x ** 2 - 1.0)
        sup_errors.append(float(np.max(np.abs(eval_H(sol, t) / a - target))))
        nu = eval_nu(sol, s, scaled_class(b, a), t)
        nu_sup.append(float(np.max(np.abs(nu / a))))
        alpha_scaled.append(a ** 2 * prof.alpha)
    order = _fit_order(np.asarray(fam.alphas), np.asarray(sup_errors))

    alpha_tilde = (-2.0 + s.s_sigma * x) / (2.0 * b.k2 ** 2)

    # trace of the limit curvature against the limit metric, pointwise in t
    i_small = int(np.argmin(fam.alphas))
    sol0 = fam.solutions[i_small][0]
    t = np.linspace(sol0.t_minus, sol0.t_plus, 11)
    H0 = b.k1 * t + (b.k2 / t) * (1.0 / x ** 2 - 1.0)
    H0p = b.k1 - (b.k2 / t ** 2) * (1.0 / x ** 2 - 1.0)
    mu = (H0 + t * H0p) / t
    constants = {
        "alpha_tilde": alpha_tilde,
        "alpha_tilde_estimates": tuple(alpha_scaled),
        "nu_sup": tuple(nu_sup),
        "mu_mean": float(np.mean(mu)),
        "mu_spread": float(np.max(mu) - np.min(mu)),
    }
    # sup-norm Cauchy gap between the two smallest scale samples; evaluated
    # in extended precision because the double basis evaluation loses all
    # significance at strong scalings
    if len(fam.alphas) >= 2:
        from . import oracle

        idx = np.argsort(fam.alphas)[:2]
        tt = np.linspace(sol0.t_minus, sol0.t_plus, _SUP_GRID)
        vals = [
            oracle.eval_psi_highprec(
                s.k, s.h, s.kprime, fam.alphas[int(i)] * b.k1,
                fam.alphas[int(i)] * b.k2, tt,
            )
            for i in idx
        ]
        constants["profile_cauchy_gap"] = float(np.max(np.abs(vals[0] - vals[1])))
    return ConvergenceReport(
        alphas=fam.alphas,
        sup_errors=tuple(sup_errors),
        order=order,
        constants=constants,
    )


def small_radius_constants(s: SurfaceParams, b: BundleClass):
    """Limit data of the infinite-slope family.

    Returns (C_hat, branch, K) where K(t) = t + branch * sqrt(t^2 + C_hat)
    and the limit of H/alpha' is (k1^2 - k2^2)/(2 k1) * K(t).
    """
    b = pose(s, b).bundle
    x = s.x
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
        return t + branch * np.sqrt(t ** 2 + C_hat)

    return C_hat, branch, K


def small_radius_check(fam: ScaledFamily) -> ConvergenceReport:
    """Convergence of H/alpha' to the closed-form limit as alpha' -> infinity.

    Reports the fitted order in 1/alpha', the t-independence of the limit
    form ratio, and the limit of the rescaled coupling constants.
    """
    s, b = fam.base
    C_hat, branch, K = small_radius_constants(s, b)
    gamma = (b.k1 ** 2 - b.k2 ** 2) / (2.0 * b.k1)
    sup_errors = []
    alpha_scaled = []
    for a, (sol, prof) in zip(fam.alphas, fam.solutions):
        t = np.linspace(sol.t_minus, sol.t_plus, _SUP_GRID)
        sup_errors.append(float(np.max(np.abs(eval_H(sol, t) / a - gamma * K(t)))))
        alpha_scaled.append(a ** 2 * prof.alpha)
    inv_alphas = 1.0 / np.asarray(fam.alphas)
    order = _fit_order(inv_alphas, np.asarray(sup_errors))

    # ratio of the two limit wedge powers, pointwise in t: must be constant
    sol0 = fam.solutions[0][0]
    t = np.linspace(sol0.t_minus, sol0.t_plus, 13)[1:-1]
    Hl = gamma * K(t)
    Hlp = gamma * (1.0 + branch * t / np.sqrt(t ** 2 + C_hat))
    c1 = (Hl + t * Hlp) / (2.0 * Hl * Hlp)
    alpha_scaled_limit = (
        abs(b.k1 ** 2 - b.k2 ** 2)
        * (-2.0 + s.s_sigma * s.x)
        / (2.0 * (b.k1 - b.k2) ** 2 * b.k2 ** 2)
    )
    constants = {
        "C_hat": C_hat,
        "branch": branch,
        "c1_mean": float(np.mean(c1)),
        "c1_spread_rel": float((np.max(c1) - np.min(c1)) / abs(np.mean(c1))),
        "alpha_scaled_estimates": tuple(alpha_scaled),
        "alpha_scaled_limit": alpha_scaled_limit,
    }
    return ConvergenceReport(
        alphas=fam.alphas,
        sup_errors=tuple(sup_errors),
        order=order,
        constants=constants,
    )
