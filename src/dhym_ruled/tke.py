"""Twisted Kaehler-Einstein reduction of the scalar-curvature equation.

Under a cohomological condition on the cone angles and the class data, the
scalar-curvature equation collapses to a Ricci-form equation.  This module
evaluates that condition, the matching functions F(k1, k2) and
H(k, k', h, beta) of the cone-angle analysis and the vertical asymptote of
H, and gives the cone angle realizing the reduction in closed form.
tests/test_certificate.py proves the paper's second forms of these
quantities equal to the ones here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, TkeNotFoundError, ValidationError
from .params import BundleClass, SurfaceParams, pose, require_cone_angle


@dataclass(frozen=True)
class TkeAnalysis:
    """Summary of the reduction analysis at a given cone angle."""

    gamma: float
    F_value: float
    H_at_1: float
    beta_bar: float
    condition_residual: float


def gamma_quantity(s: SurfaceParams, beta0: float) -> float:
    """(3 + x + s_sigma x^2 - 3 (1 + x) beta0) / x."""
    x = s.x
    return (3.0 + x + s.s_sigma * x ** 2 - 3.0 * (1.0 + x) * beta0) / x


def F_value(b: BundleClass) -> float:
    """(1 + (k1 + k2)^2) / (2 k1 k2)."""
    return (1.0 + (b.k1 + b.k2) ** 2) / (2.0 * b.k1 * b.k2)


def beta_asymptote(k: int, kprime: float, h: int) -> float:
    """Vertical asymptote of H(k, k', h, .) in the cone-angle variable."""
    return ((4.0 / 3.0) * k + kprime + 2.0 * (1.0 - h) * k / (3.0 * (k + kprime))) / (
        kprime + 2.0 * k
    )


def _H_beta_values(k: int, kprime: float, h: int, beta):
    """H(k, k', h, beta) on an array of cone angles, and a mask of the
    samples at its pole.

    One numpy pass; values at the pole are NaN.  A sample is at the pole
    where the denominator is below 1e-12 of the sum of the magnitudes of its
    terms at that beta.  Raises ValidationError where 3 k'/k or 2 k/k'
    overflows, since H would then read -0.0, NaN or -inf.
    """
    if not (math.isfinite(3.0 * (kprime / k)) and math.isfinite(2.0 * k / kprime)):
        raise ValidationError(f"kprime / k = {kprime / k!r} is out of double-precision range")
    a = 2.0 * (1.0 - h) / (k + kprime)
    num = a + 2.0 * (beta - 1.0) * k / kprime - 1.0
    den = a + 3.0 * (kprime / k) * (1.0 - beta) + 4.0 - 6.0 * beta
    scale = abs(a) + 3.0 * (kprime / k) * abs(1.0 - beta) + 4.0 + 6.0 * abs(beta)
    pole = abs(den) < 1e-12 * scale
    return 2.0 * num / np.where(pole, np.nan, den), pole


def H_beta(k: int, kprime: float, h: int, beta: float) -> float:
    """The matching function H(k, k', h, beta); pole at the asymptote."""
    value, pole = _H_beta_values(k, kprime, h, np.float64(beta))
    if pole:
        raise PoleError(f"beta = {beta} is the vertical asymptote")
    return float(value)


def _condition_terms(s: SurfaceParams, b: BundleClass, beta0: float):
    """(p, left terms, q, right terms) of the reduction condition, whose
    residual is p * sum(left terms) - q * sum(right terms)."""
    x, ss = s.x, s.s_sigma
    k1, k2 = b.k1, b.k2
    p = (1.0 + k1 ** 2 + k2 ** 2) * (x - 1.0)
    left = (ss * x ** 2, -3.0 * beta0 * (x + 1.0), x, 3.0)
    q = 2.0 * k1 * k2
    right = (-3.0 * beta0, ss * x ** 3, -(x ** 2) * (beta0 + ss - 1.0), 3.0)
    return p, left, q, right


def condition_residual(s: SurfaceParams, b: BundleClass, beta0: float) -> float:
    """Left minus right side of the reduction condition (first form)."""
    p, left, q, right = _condition_terms(s, b, beta0)
    return p * sum(left) - q * sum(right)


def _residual_bound(s: SurfaceParams, b: BundleClass, beta0: float) -> float:
    """The largest |condition_residual| at beta0 that counts as zero.

    1e-9 max(1, |F|), or 64 rounding steps of the sum of the magnitudes of
    the terms the residual adds, whichever is larger: for large k'/k and
    |k1|, |k2| those terms lie far above 1e9.
    """
    p, left, q, right = _condition_terms(s, b, beta0)
    terms = abs(p) * sum(map(abs, left)) + abs(q) * sum(map(abs, right))
    return max(1e-9 * max(1.0, abs(F_value(b))), 64.0 * math.ulp(1.0) * terms)


def analyze(s: SurfaceParams, b: BundleClass, beta0: float) -> TkeAnalysis:
    require_cone_angle(beta0)
    b = pose(s, b).bundle
    return TkeAnalysis(
        gamma=gamma_quantity(s, beta0),
        F_value=F_value(b),
        H_at_1=H_beta(s.k, s.kprime, s.h, 1.0),
        beta_bar=beta_asymptote(s.k, s.kprime, s.h),
        condition_residual=condition_residual(s, b, beta0),
    )


def solve_beta0(s: SurfaceParams, b: BundleClass) -> float:
    """The unique cone angle in (beta_bar, 1) realizing the reduction.

    H(k, k', h, beta) = 2 (A + B beta) / (D - E beta) is a Moebius map in
    beta, with a = 2 (1 - h) / (k + k'), A = a - 1 - 2k/k', B = 2k/k',
    D = a + 3k'/k + 4, E = 3k'/k + 6 and its pole at beta_bar = D / E.  So
    H(beta) = F(k1, k2) has the one root beta0 = (F D - 2A) / (2B + F E),
    which realizes the reduction when F > 2 and beta0 lies in (beta_bar, 1).
    Requires k1 < 0 and k2 < 0 (stability is then automatic).
    """
    b = pose(s, b).bundle
    if b.k2 >= 0:
        raise ValidationError("cone-angle solve requires k2 < 0 after reduction")
    f = F_value(b)
    k, kp, h = s.k, s.kprime, s.h
    beta_bar = beta_asymptote(k, kp, h)
    if not (0.0 < beta_bar < 1.0):
        raise TkeNotFoundError(f, attained=None,
                               message=f"asymptote {beta_bar} outside (0, 1)")
    a = 2.0 * (1.0 - h) / (k + kp)
    A, B = a - 1.0 - 2.0 * k / kp, 2.0 * k / kp
    D, E = a + 3.0 * kp / k + 4.0, 3.0 * kp / k + 6.0
    # B, E > 0, so the denominator is positive for f > 2
    beta0 = (f * D - 2.0 * A) / (2.0 * B + f * E)
    # H runs over (beta_bar, 1) from its pole, +inf where A + B beta_bar < 0,
    # to H(1) = 2 (A + B) / (D - E) = 2 (a - 1) / (a - 2), and a < 2
    h_at_1 = 2.0 * (a - 1.0) / (a - 2.0)
    attained = (h_at_1, math.inf) if A + B * beta_bar < 0.0 else (-math.inf, h_at_1)
    if f <= 2.0 or not (beta_bar < beta0 < 1.0):
        raise TkeNotFoundError(f, attained=attained)
    residual = condition_residual(s, b, beta0)
    if abs(residual) > _residual_bound(s, b, beta0):
        raise TkeNotFoundError(
            f, attained=attained,
            message=f"condition residual {residual!r} at beta0 = {beta0!r}",
        )
    return beta0
