"""Explicit constant-phase solution H(t) on the momentum interval.

Under the momentum construction the constant-phase equation reduces to a
first-order ODE for an auxiliary function H(t) on the fixed interval
[1/x - 1, 1/x + 1], whose relevant solution branch is

    H(t) = t cot(theta) - sqrt((cot(theta)^2 + 1) (t^2 + C')),

with a single integration constant C' fixed by the boundary data.  This
module builds that descriptor, evaluates H and its derivative analytically,
and exposes pointwise residuals of the ODE in denominator-cleared form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoSolutionError
from .params import BundleClass, StabilityClass, SurfaceParams, pose

#: Absolute slack accepted at interval endpoints before raising DomainError.
_ENDPOINT_SLACK = 1e-12


@dataclass(frozen=True)
class DhymSolution:
    """Descriptor of the explicit solution branch.

    (cos_theta, sin_theta) is the phase of ``pose`` (sin_theta > 0) and
    u_minus = t_minus^2 + C', exact.  regularity is "smooth" in the strictly
    stable case and "holder12" in the semistable one, where t^2 + C' vanishes
    at t_minus and H only extends with Hoelder exponent 1/2 there.
    """

    cos_theta: float
    sin_theta: float
    Cprime: float
    u_minus: float
    t_minus: float
    t_plus: float
    regularity: str
    conjugated: bool = False

    @property
    def cot_theta(self) -> float:
        return self.cos_theta / self.sin_theta


def boundary_targets(s: SurfaceParams, b: BundleClass) -> tuple[float, float]:
    """Required values (H(t_minus), H(t_plus)) from exactness of the potential.

    A class carrying the conjugation flag refers to the mirrored original
    input, so its targets are the negatives of the canonical ones.
    """
    pr = pose(s, b)
    b, t_minus, t_plus = pr.bundle, pr.t_minus, pr.t_plus
    sign = -1.0 if b.conjugated else 1.0
    return (
        sign * (b.k1 * t_minus + b.k2 * t_plus),
        sign * (b.k1 * t_plus + b.k2 * t_minus),
    )


def solve_dhym(s: SurfaceParams, b: BundleClass) -> DhymSolution:
    """Build the solution descriptor; raises NoSolutionError when unstable."""
    pr = pose(s, b)
    if pr.stability is StabilityClass.UNSTABLE:
        raise NoSolutionError(pr.margin)
    semistable = pr.stability is StabilityClass.SEMISTABLE
    return DhymSolution(
        cos_theta=pr.phase.cos_theta,
        sin_theta=pr.phase.sin_theta,
        Cprime=pr.Cprime,
        u_minus=pr.u_minus,
        t_minus=pr.t_minus,
        t_plus=pr.t_plus,
        regularity="holder12" if semistable else "smooth",
        conjugated=pr.bundle.conjugated,
    )


def check_domain(interval, t):
    """t as a float array in [interval.t_minus, interval.t_plus].

    ``interval`` is a DhymSolution or a ProfilePoly.  A point at most
    _ENDPOINT_SLACK outside an end is moved onto that end; a point further
    out, or a NaN, raises DomainError.  On the interval every factor and
    term of radicand is non-negative, so t^2 + C' >= 0 in floating point
    and no caller clamps it.
    """
    t = np.asarray(t, dtype=float)
    if not t.size:
        return t
    # a 0-d t is read by float(), cheaper than two 0-d reductions; min and
    # max propagate NaN, which then fails both comparisons
    lo, hi = (float(t),) * 2 if t.ndim == 0 else (t.min(), t.max())
    if not (lo >= interval.t_minus - _ENDPOINT_SLACK
            and hi <= interval.t_plus + _ENDPOINT_SLACK):
        raise DomainError(f"t outside [{interval.t_minus}, {interval.t_plus}]")
    if lo < interval.t_minus or hi > interval.t_plus:
        t = np.asarray(np.clip(t, interval.t_minus, interval.t_plus))
    return t


def radicand(iv, t):
    """t^2 + C' of a Problem, DhymSolution or ProfilePoly ``iv``, formed
    without the cancellation of t^2 against C' near t_minus."""
    return (t - iv.t_minus) * (t + iv.t_minus) + iv.u_minus


def _sign(sol: DhymSolution) -> float:
    # conjugated descriptors evaluate the mirrored solution H -> -H
    return -1.0 if sol.conjugated else 1.0


def _near_root(sol: DhymSolution) -> bool:
    """Whether the cos(theta) > 0 numerators come from (t_minus, u_minus),
    the constants radicand forms u from, instead of C'.

    Near the semistable band u is tiny near t_minus, and C' rounded apart
    from u_minus is then a large relative change of u; where
    |C'| << t_minus^2, t_minus^2 - u_minus cancels instead.
    """
    return sol.u_minus <= 0.5 * sol.t_minus ** 2


def _H_of(sol: DhymSolution, t, root):
    """Canonical-branch H at a checked t, from root = sqrt(t^2 + C')."""
    sin_t, cos_t = sol.sin_theta, sol.cos_theta
    if cos_t > 0.0:
        # rationalized form: avoids the t*cos - sqrt(u) cancellation that
        # dominates for near-degenerate phases (e.g. small scaled classes);
        # the numerator is -(t sin)^2 - C'
        ts = t * sin_t
        if _near_root(sol):
            num = (sol.t_minus - ts) * (sol.t_minus + ts) - sol.u_minus
        else:
            num = -ts ** 2 - sol.Cprime
        return num / (sin_t * (t * cos_t + root))
    return (t * cos_t - root) / sin_t


def _H_deriv_of(sol: DhymSolution, t, root):
    """Canonical-branch H' at a checked t, from root = sqrt(t^2 + C')."""
    sin_t, cos_t = sol.sin_theta, sol.cos_theta
    if cos_t > 0.0:
        # the numerator is cos^2 C' - (t sin)^2
        ts = t * sin_t
        if _near_root(sol):
            num = cos_t ** 2 * sol.u_minus - (cos_t * sol.t_minus) ** 2 - ts ** 2
        else:
            num = cos_t ** 2 * sol.Cprime - ts ** 2
        return num / (sin_t * root * (cos_t * root + t))
    return (cos_t - t / root) / sin_t


def eval_H(sol: DhymSolution, t):
    """H(t) on [t_minus, t_plus]; accepts scalars or arrays.

    For a conjugated descriptor (input class reduced through the
    (k1, k2) -> (-k1, -k2) symmetry) this is the negative of the
    canonical-branch value.
    """
    t = check_domain(sol, t)
    out = _sign(sol) * _H_of(sol, t, np.sqrt(radicand(sol, t)))
    return float(out) if out.ndim == 0 else out


def eval_H_deriv(sol: DhymSolution, t):
    """Analytic H'(t); diverges at t_minus in the holder12 case."""
    t = check_domain(sol, t)
    out = _sign(sol) * _H_deriv_of(sol, t, np.sqrt(radicand(sol, t)))
    return float(out) if np.ndim(out) == 0 else out


def H_pair_of(sol: DhymSolution, t, root):
    """(H(t), H'(t)) at a checked t, from root = sqrt(t^2 + C')."""
    sign = _sign(sol)
    return sign * _H_of(sol, t, root), sign * _H_deriv_of(sol, t, root)


def ode_residual_of(sol: DhymSolution, t, H, Hp):
    """The residual of ode_residual_H from given values H = H(t), Hp = H'(t)."""
    sin_t = _sign(sol) * sol.sin_theta
    cos_t = sol.cos_theta
    return Hp * (H * sin_t - t * cos_t) - (t * sin_t + H * cos_t)


def ode_residual_H(sol: DhymSolution, t):
    """Denominator-cleared residual of the first-order constant-phase ODE.

    Returns H'(t) (H sin - t cos) - (t sin + H cos); identically zero for the
    exact solution, and well defined even where H sin = t cos.  For a
    conjugated descriptor the phase has the opposite sine, which the residual
    accounts for.
    """
    t = check_domain(sol, t)
    H, Hp = H_pair_of(sol, t, np.sqrt(radicand(sol, t)))
    out = ode_residual_of(sol, t, H, Hp)
    return float(out) if np.ndim(out) == 0 else out


def eval_nu(sol: DhymSolution, s: SurfaceParams, b: BundleClass, t):
    """Potential-difference function; vanishes at both endpoints.

    nu(t) = k1 t + (k2/t)(1 - x^2)/x^2 - H(t), with (k1, k2) and H both
    taken on the same branch as the descriptor.
    """
    b = pose(s, b).bundle
    t = check_domain(sol, t)
    x = s.x
    sign = _sign(sol)
    H = sign * _H_of(sol, t, np.sqrt(radicand(sol, t)))
    out = sign * (b.k1 * t + (b.k2 / t) * (1.0 - x ** 2) / x ** 2) - H
    return float(out) if out.ndim == 0 else out


_GRID_STEPS = np.arange(1001, dtype=float)


def default_grid(iv) -> np.ndarray:
    """Uniform 1001-point grid on [t_minus, t_plus] of a DhymSolution or a
    ProfilePoly ``iv``.

    Bitwise equal to np.linspace(t_minus, t_plus, 1001), without its call
    overhead: the same t_minus + k * step, with the last node set to t_plus
    (the step never underflows, the interval is 2 wide).
    """
    t = iv.t_minus + (iv.t_plus - iv.t_minus) / 1000 * _GRID_STEPS
    t[-1] = iv.t_plus
    return t
