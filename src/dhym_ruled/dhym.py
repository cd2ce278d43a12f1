"""Explicit constant-phase solution H(t) on the momentum interval.

Under the momentum construction the constant-phase equation reduces to a
first-order ODE for an auxiliary function H(t) on the fixed interval
[1/x - 1, 1/x + 1], whose relevant solution branch is

    H(t) = t cot(theta) - sqrt((cot(theta)^2 + 1) (t^2 + C')),

with a single integration constant C' fixed by the boundary data.  The
posed class (params.Problem) carries every constant of H, so this module
only gates it, evaluates H and its derivative analytically, and exposes
pointwise residuals of the ODE in denominator-cleared form.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NoSolutionError
from .params import BundleClass, Problem, StabilityClass, SurfaceParams, pose

#: Absolute slack accepted at interval endpoints before raising DomainError.
_ENDPOINT_SLACK = 1e-12


def boundary_targets(s: SurfaceParams, b: BundleClass) -> tuple[float, float]:
    """targets_of the posed class (s, b)."""
    return targets_of(pose(s, b))


def targets_of(sol: Problem) -> tuple[float, float]:
    """Required values (H(t_minus), H(t_plus)) from exactness of the potential.

    A class carrying the conjugation flag refers to the mirrored original
    input, so its targets are the negatives of the canonical ones.
    """
    b, t_minus, t_plus, sign = sol.bundle, sol.t_minus, sol.t_plus, sol.sign
    return (
        sign * (b.k1 * t_minus + b.k2 * t_plus),
        sign * (b.k1 * t_plus + b.k2 * t_minus),
    )


def solve_dhym(s: SurfaceParams, b: BundleClass) -> Problem:
    """The posed class as the solution H; raises NoSolutionError when unstable."""
    pr = pose(s, b)
    if pr.stability is StabilityClass.UNSTABLE:
        raise NoSolutionError(pr.margin)
    return pr


def check_domain(sol: Problem, t):
    """t as a float array in [sol.t_minus, sol.t_plus].

    A point at most _ENDPOINT_SLACK outside an end is moved onto that end; a
    point further out, or a NaN, raises DomainError.  On the interval every
    factor and term of radicand is non-negative, so t^2 + C' >= 0 in
    floating point and no caller clamps it.
    """
    t = np.asarray(t, dtype=float)
    if not t.size:
        return t
    # a 0-d t is read by float(), cheaper than two 0-d reductions; min and
    # max propagate NaN, which then fails both comparisons
    lo, hi = (float(t),) * 2 if t.ndim == 0 else (t.min(), t.max())
    if not (lo >= sol.t_minus - _ENDPOINT_SLACK
            and hi <= sol.t_plus + _ENDPOINT_SLACK):
        raise DomainError(f"t outside [{sol.t_minus}, {sol.t_plus}]")
    if lo < sol.t_minus or hi > sol.t_plus:
        t = np.asarray(np.clip(t, sol.t_minus, sol.t_plus))
    return t


def radicand(sol: Problem, t):
    """t^2 + C' of the solution sol, formed without the cancellation of t^2
    against C' near t_minus."""
    return (t - sol.t_minus) * (t + sol.t_minus) + sol.u_minus


def _near_root(sol: Problem) -> bool:
    """Whether the cos(theta) > 0 numerators come from (t_minus, u_minus),
    the constants radicand forms u from, instead of C'.

    Near the semistable band u is tiny near t_minus, and C' rounded apart
    from u_minus is then a large relative change of u; where
    |C'| << t_minus^2, t_minus^2 - u_minus cancels instead.
    """
    return sol.u_minus <= 0.5 * sol.t_minus ** 2


def _H_of(sol: Problem, t, root, ts):
    """Canonical-branch H at a checked t, from root = sqrt(t^2 + C') and
    ts = t sin(theta).  H and H' square ts as ts * ts: a power of a numpy
    scalar runs libm's pow, which rounds apart from the product on some
    arguments, and the product has the same bits at every shape."""
    sin_t, cos_t = sol.sin_theta, sol.cos_theta
    if cos_t > 0.0:
        # rationalized form: avoids the t*cos - sqrt(u) cancellation that
        # dominates for near-degenerate phases (e.g. small scaled classes);
        # the numerator is -(t sin)^2 - C'
        if _near_root(sol):
            num = (sol.t_minus - ts) * (sol.t_minus + ts) - sol.u_minus
        else:
            num = -(ts * ts) - sol.Cprime
        return num / (sin_t * (t * cos_t + root))
    return (t * cos_t - root) / sin_t


def _H_deriv_of(sol: Problem, t, root, ts):
    """Canonical-branch H' at a checked t, from root = sqrt(t^2 + C') and
    ts = t sin(theta)."""
    sin_t, cos_t = sol.sin_theta, sol.cos_theta
    if cos_t > 0.0:
        # the numerator is cos^2 C' - (t sin)^2
        if _near_root(sol):
            num = cos_t ** 2 * sol.u_minus - (cos_t * sol.t_minus) ** 2 - ts * ts
        else:
            num = cos_t ** 2 * sol.Cprime - ts * ts
        return num / (sin_t * root * (cos_t * root + t))
    return (cos_t - t / root) / sin_t


def eval_H(sol: Problem, t):
    """H(t) on [t_minus, t_plus]; accepts scalars or arrays.

    For a conjugated class (an input reduced through the
    (k1, k2) -> (-k1, -k2) symmetry) this is the negative of the
    canonical-branch value.
    """
    t = check_domain(sol, t)
    out = sol.sign * _H_of(sol, t, np.sqrt(radicand(sol, t)), t * sol.sin_theta)
    return float(out) if out.ndim == 0 else out


def H_pair_of(sol: Problem, t, root, ts):
    """(H(t), H'(t)) at a checked t, from root = sqrt(t^2 + C') and
    ts = t sin(theta)."""
    H, Hp = _H_of(sol, t, root, ts), _H_deriv_of(sol, t, root, ts)
    if sol.bundle.conjugated:
        sign = sol.sign
        return sign * H, sign * Hp
    return H, Hp


def ode_residual_of(sol: Problem, t, H, Hp, ts):
    """Denominator-cleared ODE residual H' (H sin - t cos) - (t sin + H cos),
    from H = H(t), Hp = H'(t) and ts = t sin(theta): zero for the exact
    solution, and defined where H sin = t cos.  A conjugated class's
    phase has the opposite sine, which the residual accounts for."""
    sin_t = sol.sign * sol.sin_theta
    cos_t = sol.cos_theta
    # t (-sin) is -(t sin) exactly
    t_sin = -ts if sol.bundle.conjugated else ts
    return Hp * (H * sin_t - t * cos_t) - (t_sin + H * cos_t)


_GRID_STEPS = np.arange(1001, dtype=float)


def default_grid(sol: Problem) -> np.ndarray:
    """Uniform 1001-point grid on [t_minus, t_plus] of the solution sol.

    Bitwise equal to np.linspace(t_minus, t_plus, 1001), without its call
    overhead: the same t_minus + k * step, with the last node set to t_plus
    (the step never underflows, the interval is 2 wide).
    """
    t = sol.t_minus + (sol.t_plus - sol.t_minus) / 1000 * _GRID_STEPS
    t[-1] = sol.t_plus
    return t
