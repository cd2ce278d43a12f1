"""Momentum profile psi(t) = 2 t phi(t) solving the coupled system.

The profile lives in the exact five-element basis

    {1, t, t^2, t^3, (t^2 + C')^(3/2)},

with t^2 + C' from dhym.radicand and hand-derived derivative rules through
order four, so residuals of both coupled equations and the convexity-based
positivity certificate are evaluated analytically, never by numerical
differentiation.  The conical path (cone angle beta0 along the zero section)
contains the smooth case as beta0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .dhym import (
    H_pair_of,
    check_domain,
    ode_residual_of,
    radicand,
    solve_dhym,
)
from .errors import PositivityError, ValidationError
from .params import (
    BundleClass,
    Problem,
    StabilityClass,
    SurfaceParams,
    pose,
    require_cone_angle,
)


@dataclass(frozen=True)
class ProfilePoly:
    """psi(t) = d0 + d1 t + c2 t^2 + c3 t^3 + cR (t^2 + C')^(3/2), on the
    interval and with the C' and phase of its solution H, ``sol``."""

    sol: Problem
    d0: float
    d1: float
    c2: float
    c3: float
    cR: float
    beta0: float
    beta_inf: float
    alpha: float


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the interior-positivity check for psi."""

    method: str  # "ConvexityCertified" | "GridVerified" | "Failed"
    min_value: float
    argmin: float


@dataclass(frozen=True)
class SolvePass:
    """A solve evaluated once on nodes t of its interval.

    From one radicand u and one root = sqrt(u) on t: H, psi, the ODE residual
    of H and the imaginary part (both from one H and H'), psi'' and the
    scalar residual.  Each is bitwise what the public function gives on the
    same points.
    """

    t: np.ndarray
    H: np.ndarray
    psi: np.ndarray
    ode_residual: np.ndarray
    im_part: np.ndarray
    psi_pp: np.ndarray
    scalar_residual: np.ndarray


def beta_infinity(x: float, beta0: float) -> float:
    """Cone angle forced along the infinity section by the angle at the zero
    section: (-2 + beta0 (1 + x)) / (-1 + x)."""
    return (-2.0 + beta0 * (1.0 + x)) / (-1.0 + x)


def conical_alpha(s: SurfaceParams, b: BundleClass, beta0: float) -> float:
    """The unique coupling constant for cone angle beta0."""
    return _coupling(pose(s, b), beta0)


def _coupling(pr: Problem, beta0: float) -> float:
    b, x = pr.bundle, pr.surface.x
    bracket = pr.surface.s_sigma * x ** 2 - 3.0 * beta0 * (x + 1.0) + x + 3.0
    return pr.r_hat * bracket / (2.0 * b.k2 ** 2 * x * (1.0 + (b.k1 - b.k2) ** 2))


def smooth_alpha(s: SurfaceParams, b: BundleClass) -> float:
    """Coupling constant of the smooth solution (always negative)."""
    pr = pose(s, b)
    b = pr.bundle
    return (
        pr.r_hat
        / (2.0 * (1.0 + (b.k1 - b.k2) ** 2) * b.k2 ** 2)
        * (-2.0 + s.s_sigma * s.x)
    )


def _radical_coeffs(pr: Problem, alpha: float):
    """Cubic and radical coefficients of the profile for coupling alpha."""
    sin_t, cos_t = pr.sin_theta, pr.cos_theta
    c3 = (alpha / 3.0) * cos_t / sin_t ** 2 - (pr.s_hat - alpha * pr.r_hat) / 6.0
    # sin * (cot^2 + 1)^(3/2) = 1/sin^2 for sin > 0
    cR = -(alpha / 3.0) / sin_t ** 2
    return c3, cR


def conical_coefficients(
    s: SurfaceParams, b: BundleClass, beta0: float
) -> ProfilePoly:
    """Profile with cone angle beta0 along the zero section.

    beta0 = 1 is the smooth solution (both cone angles equal to one).
    d0 and d1 solve psi(t_-) = psi(t_+) = 0 in closed form, from the rest of
    psi at both ends as _psi_of evaluates it.
    The boundary slopes are not checked here: the residual suite
    (cli.residual_summary, slope_err_minus and slope_err_plus) checks them.
    """
    require_cone_angle(beta0)
    return _profile(solve_dhym(s, b), beta0)


def _profile(pr: Problem, beta0: float) -> ProfilePoly:
    """The profile of the solution pr (past the unstable gate) for beta0."""
    if pr.stability is StabilityClass.SEMISTABLE and beta0 != 1.0:
        raise ValidationError("conical profiles require strict stability")

    alpha = _coupling(pr, beta0)
    c3, cR = _radical_coeffs(pr, alpha)
    c2 = pr.surface.s_sigma
    beta_inf = beta_infinity(pr.surface.x, beta0)

    # psi(t_-) = psi(t_+) = 0 fixes the affine part d0 + d1 t: with r_pm the
    # rest of psi at t_pm, d1 = (r_- - r_+) / w and d0 = (r_+ t_- - r_- t_+) / w
    # for the width w = t_+ - t_-, which rounds to 0 once 1/x >= 2^53
    rest = ProfilePoly(pr, 0.0, 0.0, c2, c3, cR, beta0, beta_inf, alpha)
    t_minus, t_plus = pr.t_minus, pr.t_plus
    r_minus = _psi_of(rest, t_minus, radicand(pr, t_minus), t_minus ** 2)
    r_plus = _psi_of(rest, t_plus, radicand(pr, t_plus), t_plus ** 2)
    width = (t_plus - t_minus) or math.nan
    d0 = (r_plus * t_minus - r_minus * t_plus) / width
    d1 = (r_minus - r_plus) / width
    # a subnormal divisor passes the gate of pose but overflows the
    # coefficients; a zero width leaves d0 and d1 NaN
    if not all(map(math.isfinite, (alpha, c3, cR, d0, d1))):
        raise ValidationError(
            f"profile coefficients out of double-precision range: alpha = {alpha!r},"
            f" c3 = {c3!r}, cR = {cR!r}, d0 = {d0!r}, d1 = {d1!r}"
        )
    return ProfilePoly(pr, d0, d1, c2, c3, cR, beta0, beta_inf, alpha)


def eval_psi(p: ProfilePoly, t):
    t = check_domain(p.sol, t)
    out = _psi_of(p, t, radicand(p.sol, t), t ** 2)
    return float(out) if out.ndim == 0 else out


def _psi_of(p: ProfilePoly, t, u, t2):
    """psi at a checked t, from u = t^2 + C' and t2 = t^2."""
    return p.d0 + p.d1 * t + p.c2 * t2 + p.c3 * t ** 3 + p.cR * u ** 1.5


def _psi_p_of(p: ProfilePoly, t, root, t2):
    """psi' at a checked t, from root = sqrt(t^2 + C') and t2 = t^2."""
    return p.d1 + 2.0 * p.c2 * t + 3.0 * p.c3 * t2 + p.cR * (3.0 * t * root)


def _psi_pp_of(p: ProfilePoly, t, u, root, t2):
    """psi'' at a checked t, from u = t^2 + C', root = sqrt(u) and t2 = t^2.
    Divides by root, so callers that reach u = 0 set np.errstate."""
    return 2.0 * p.c2 + 6.0 * p.c3 * t + p.cR * (3.0 * (t2 + u) / root)


def eval_phi(p: ProfilePoly, t):
    """Momentum profile phi(t) = psi(t) / (2 t)."""
    t = check_domain(p.sol, t)
    out = _psi_of(p, t, radicand(p.sol, t), t ** 2) / (2.0 * t)
    return float(out) if out.ndim == 0 else out


def reconstruct_s_of_tau(p: ProfilePoly) -> oracle.GridFunction:
    """Invert the momentum profile to the log-norm coordinate s(tau).

    s(tau) = integral of d sigma / phi(sigma) from 0, on a uniform grid of
    20001 nodes of the profile variable tau in (-1 + 1e-8, 1 - 1e-8).  s
    diverges logarithmically at both ends, at rates set by the cone angles.
    Raises PositivityError if the profile is not positive on that range.
    """
    half = 0.5 * (p.sol.t_minus + p.sol.t_plus)  # equals 1/x
    tau = np.linspace(-1.0 + 1e-8, 1.0 - 1e-8, 20001)
    t = half - tau
    phi = eval_phi(p, t)
    if np.any(phi <= 0.0):
        bad = tau[np.argmin(phi)]
        raise PositivityError(f"profile non-positive near tau = {bad}")
    inv = 1.0 / phi
    # cumulative trapezoid, then shift so that s(0) = 0
    s_vals = np.concatenate(
        ([0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * np.diff(tau)))
    )
    s_at_0 = float(np.interp(0.0, tau, s_vals))
    return oracle.GridFunction(nodes=tau, values=s_vals - s_at_0)


#: Zoom rounds after the scan, run only when the scan's minimum is bracketed
#: by two interior nodes.  Each evaluates ZOOM_POINTS over the bracket
#: around the last argmin and keeps that argmin's neighbours, so the bracket
#: shrinks (ZOOM_POINTS - 1) / 2 = 16x a round: from two grid steps (4e-3,
#: the interval is always 2 wide) to 2.4e-10 after six rounds.
ZOOM_ROUNDS = 6
ZOOM_POINTS = 33


def positivity_certificate(p: ProfilePoly, grid: SolvePass) -> PositivityReport:
    """Certify psi > 0 on the open interior.

    ``grid`` is the SolvePass of p on all nodes of dhym.default_grid
    (cli.verification_pass).  The minimum of psi is found by a scan of its
    psi on the interior nodes, and the convexity test reads its psi'' at both
    ends; only the zooms are evaluated here.  When the scan's minimum lies
    strictly between the first and the last node, its two neighbours
    bracket it and array zooms refine it; the reported minimum is the lowest
    value seen over the grid and every zoom point, so it is never above the
    grid minimum.  At the first or last interior node there is no bracket: the
    values rise from that node towards the interior, and the cell on the
    other side ends at t_minus or t_plus, where psi takes its boundary value
    0 with the slope the residual suite checks.  A zoom there would only
    find the node's value again, or rounding noise in the end cell, so the
    node and its grid value are reported.

    For alpha <= 0 the certificate is convexity.  With u = t^2 + C' > 0 on
    the open interior, psi'''' = cR * 9 C'^2 / u^(5/2), so cR >= 0 makes
    the fourth derivative non-negative there and psi'' convex, with no grid
    needed (a NaN cR is not certified); for alpha <= 0,
    cR = -(alpha/3) / sin^2(theta) >= 0.  A convex psi'' with
    psi''(t_-) > psi''(t_+) and the boundary data then certifies positivity.
    For alpha > 0 no such argument is available and the scan is reported
    instead.
    """
    t, vals = grid.t[1:-1], grid.psi[1:-1]
    i = int(np.argmin(vals))
    min_value, argmin = float(vals[i]), float(t[i])
    if 0 < i < len(t) - 1:
        for _ in range(ZOOM_ROUNDS):
            # the bracket lies in the scanned grid: no domain check
            t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)], ZOOM_POINTS)
            vals = _psi_of(p, t, radicand(p.sol, t), t ** 2)
            i = int(np.argmin(vals))
            if vals[i] < min_value:
                min_value, argmin = float(vals[i]), float(t[i])

    if not min_value > 0.0:  # a NaN minimum fails too
        return PositivityReport(method="Failed", min_value=min_value, argmin=argmin)

    if p.alpha <= 0.0:
        if p.cR >= 0.0 and grid.psi_pp[0] > grid.psi_pp[-1]:
            return PositivityReport(
                method="ConvexityCertified", min_value=min_value, argmin=argmin
            )
    return PositivityReport(method="GridVerified", min_value=min_value, argmin=argmin)


def scalar_residual(p: ProfilePoly, s: SurfaceParams, b: BundleClass, t):
    """Residual of the second-order profile ODE: psi''(t) minus its source.

    Zero (to rounding) for exact solutions.  The affine part of psi is in
    the kernel of psi'', so this residual cannot detect d0/d1 errors; the
    boundary checks cover those.

    The source term is algebraically the same expression as psi'' of the
    closed form, so this residual checks the coefficient bookkeeping, not
    the ODE itself.  The finite-difference and RK4 oracles remain the
    independent checks.
    """
    t = check_domain(p.sol, t)
    u = radicand(p.sol, t)
    t2 = t ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = _scalar_source(p, t, u, t2)
        psi_pp = _psi_pp_of(p, t, u, np.sqrt(u), t2)
    out = psi_pp - rhs
    return float(out) if np.ndim(out) == 0 else out


def _scalar_source(p: ProfilePoly, t, u, t2):
    """The source term of scalar_residual at a checked t, from u = t^2 + C'
    and t2 = t^2.  Divides by a root of u, so callers that reach u = 0 set
    np.errstate."""
    pr = p.sol
    sin_t, cos_t = pr.sin_theta, pr.cos_theta
    alpha = p.alpha
    root = np.sqrt((1.0 / sin_t ** 2) * u)  # sqrt((cot^2+1)(t^2+C'))
    return (
        (2.0 * alpha * cos_t / sin_t ** 2 - pr.s_hat + alpha * pr.r_hat) * t
        - (alpha / sin_t) * root
        - (alpha / sin_t ** 3) * t2 / root
        + 2.0 * pr.surface.s_sigma
    )


def solve_pass(p: ProfilePoly, t) -> SolvePass:
    """Evaluate the solve, H of p.sol and the profile p, once on the nodes t.

    No domain check: t must lie in [t_minus, t_plus].  It may include the
    ends, where H', the imaginary part and the scalar residual of a holder12
    solution divide by zero, so no warning is raised.  t^2 and t sin(theta)
    are formed once, for every kernel that reads them.
    """
    sol = p.sol
    with np.errstate(divide="ignore", invalid="ignore"):
        u = radicand(sol, t)
        root = np.sqrt(u)
        t2, ts = t ** 2, t * sol.sin_theta
        H, Hp = H_pair_of(sol, t, root, ts)
        psi_pp = _psi_pp_of(p, t, u, root, t2)
        return SolvePass(
            t=t,
            H=H,
            psi=_psi_of(p, t, u, t2),
            ode_residual=ode_residual_of(sol, t, H, Hp, ts),
            im_part=phase_and_radius_of(sol, t, H, Hp, radius=False),
            psi_pp=psi_pp,
            scalar_residual=psi_pp - _scalar_source(p, t, u, t2),
        )


def end_slopes(p: ProfilePoly) -> tuple[float, float]:
    """psi'(t_minus) and psi'(t_plus), on Python floats.

    psi' takes only +, -, * and one square root, each correctly rounded, and
    t^2 is t * t as numpy's t ** 2 forms it, so this is bitwise what an array
    evaluation gives at the ends.
    """
    sol = p.sol
    return tuple(_psi_p_of(p, t, math.sqrt(radicand(sol, t)), t * t)
                 for t in (sol.t_minus, sol.t_plus))


def phase_and_radius(
    p: ProfilePoly, s: SurfaceParams, b: BundleClass, dh: Problem, t
):
    """Pointwise imaginary and real parts of the normalized top-form ratio.

    The imaginary part is the constant-phase residual and must vanish; the
    real part is the pointwise radius, whose average against the volume
    weight is the cohomological average radius.
    """
    t = check_domain(dh, t)
    H, Hp = H_pair_of(dh, t, np.sqrt(radicand(dh, t)), t * dh.sin_theta)
    im_part, re_part = phase_and_radius_of(dh, t, H, Hp)
    if np.ndim(im_part) == 0:
        return float(im_part), float(re_part)
    return im_part, re_part


def phase_and_radius_of(dh: Problem, t, H, Hp, radius=True):
    """The parts of phase_and_radius from given values H = H(t), Hp = H'(t);
    the imaginary part alone if not ``radius``."""
    sin_t, cos_t = dh.sign * dh.sin_theta, dh.cos_theta
    one_minus = 1.0 - H * Hp / t
    sum_part = Hp + H / t
    im_part = sin_t * one_minus + cos_t * sum_part
    if not radius:
        return im_part
    return im_part, cos_t * one_minus - sin_t * sum_part


def average_radius_quadrature(
    s: SurfaceParams, b: BundleClass, dh: Problem, p: ProfilePoly
) -> float:
    """Average of the pointwise radius against the volume weight x*t dt."""

    def integrand(t):
        _, re = phase_and_radius(p, s, b, dh, t)
        return t * re

    val = oracle.quadrature(integrand, dh.t_minus, dh.t_plus)
    return 0.5 * s.x * val
