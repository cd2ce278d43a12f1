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
    DhymSolution,
    H_pair_of,
    check_domain,
    default_grid,
    ode_residual_of,
    radicand,
)
from .errors import NoSolutionError, ValidationError
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
    """psi(t) = d0 + d1 t + c2 t^2 + c3 t^3 + cR (t^2 + C')^(3/2)."""

    d0: float
    d1: float
    c2: float
    c3: float
    cR: float
    Cprime: float
    u_minus: float
    t_minus: float
    t_plus: float
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
    of H and the imaginary part (both from one H and H'), and the scalar
    residual; psi' and psi'' at (t_minus, t_plus) come from one 2-point
    evaluation.  Each is bitwise what the public function gives on the same
    points.
    """

    t: np.ndarray
    H: np.ndarray
    psi: np.ndarray
    ode_residual: np.ndarray
    im_part: np.ndarray
    scalar_residual: np.ndarray
    dpsi_ends: list
    psi_pp_ends: list


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
    return pr.phase.r_hat * bracket / (2.0 * b.k2 ** 2 * x * (1.0 + (b.k1 - b.k2) ** 2))


def smooth_alpha(s: SurfaceParams, b: BundleClass) -> float:
    """Coupling constant of the smooth solution (always negative)."""
    pr = pose(s, b)
    b = pr.bundle
    return (
        pr.phase.r_hat
        / (2.0 * (1.0 + (b.k1 - b.k2) ** 2) * b.k2 ** 2)
        * (-2.0 + s.s_sigma * s.x)
    )


def _radical_coeffs(pr: Problem, alpha: float):
    """Cubic and radical coefficients of the profile for coupling alpha."""
    phase = pr.phase
    sin_t, cos_t = phase.sin_theta, phase.cos_theta
    c3 = (alpha / 3.0) * cos_t / sin_t ** 2 - (pr.s_hat - alpha * phase.r_hat) / 6.0
    # sin * (cot^2 + 1)^(3/2) = 1/sin^2 for sin > 0
    cR = -(alpha / 3.0) / sin_t ** 2
    return c3, cR


def conical_coefficients(
    s: SurfaceParams, b: BundleClass, beta0: float
) -> ProfilePoly:
    """Profile with cone angle beta0 along the zero section.

    d0 and d1 come from the boundary linear system psi(t_-) = psi(t_+) = 0.
    The boundary slopes are not checked here: the residual suite
    (cli.residual_summary, slope_err_minus and slope_err_plus) checks them.
    """
    require_cone_angle(beta0)
    return _profile(pose(s, b), beta0)


def _profile(pr: Problem, beta0: float) -> ProfilePoly:
    cls = pr.stability
    if cls is StabilityClass.UNSTABLE:
        raise NoSolutionError(pr.margin)
    if cls is StabilityClass.SEMISTABLE and beta0 != 1.0:
        raise ValidationError("conical profiles require strict stability")

    alpha = _coupling(pr, beta0)
    c3, cR = _radical_coeffs(pr, alpha)
    # a subnormal divisor passes the gate of pose but overflows here
    if not all(map(math.isfinite, (alpha, c3, cR))):
        raise ValidationError(
            f"profile coefficients out of double-precision range:"
            f" alpha = {alpha!r}, c3 = {c3!r}, cR = {cR!r}"
        )
    c2 = pr.surface.s_sigma

    def inhom(t):
        return c2 * t ** 2 + c3 * t ** 3 + cR * radicand(pr, t) ** 1.5

    d0, d1 = oracle.solve_2x2(
        1.0, pr.t_minus, 1.0, pr.t_plus, -inhom(pr.t_minus), -inhom(pr.t_plus)
    )
    return ProfilePoly(
        d0=d0,
        d1=d1,
        c2=c2,
        c3=c3,
        cR=cR,
        Cprime=pr.Cprime,
        u_minus=pr.u_minus,
        t_minus=pr.t_minus,
        t_plus=pr.t_plus,
        beta0=beta0,
        beta_inf=beta_infinity(pr.surface.x, beta0),
        alpha=alpha,
    )


def smooth_coefficients(s: SurfaceParams, b: BundleClass) -> ProfilePoly:
    """Smooth profile (both cone angles equal to one).

    This is conical_coefficients(s, b, 1.0): the smooth solution is the
    beta0 = 1 member of the conical family, with d0, d1 from the same
    boundary system.
    """
    return conical_coefficients(s, b, 1.0)


def eval_psi(p: ProfilePoly, t):
    t = check_domain(p, t)
    out = _psi_of(p, t, radicand(p, t))
    return float(out) if out.ndim == 0 else out


def _psi_of(p: ProfilePoly, t, u):
    """psi at a checked t, from u = t^2 + C'."""
    return p.d0 + p.d1 * t + p.c2 * t ** 2 + p.c3 * t ** 3 + p.cR * u ** 1.5


def _psi_p_of(p: ProfilePoly, t, root):
    """psi' at a checked t, from root = sqrt(t^2 + C')."""
    return p.d1 + 2.0 * p.c2 * t + 3.0 * p.c3 * t ** 2 + p.cR * (3.0 * t * root)


def _psi_pp_of(p: ProfilePoly, t, u, root):
    """psi'' at a checked t, from u = t^2 + C' and root = sqrt(u).  Divides
    by root, so callers that reach u = 0 set np.errstate."""
    return 2.0 * p.c2 + 6.0 * p.c3 * t + p.cR * (3.0 * (t ** 2 + u) / root)


def eval_psi_deriv(p: ProfilePoly, t, order: int = 1):
    """Analytic derivative of psi up to order 4 (order 0 returns psi)."""
    if order == 0:
        return eval_psi(p, t)
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 0..4, got {order}")
    t = check_domain(p, t)
    u = radicand(p, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 1:
            out = _psi_p_of(p, t, np.sqrt(u))
        elif order == 2:
            out = _psi_pp_of(p, t, u, np.sqrt(u))
        elif order == 3:
            out = 6.0 * p.c3 + 0.0 * t + p.cR * (3.0 * t * (3.0 * u - t ** 2) / u ** 1.5)
        else:
            out = 0.0 * t + p.cR * (9.0 * p.Cprime ** 2 / u ** 2.5)
    return float(out) if out.ndim == 0 else out


def eval_phi(p: ProfilePoly, t):
    """Momentum profile phi(t) = psi(t) / (2 t)."""
    t = check_domain(p, t)
    out = _psi_of(p, t, radicand(p, t)) / (2.0 * t)
    return float(out) if out.ndim == 0 else out


#: Zoom rounds after the scan, run only when the scan's minimum is bracketed
#: by two interior nodes.  Each evaluates ZOOM_POINTS over the bracket
#: around the last argmin and keeps that argmin's neighbours, so the bracket
#: shrinks (ZOOM_POINTS - 1) / 2 = 16x a round: from two grid steps (4e-3,
#: the interval is always 2 wide) to 2.4e-10 after six rounds.
ZOOM_ROUNDS = 6
ZOOM_POINTS = 33


def positivity_certificate(
    p: ProfilePoly, interior: SolvePass | None = None
) -> PositivityReport:
    """Certify psi > 0 on the open interior.

    ``interior`` is the SolvePass of p on the interior nodes of
    dhym.default_grid, if the caller has one: the scan and the end values of
    psi'' are then read from it, with the same report.

    The minimum of psi is found by a scan of the interior nodes of
    dhym.default_grid.  When the scan's minimum lies strictly between the
    first and the last interior node, its two neighbours bracket it and
    array zooms refine it; the reported minimum is the lowest value seen
    over the grid and every zoom point, so it is never above the grid
    minimum.  At the first or last interior node there is no bracket: the
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
    if interior is None:
        t = default_grid(p)[1:-1]
        vals = eval_psi(p, t)
    else:
        t, vals = interior.t, interior.psi
    i = int(np.argmin(vals))
    min_value, argmin = float(vals[i]), float(t[i])
    if 0 < i < len(t) - 1:
        for _ in range(ZOOM_ROUNDS):
            # the bracket lies in the scanned grid: no domain check
            t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)], ZOOM_POINTS)
            vals = _psi_of(p, t, radicand(p, t))
            i = int(np.argmin(vals))
            if vals[i] < min_value:
                min_value, argmin = float(vals[i]), float(t[i])

    if min_value <= 0.0:
        return PositivityReport(method="Failed", min_value=min_value, argmin=argmin)

    if p.alpha <= 0.0:
        if interior is None:
            ends = np.array([p.t_minus, p.t_plus])
            pp_minus, pp_plus = eval_psi_deriv(p, ends, 2).tolist()
        else:
            pp_minus, pp_plus = interior.psi_pp_ends
        if p.cR >= 0.0 and pp_minus > pp_plus:
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
    t = check_domain(p, t)
    u = radicand(p, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = _scalar_source(p, pose(s, b), t, u)
        psi_pp = _psi_pp_of(p, t, u, np.sqrt(u))
    out = psi_pp - rhs
    return float(out) if np.ndim(out) == 0 else out


def _scalar_source(p: ProfilePoly, pr: Problem, t, u):
    """The source term of scalar_residual at a checked t, from u = t^2 + C'.
    Divides by a root of u, so callers that reach u = 0 set np.errstate."""
    phase = pr.phase
    sin_t, cos_t = phase.sin_theta, phase.cos_theta
    alpha = p.alpha
    root = np.sqrt((1.0 / sin_t ** 2) * u)  # sqrt((cot^2+1)(t^2+C'))
    return (
        (2.0 * alpha * cos_t / sin_t ** 2 - pr.s_hat + alpha * phase.r_hat) * t
        - (alpha / sin_t) * root
        - (alpha / sin_t ** 3) * t ** 2 / root
        + 2.0 * pr.surface.s_sigma
    )


def solve_pass(
    p: ProfilePoly, s: SurfaceParams, b: BundleClass, dh: DhymSolution, t
) -> SolvePass:
    """Evaluate the solve (dh, p) once on the nodes t.

    No domain check: t must lie in [t_minus, t_plus].  It may include the
    ends, where H', the imaginary part and the scalar residual of a holder12
    solution divide by zero, so no warning is raised.
    """
    ends = np.array([p.t_minus, p.t_plus])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = radicand(p, t)
        root = np.sqrt(u)
        H, Hp = H_pair_of(dh, t, root)
        u_ends = radicand(p, ends)
        root_ends = np.sqrt(u_ends)
        return SolvePass(
            t=t,
            H=H,
            psi=_psi_of(p, t, u),
            ode_residual=ode_residual_of(dh, t, H, Hp),
            im_part=phase_and_radius_of(dh, t, H, Hp)[0],
            scalar_residual=_psi_pp_of(p, t, u, root)
            - _scalar_source(p, pose(s, b), t, u),
            dpsi_ends=_psi_p_of(p, ends, root_ends).tolist(),
            psi_pp_ends=_psi_pp_of(p, ends, u_ends, root_ends).tolist(),
        )


def phase_and_radius(
    p: ProfilePoly, s: SurfaceParams, b: BundleClass, dh: DhymSolution, t
):
    """Pointwise imaginary and real parts of the normalized top-form ratio.

    The imaginary part is the constant-phase residual and must vanish; the
    real part is the pointwise radius, whose average against the volume
    weight is the cohomological average radius.
    """
    t = check_domain(p, t)
    H, Hp = H_pair_of(dh, t, np.sqrt(radicand(dh, t)))
    im_part, re_part = phase_and_radius_of(dh, t, H, Hp)
    if np.ndim(im_part) == 0:
        return float(im_part), float(re_part)
    return im_part, re_part


def phase_and_radius_of(dh: DhymSolution, t, H, Hp):
    """The parts of phase_and_radius from given values H = H(t), Hp = H'(t)."""
    sign = -1.0 if dh.conjugated else 1.0
    sin_t, cos_t = sign * dh.sin_theta, dh.cos_theta
    one_minus = 1.0 - H * Hp / t
    sum_part = Hp + H / t
    return sin_t * one_minus + cos_t * sum_part, cos_t * one_minus - sin_t * sum_part


def average_radius_quadrature(
    s: SurfaceParams, b: BundleClass, dh: DhymSolution, p: ProfilePoly
) -> float:
    """Average of the pointwise radius against the volume weight x*t dt."""

    def integrand(t):
        _, re = phase_and_radius(p, s, b, dh, t)
        return t * re

    val = oracle.quadrature(integrand, dh.t_minus, dh.t_plus, tol=1e-10)
    return 0.5 * s.x * val
