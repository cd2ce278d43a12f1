"""The paper's second forms and the second numerics, kept only as the
tests' references.

The reduction quantities are plain arithmetic, so each runs on floats and
on sympy symbols alike: test_certificate.py proves the closed forms of tke
equal to these exactly, and test_tke.py checks them numerically at a solved
cone angle.  The Ricci class, the closed form of psi''(t_-) - psi''(t_+)
and the scaled C' are checked numerically against the package, and the
per-point Decimal loop is the reference of oracle.eval_psi_highprec.  The
streamed writers, one Python repr per cell, are the references of the
profile and figure2 tables, and repr_table joins the package's chunked
text of one table.  rk4_solve, the generic RK4 on any right-hand side, is
the reference of oracle.rk4_solve_phase_ode: it shares that kernel's step
count, nodes and blow-up reporting (oracle._steps, _nodes, _grid).
finite_difference probes the analytic derivatives, and reverify recomputes
the residual summary of a parsed descriptor.  certificate_pass is the pass
that positivity_certificate reads, from the public evaluators alone.
eval_H_deriv, ode_residual_H, eval_nu and eval_psi_deriv (orders 0-4)
evaluate H', the ODE residual of H, the potential difference nu and the
derivatives of psi on their own, with the domain check of the public
evaluators, from the kernels the solve pass shares; orders 3 and 4 of psi
are the derivatives the convexity certificate reasons about.
"""

from decimal import Decimal, localcontext
from itertools import chain
from types import SimpleNamespace
from typing import Callable

import numpy as np

from dhym_ruled import coupled, dhym, oracle, tke
from dhym_ruled._text import repr_chunks
from dhym_ruled.cli import residual_summary, verification_pass
from dhym_ruled.coupled import _psi_p_of, _psi_pp_of, beta_infinity
from dhym_ruled.dhym import H_pair_of, check_domain, ode_residual_of, radicand
from dhym_ruled.errors import IntegrationError
from dhym_ruled.oracle import GridFunction, _grid, _nodes, _steps
from dhym_ruled.params import BundleClass, CohClass, make_surface, pose


def gamma_second_form(s, beta0):
    """4 - 6 beta0 + 3 (k'/k)(1 - beta0) + 2 (1 - h)/(k + k')."""
    return (4 - 6 * beta0 + 3 * (s.kprime / s.k) * (1 - beta0)
            + 2 * (1 - s.h) / (s.k + s.kprime))


def matching_numerator(s, beta0):
    """2 (1 - h)/(k + k') + 2 (k/k')(beta0 - 1) - 1, so that
    H(k, k', h, beta0) = 2 matching_numerator / gamma_second_form."""
    return 2 * (1 - s.h) / (s.k + s.kprime) + 2 * (s.k / s.kprime) * (beta0 - 1) - 1


def condition_second_form(s, b, beta0):
    """F(k1, k2) Gamma - 2 matching_numerator: zero exactly where
    H(k, k', h, beta0) = F(k1, k2)."""
    f = tke.F_value(b)
    return f * tke.gamma_quantity(s, beta0) - 2 * matching_numerator(s, beta0)


def class_equations(s, b, beta0):
    """Residuals of the two class equations of the reduction system."""
    k_, kp_, h_ = s.k, s.kprime, s.h
    beta_inf = beta_infinity(s.x, beta0)
    lhs = tke.F_value(b) * tke.gamma_quantity(s, beta0)
    r1 = lhs - (2 + 4 * (1 - h_) / (k_ + kp_) - 2 * (beta0 + beta_inf))
    r2 = lhs * (kp_ / 2 + k_) - (
        2 * (1 - h_) * (2 * k_ + kp_) / (k_ + kp_) - 2 * k_ * beta_inf - kp_
    )
    return r1, r2


def ricci_class(s, beta0, beta_inf):
    """Class of the Ricci form with the given cone-angle pair."""
    return CohClass(
        a=beta0 + beta_inf,
        b=2.0 * (1.0 - s.h) - s.k * beta_inf,
    )


def psi_pp_difference_closed_form(s, b, beta0=1.0):
    """Closed form of psi''(t_-) - psi''(t_+), valid for strict stability."""
    b = pose(s, b).bundle
    x, ss = s.x, s.s_sigma
    A2 = (1.0 + (b.k1 + b.k2) ** 2) ** 2
    B2 = (1.0 + (b.k1 - b.k2) ** 2) ** 2
    num = (3.0 * (1.0 + x) * beta0 - 3.0) * A2 - x ** 2 * B2 * (ss * x ** 2 + x)
    den = A2 * x - B2 * x ** 3
    return 4.0 * num / den


def scaled_Cprime(s, b, alpha_prime):
    """Closed form of C' for the class scaled by alpha'."""
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


def psi_highprec_reference(k, h, kprime, k1, k2, ts):
    """oracle.eval_psi_highprec's profile with every point in 60-digit Decimal.

    The constants are the oracle's own; each point evaluates
    d0 + d1 t + c2 t^2 + c3 t^3 + cR (t^2 + C')^(3/2) by Decimal arithmetic,
    the radicand clamped at 0, and rounds the result to a float.
    """
    Cprime, c2, c3, cR, d0, d1 = oracle._highprec_constants(k, h, kprime, k1, k2)
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        for t in np.atleast_1d(np.asarray(ts, dtype=float)):
            t_ = Decimal(float(t))
            u = t_ ** 2 + Cprime
            if u < 0:
                u = Decimal(0)
            psi = d0 + d1 * t_ + c2 * t_ ** 2 + c3 * t_ ** 3 + cR * u.sqrt() ** 3
            out.append(float(psi))
    return np.asarray(out)


def _reprs(a):
    """Lossless text of each float of ``a``, streamed."""
    return map(repr, a.tolist())


def profile_text(t, sp, holder):
    """The profile table of the solve pass ``sp`` on the nodes t; a holder12
    solution has blank derivative-based cells in row 0."""
    i = 1 if holder else 0
    blank = [""] if holder else []
    rows = zip(
        _reprs(t), _reprs(sp.psi / (2.0 * t)), _reprs(sp.psi), _reprs(sp.H),
        chain(blank, _reprs(sp.im_part[i:])),
        chain(blank, _reprs(sp.scalar_residual[i:])),
    )
    header = "t,phi,psi,H,im_residual,scalar_residual"
    return "\n".join(chain([header], map(",".join, rows))) + "\n"


def figure2_text(beta_bar, beta, H, pole):
    """The cone-angle matching curve, with a blank H cell at the pole."""
    cells = ("" if p else v for v, p in zip(_reprs(H), pole.tolist()))
    rows = map(",".join, zip(_reprs(beta), cells))
    header = [f"# beta_bar = {beta_bar!r}", "beta,H"]
    return "\n".join(chain(header, rows)) + "\n"


def repr_table(columns, blank=None) -> str:
    """The whole text of repr_chunks(columns, blank)."""
    return "".join(repr_chunks(columns, blank))


def rk4_solve(rhs: Callable, t0, y0, t1, step: float) -> GridFunction:
    """Classical fixed-step RK4 from (t0, y0) to t1, on Python floats.

    Takes round(|t1 - t0| / step) steps (see oracle._steps).  Integrates
    backwards when t1 < t0.  Blow-up of the right-hand side raises
    IntegrationError located at the last finite node.
    """
    t0, y0, t1 = float(t0), float(y0), float(t1)
    n, h = _steps(t0, t1, step)
    half, sixth = 0.5 * h, h / 6.0
    t, y = t0, y0
    values = [y]
    try:
        with np.errstate(all="ignore"):
            for i in range(n):
                th = t + half
                k1 = rhs(t, y)
                k2 = rhs(th, y + half * k1)
                k3 = rhs(th, y + half * k2)
                k4 = rhs(t + h, y + h * k3)
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = t0 + (i + 1) * h
                values.append(y)
    except (ZeroDivisionError, OverflowError) as exc:
        raise IntegrationError(
            f"right-hand side blew up near t = {t}", location=t
        ) from exc
    return _grid(_nodes(t0, h, n), h, np.array(values))


_FD_COEFFS = {
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
}


def finite_difference(
    f: Callable[[float], float], t: float, order: int, h: float
) -> float:
    """Central finite difference of the given order (1, 2 or 4)."""
    if order not in _FD_COEFFS:
        raise ValueError(f"unsupported order {order}")
    offsets, weights = _FD_COEFFS[order]
    acc = 0.0
    for o, w in zip(offsets, weights):
        acc += w * f(t + o * h)
    return acc / h ** order


def reverify(d: dict) -> dict:
    """Recompute the residual summary from a parsed descriptor."""
    s = make_surface(int(d["k"]), int(d["h"]), d["kprime"])
    b = BundleClass(k1=d["k1"], k2=d["k2"], conjugated=bool(d["conjugated"]))
    prof = coupled.conical_coefficients(s, b, d["beta0"])
    return residual_summary(prof, verification_pass(prof))


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def eval_H_deriv(sol, t):
    """Analytic H'(t); diverges at t_minus in the holder12 case."""
    t = check_domain(sol, t)
    root, ts = np.sqrt(radicand(sol, t)), t * sol.sin_theta
    return _scalar_or_array(sol.sign * dhym._H_deriv_of(sol, t, root, ts))


def ode_residual_H(sol, t):
    """dhym.ode_residual_of at checked nodes t, from H_pair_of."""
    t = check_domain(sol, t)
    ts = t * sol.sin_theta
    H, Hp = H_pair_of(sol, t, np.sqrt(radicand(sol, t)), ts)
    return _scalar_or_array(ode_residual_of(sol, t, H, Hp, ts))


def eval_nu(sol, s, b, t):
    """Potential difference nu(t) = k1 t + (k2/t)(1 - x^2)/x^2 - H(t), with
    (k1, k2) and H both on the branch of the descriptor; it vanishes at both
    endpoints.  limits.large_radius_check forms its nu_sup by the same
    arithmetic from its one evaluation of H."""
    b = pose(s, b).bundle
    t = check_domain(sol, t)
    x = s.x
    sign = sol.sign
    out = sign * (b.k1 * t + (b.k2 / t) * (1.0 - x ** 2) / x ** 2) - dhym.eval_H(sol, t)
    return _scalar_or_array(out)


def eval_psi_deriv(p, t, order=1):
    """Analytic derivative of psi up to order 4 (order 0 returns psi)."""
    if order == 0:
        return coupled.eval_psi(p, t)
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 0..4, got {order}")
    t = check_domain(p.sol, t)
    u = radicand(p.sol, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 1:
            out = _psi_p_of(p, t, np.sqrt(u), t ** 2)
        elif order == 2:
            out = _psi_pp_of(p, t, u, np.sqrt(u), t ** 2)
        elif order == 3:
            out = 6.0 * p.c3 + 0.0 * t + p.cR * (3.0 * t * (3.0 * u - t ** 2) / u ** 1.5)
        else:
            out = 0.0 * t + p.cR * (9.0 * p.sol.Cprime ** 2 / u ** 2.5)
    return _scalar_or_array(out)


def certificate_pass(p):
    """What positivity_certificate reads of a SolvePass, from eval_psi on the
    interior nodes of dhym.default_grid and eval_psi_deriv at both ends; it
    evaluates psi alone, so it serves profiles with perturbed coefficients too."""
    t = dhym.default_grid(p.sol)[1:-1]
    ends = np.array([p.sol.t_minus, p.sol.t_plus])
    return SimpleNamespace(t=t, psi=coupled.eval_psi(p, t),
                           psi_pp_ends=eval_psi_deriv(p, ends, 2).tolist())
