"""The paper's second forms, kept only as the tests' references.

The reduction quantities are plain arithmetic, so each runs on floats and
on sympy symbols alike: test_certificate.py proves the closed forms of tke
equal to these exactly, and test_tke.py checks them numerically at a solved
cone angle.  The Ricci class, the closed form of psi''(t_-) - psi''(t_+)
and the scaled C' are checked numerically against the package, and the
per-point Decimal loop is the reference of oracle.eval_psi_highprec.  The
streamed writers, one Python repr per cell, are the references of the
profile and figure2 tables.
"""

from decimal import Decimal, localcontext
from itertools import chain

import numpy as np

from dhym_ruled import oracle, tke
from dhym_ruled.coupled import beta_infinity
from dhym_ruled.params import CohClass, pose


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
