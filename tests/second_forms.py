"""The paper's second forms of the reduction quantities.

Plain arithmetic, so each runs on floats and on sympy symbols alike:
test_certificate.py proves the closed forms of tke equal to these
exactly, and test_tke.py checks them numerically at a solved cone angle.
"""

from dhym_ruled import tke
from dhym_ruled.coupled import beta_infinity


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
