"""Symbolic certificate of the closed forms.

The src/ functions below are plain arithmetic, so they run unchanged on
sympy symbols (a SimpleNamespace stands in for a surface, a class or a
descriptor), and each identity reduces to 0 exactly.  The paper's second
forms of the reduction quantities, the references the proofs compare
against, live in second_forms.py.  Float constants of the code (2.0,
4.0 / 3.0, ...) are read back as the rationals they stand for.
"""

from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from dhym_ruled import dhym, tke  # noqa: E402

from second_forms import (  # noqa: E402
    class_equations,
    condition_second_form,
    gamma_second_form,
    matching_numerator,
)

k, kp = sp.symbols("k kprime", positive=True)
h, k1, k2, beta = sp.symbols("h k1 k2 beta", real=True)
SURFACE = SimpleNamespace(
    k=k, h=h, kprime=kp, x=k / (k + kp), s_sigma=2 * (1 - h) / k
)
CLASS = SimpleNamespace(k1=k1, k2=k2)


def is_zero(expr) -> bool:
    return sp.simplify(sp.nsimplify(expr)) == 0


# -------------------------------------------------------- Moebius form


def moebius(s):
    """(a, A, B, D, E) of tke.solve_beta0: H = 2 (A + B beta)/(D - E beta)."""
    a = 2 * (1 - s.h) / (s.k + s.kprime)
    A, B = a - 1 - 2 * s.k / s.kprime, 2 * s.k / s.kprime
    D, E = a + 3 * s.kprime / s.k + 4, 3 * s.kprime / s.k + 6
    return a, A, B, D, E


def closed_form_beta0(s, b):
    _, A, B, D, E = moebius(s)
    f = tke.F_value(b)
    return (f * D - 2 * A) / (2 * B + f * E)


# ------------------------------------------------------------ the proofs


def test_gamma_equals_its_second_form():
    assert is_zero(tke.gamma_quantity(SURFACE, beta) - gamma_second_form(SURFACE, beta))


def test_condition_forms_have_one_zero_set():
    # the factor -2 k k' k1 k2 / (k + k')^2 vanishes for no admissible class
    factor = -2 * k * kp * k1 * k2 / (k + kp) ** 2
    assert is_zero(
        tke.condition_residual(SURFACE, CLASS, beta)
        - factor * condition_second_form(SURFACE, CLASS, beta)
    )


def test_moebius_coefficients_of_H():
    a, A, B, D, E = moebius(SURFACE)
    assert is_zero(A + B * beta - matching_numerator(SURFACE, beta))
    assert is_zero(D - E * beta - gamma_second_form(SURFACE, beta))
    # the pole, and H(1) = 2 (a - 1)/(a - 2) as solve_beta0 reports it
    assert is_zero(tke.beta_asymptote(k, kp, h) - D / E)
    assert is_zero((A + B) / (D - E) - (a - 1) / (a - 2))


def test_closed_form_beta0_solves_the_reduction():
    beta0 = closed_form_beta0(SURFACE, CLASS)
    assert is_zero(tke.condition_residual(SURFACE, CLASS, beta0))
    r1, r2 = class_equations(SURFACE, CLASS, beta0)
    assert is_zero(r1)
    assert is_zero(r2)


t, c, u, v = sp.symbols("t c u v", positive=True)


@pytest.mark.parametrize("cos_t, t_minus, u_minus, near_root", [
    # cos > 0 with u_minus <= t_minus^2 / 2: numerators from (t_minus, u_minus)
    (c, sp.sqrt(2 * u + v), u, True),
    # cos > 0 with u_minus > t_minus^2 / 2: numerators from C'
    (c, sp.sqrt(u), u / 2 + v, False),
    # cos < 0: the unrationalized branch
    (-c, sp.sqrt(u), v, None),
], ids=["near-root", "C-prime", "cos-negative"])
def test_H_solves_the_phase_ode(cos_t, t_minus, u_minus, near_root):
    """dhym's H and H' on each branch are t cot - sqrt((cot^2 + 1)(t^2 + C'))
    and its derivative, and they solve the constant-phase ODE.  On the
    near-root branch this proves -(t sin)^2 - C' =
    (t_minus - t sin)(t_minus + t sin) - u_minus and cos^2 C' - (t sin)^2 =
    cos^2 u_minus - (cos t_minus)^2 - (t sin)^2, with u_minus = t_minus^2 + C'.
    """
    sin_t = sp.sqrt(1 - c ** 2)
    sol = SimpleNamespace(cos_theta=cos_t, sin_theta=sin_t, t_minus=t_minus,
                          u_minus=u_minus, Cprime=u_minus - t_minus ** 2,
                          sign=1.0, bundle=SimpleNamespace(conjugated=False))
    if near_root is not None:
        assert bool(dhym._near_root(sol)) is near_root
    root = sp.sqrt(dhym.radicand(sol, t))
    ts = t * sin_t
    H, Hp = dhym._H_of(sol, t, root, ts), dhym._H_deriv_of(sol, t, root, ts)
    textbook = (t * cos_t - sp.sqrt(t ** 2 + sol.Cprime)) / sin_t
    assert is_zero(H - textbook)
    assert is_zero(Hp - sp.diff(textbook, t))
    assert is_zero(dhym.ode_residual_of(sol, t, H, Hp, ts))
