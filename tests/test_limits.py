"""Scaled families and the zero / infinite slope limits."""

import math
import warnings

import numpy as np
import pytest

from dhym_ruled import (
    BundleClass,
    NoSolutionError,
    ValidationError,
    canonicalize,
    eval_H,
    make_surface,
    scaled_solution,
    solve_dhym,
    stability_margin,
)
from dhym_ruled import limits

from conftest import draw_stable


@pytest.fixture
def small_radius_base():
    return make_surface(1, 0, 5), BundleClass(k1=-2.0, k2=-1.0)


def test_identity_scaling(figure1):
    s, b = figure1
    sol1, prof1 = scaled_solution(s, b, 1.0)
    sol0 = solve_dhym(s, b)
    assert sol1.Cprime == pytest.approx(sol0.Cprime, rel=1e-14)
    assert sol1.cot_theta == pytest.approx(sol0.cot_theta, rel=1e-14)
    assert prof1.alpha == pytest.approx(
        limits.smooth_coefficients(s, b).alpha, rel=1e-14
    )


def test_small_alpha_always_stable(figure1):
    s, b = figure1
    sol, _ = scaled_solution(s, b, 0.01)
    assert sol.regularity == "smooth"


def test_large_alpha_unstable_when_sum_vanishes(figure1):
    # (k1 + k2) = 0: the inequality eventually fails as alpha' grows
    s, b = figure1
    with pytest.raises(NoSolutionError) as exc:
        scaled_solution(s, b, 100.0)
    assert "100" in str(exc.value)


def test_scaled_Cprime_consistency(rng):
    for _ in range(20):
        s, b = draw_stable(rng)
        for a in (0.5, 1.0, 2.0):
            if stability_margin(s, canonicalize(
                BundleClass(k1=a * canonicalize(b).k1, k2=a * canonicalize(b).k2)
            )) <= 0:
                continue
            sol, _ = scaled_solution(s, b, a)
            want = limits.scaled_Cprime(s, canonicalize(b), a)
            assert sol.Cprime == pytest.approx(want, rel=1e-12)


def test_repeated_scales_give_no_order():
    s = make_surface(1, 0, 5)
    for check, k2, alphas in (
        (limits.large_radius_check, 1.0, [1e-1, 1e-1]),
        (limits.small_radius_check, -2.0, [1e3, 1e3]),
    ):
        b = BundleClass(k1=-1.0, k2=k2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check(limits.build_family(s, b, alphas))
            assert rep.sup_errors[0] > 0 and math.isnan(rep.order)
            # one more distinct scale is enough for a fit
            rep = check(limits.build_family(s, b, [*alphas, 10 * alphas[0]]))
            assert math.isfinite(rep.order)


def test_validation():
    s = make_surface(1, 0, 5)
    with pytest.raises(ValidationError):
        scaled_solution(s, BundleClass(k1=-1.0, k2=1.0), -1.0)


def test_large_radius_report(figure1):
    s, b = figure1
    fam = limits.build_family(s, b, [1e-1, 1e-2, 1e-3, 1e-4])
    rep = limits.large_radius_check(fam)
    # the sup errors decay at least at first order (the expansion's O(alpha')
    # remainder bound; the symmetric structure actually gives second order)
    assert rep.order >= 0.9
    assert rep.sup_errors[-1] < rep.sup_errors[0]
    # limit coupling constant for the showcase class: -5/6
    assert rep.constants["alpha_tilde"] == pytest.approx(-5.0 / 6.0, rel=1e-13)
    est = rep.constants["alpha_tilde_estimates"]
    assert est[-1] == pytest.approx(-5.0 / 6.0, rel=1e-3)
    # trace of the limit curvature is t-independent: the HYM datum
    assert rep.constants["mu_spread"] < 1e-6
    assert rep.constants["mu_mean"] == pytest.approx(2.0 * b.k1, rel=1e-12)
    # scaled potentials go to zero uniformly
    assert rep.constants["nu_sup"][-1] < 1e-6
    # profiles are sup-norm Cauchy at the small end of the family
    assert rep.constants["profile_cauchy_gap"] < 1e-6


def test_small_radius_constants(small_radius_base):
    s, b = small_radius_base
    C_hat, branch, K = limits.small_radius_constants(s, b)
    assert C_hat == pytest.approx(2584.0 / 9.0, rel=1e-13)
    assert branch == 1
    want = 6.0 + math.sqrt(36.0 + 2584.0 / 9.0)
    assert K(6.0) == pytest.approx(want, rel=1e-13)


def test_small_radius_constants_degenerate():
    s = make_surface(1, 0, 5)
    with pytest.raises(ValidationError):
        limits.small_radius_constants(s, BundleClass(k1=-1.0, k2=-1.0))
    # failing the strengthened inequality
    with pytest.raises(NoSolutionError):
        limits.small_radius_constants(make_surface(1, 0, 1), BundleClass(k1=-1.0, k2=1.05))


def test_small_radius_report(small_radius_base):
    s, b = small_radius_base
    fam = limits.build_family(s, b, [1e2, 1e3, 1e4])
    rep = limits.small_radius_check(fam)
    assert rep.order >= 0.9
    # pointwise limit value at t = 6 from the largest sample
    sol, _ = fam.solutions[-1]
    gamma = (b.k1 ** 2 - b.k2 ** 2) / (2.0 * b.k1)
    want = gamma * (6.0 + math.sqrt(36.0 + 2584.0 / 9.0))
    got = eval_H(sol, 6.0) / 1e4
    assert got == pytest.approx(want, rel=1e-2)
    # limit form ratio is t-independent
    assert rep.constants["c1_spread_rel"] < 1e-6
    assert rep.constants["c1_mean"] == pytest.approx(1.0 / (2.0 * gamma), rel=1e-12)
    # rescaled couplings converge to the closed-form limit
    est = rep.constants["alpha_scaled_estimates"]
    assert est[-1] == pytest.approx(rep.constants["alpha_scaled_limit"], rel=1e-3)


def test_monotone_stability(rng):
    # if the larger scale is stable and (k1+k2)^2 > x (k1-k2)^2, every
    # smaller scale is stable too
    for _ in range(50):
        s, b = draw_stable(rng)
        b = canonicalize(b)
        if (b.k1 + b.k2) ** 2 <= s.x * (b.k1 - b.k2) ** 2:
            continue
        a2 = float(np.random.default_rng(abs(hash((s.k, b.k1))) % 2 ** 31).uniform(0.5, 3.0))
        a1 = 0.5 * a2
        m2 = stability_margin(s, BundleClass(k1=a2 * b.k1, k2=a2 * b.k2))
        m1 = stability_margin(s, BundleClass(k1=a1 * b.k1, k2=a1 * b.k2))
        if m2 > 0:
            assert m1 > 0


def test_scaled_family_residuals(figure1):
    # each member of the family is an ordinary verified instance
    from dhym_ruled import ode_residual_H
    from dhym_ruled.coupled import eval_psi

    s, b = figure1
    fam = limits.build_family(s, b, [0.5, 1.1])
    for (sol, prof) in fam.solutions:
        t = np.linspace(sol.t_minus, sol.t_plus, 101)
        assert np.max(np.abs(ode_residual_H(sol, t))) < 1e-10
        assert abs(eval_psi(prof, prof.t_minus)) < 1e-10
        assert abs(eval_psi(prof, prof.t_plus)) < 1e-10
