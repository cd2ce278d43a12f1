"""Twisted Kaehler-Einstein reduction: matching functions and cone-angle solve.

The identities between the forms of the reduction are proved in
test_certificate.py; the second forms themselves, and the Ricci class, are
in second_forms.py.
"""

import math

import numpy as np
import pytest

from dhym_ruled import (
    BundleClass,
    TkeNotFoundError,
    ValidationError,
    conical_coefficients,
    make_surface,
)
from dhym_ruled import tke
from dhym_ruled.coupled import beta_infinity
from dhym_ruled.errors import PoleError

from conftest import draw_surface
from second_forms import (
    class_equations,
    condition_second_form,
    finite_difference,
    ricci_class,
)


@pytest.fixture
def fig2_surface():
    return make_surface(1, 6, 1)


@pytest.fixture
def fig2_class():
    return BundleClass(k1=-1.0, k2=-1.0)


def test_H_beta_closed_form(fig2_surface):
    s = fig2_surface
    # for k = k' = 1, h = 6 the matching function is (4 beta - 16)/(2 - 9 beta)
    for beta in np.linspace(0.0, 1.0, 21):
        if abs(2.0 - 9.0 * beta) < 1e-9:
            continue
        want = (4.0 * beta - 16.0) / (2.0 - 9.0 * beta)
        assert tke.H_beta(s.k, s.kprime, s.h, float(beta)) == pytest.approx(
            want, rel=1e-12
        )
    assert tke.H_beta(1, 1.0, 6, 1.0) == pytest.approx(12.0 / 7.0, rel=1e-14)
    with pytest.raises(PoleError):
        tke.H_beta(1, 1.0, 6, 2.0 / 9.0)


@pytest.mark.parametrize("k, kprime, h", [(1, 1.0, 6), (3, 9.0, 2), (2, 0.5, 0)])
def test_H_beta_grid_matches_scalar_calls(k, kprime, h):
    beta = np.linspace(0.0, 1.0, 10)
    values, pole = tke._H_beta_values(k, kprime, h, beta)
    for b, v, p in zip(beta.tolist(), values.tolist(), pole.tolist()):
        if p:
            with pytest.raises(PoleError):
                tke.H_beta(k, kprime, h, b)
        else:
            assert v == tke.H_beta(k, kprime, h, b)
        value, at_pole = tke._H_beta_values(k, kprime, h, b)
        assert at_pole == p and (math.isnan(value) if p else value == v)
    assert pole.any() == ((k, kprime, h) == (1, 1.0, 6))


def test_pole_guard_at_large_kprime_over_k():
    """The pole test scales with the terms of the denominator at each beta:
    for k'/k = 1e12 the asymptote lies 7e-13 below 1, and H(1) and the
    floats next to the asymptote are values, not the pole."""
    k, h, kprime = 1, 0, 1e12
    a = 2.0 * (1 - h) / (k + kprime)
    assert tke.H_beta(k, kprime, h, 1.0) == pytest.approx(
        2.0 * (a - 1.0) / (a - 2.0), rel=1e-14
    )
    beta_bar = tke.beta_asymptote(k, kprime, h)
    assert 1.0 - beta_bar == pytest.approx((2.0 - a) / (3.0 * kprime / k + 6.0), rel=1e-3)
    # one float step moves the denominator by about 3e12 * 1.1e-16 = 3e-4, so
    # no float is within rounding of the pole
    for beta in (beta_bar, np.nextafter(beta_bar, 0.0), np.nextafter(beta_bar, 1.0)):
        assert math.isfinite(tke.H_beta(k, kprime, h, float(beta)))
    _, pole = tke._H_beta_values(k, kprime, h, np.linspace(0.0, 1.0, 101))
    assert not pole.any()


@pytest.mark.parametrize("call", [
    lambda: tke.H_beta(1, 1e308, 0, 1.0),
    lambda: tke.H_beta(1, 1e308, 0, 0.5),
    lambda: tke._H_beta_values(1, 1e308, 0, np.linspace(0.0, 1.0, 5)),
    lambda: tke.H_beta(1, 1e-309, 0, 0.5),
    lambda: tke._H_beta_values(1, 1e-309, 0, np.linspace(0.0, 1.0, 5)),
], ids=["large-beta1", "large-beta0.5", "large-grid", "small-beta0.5", "small-grid"])
def test_H_beta_rejects_a_surface_out_of_double_range(call):
    """Where 3 k'/k or 2 k/k' overflows, H would read NaN, -0.0 or -inf with
    a RuntimeWarning at most; the matching curve raises instead, on every
    path."""
    with pytest.raises(ValidationError, match="kprime / k"):
        call()


def test_beta_asymptote(fig2_surface):
    s = fig2_surface
    # rational check: beta_bar = 2/9 exactly for (1, 1, 6)
    assert tke.beta_asymptote(s.k, s.kprime, s.h) == pytest.approx(
        2.0 / 9.0, abs=1e-15
    )


@pytest.mark.parametrize("beta0", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_analyze_rejects_beta0_outside_unit_interval(fig2_surface, fig2_class, beta0):
    with pytest.raises(ValidationError):
        tke.analyze(fig2_surface, fig2_class, beta0)


def test_solve_beta0(fig2_surface, fig2_class):
    beta0 = tke.solve_beta0(fig2_surface, fig2_class)
    assert beta0 == pytest.approx(42.0 / 53.0, rel=1e-14)
    assert abs(tke.condition_residual(fig2_surface, fig2_class, beta0)) < 1e-9


def test_d1_vanishes_at_solution(fig2_surface, fig2_class):
    # the reduction is characterized by the vanishing of the linear
    # coefficient of the profile
    beta0 = tke.solve_beta0(fig2_surface, fig2_class)
    p = conical_coefficients(fig2_surface, fig2_class, beta0)
    assert abs(p.d1) < 1e-8


def test_condition_forms_proportional_at_zero(fig2_surface, fig2_class):
    beta0 = tke.solve_beta0(fig2_surface, fig2_class)
    assert abs(tke.condition_residual(fig2_surface, fig2_class, beta0)) < 1e-9
    assert abs(condition_second_form(fig2_surface, fig2_class, beta0)) < 1e-9


def test_system_residuals_vanish_at_solution(fig2_surface, fig2_class):
    beta0 = tke.solve_beta0(fig2_surface, fig2_class)
    r1, r2 = class_equations(fig2_surface, fig2_class, beta0)
    assert abs(r1) < 1e-9
    assert abs(r2) < 1e-9


def test_solve_requires_negative_k2(fig2_surface):
    with pytest.raises(ValidationError):
        tke.solve_beta0(fig2_surface, BundleClass(k1=-1.0, k2=1.0))


def test_solve_unattainable_target():
    # with enough genus the asymptote leaves (0, 1)
    s = make_surface(1, 20, 1)
    with pytest.raises(TkeNotFoundError) as exc:
        tke.solve_beta0(s, BundleClass(k1=-1.0, k2=-1.0))
    assert exc.value.attained is None


@pytest.mark.parametrize("cls, why", [
    # F - 2 = (1 + (k1 - k2)^2) / (2 k1 k2) rounds to 0
    ((1, 6, 1.0, -1e9, -1e9), "F <= 2"),
    # beta0 lies within 2 / (2B + F E) ~ 1e-16 of 1 and rounds to it
    ((1, 1, 5e15, -1e4, -1e4), "beta0 >= 1"),
])
def test_solve_target_outside_the_range(cls, why):
    k, h, kprime, k1, k2 = cls
    s, b = make_surface(k, h, kprime), BundleClass(k1=k1, k2=k2)
    with pytest.raises(TkeNotFoundError) as exc:
        tke.solve_beta0(s, b)
    low, high = exc.value.attained
    assert (exc.value.f_value <= 2.0) == (why == "F <= 2")
    # H decreases from +inf at the asymptote to H(1) = 2 (a - 1) / (a - 2)
    a = 2.0 * (1 - h) / (k + kprime)
    assert (low, high) == (2.0 * (a - 1.0) / (a - 2.0), math.inf)


#: (k, h, k', k1, k2) with k'/k above 1e12 and large |k1|, |k2|: the terms
#: condition_residual adds lie far above 1e9, and the closed-form cone angle
#: leaves a residual of about 1e-16 of their magnitudes
LARGE_RATIO_CLASSES = [
    (1, 1, 46216627321054.914, -67820.39404729864, -67820.39404729864),
    (2, 0, 1930067941550.9297, -6784844.636672999, -6791629.481309671),
]


def _term_magnitudes(s, b, beta0):
    p, left, q, right = tke._condition_terms(s, b, beta0)
    return abs(p) * sum(map(abs, left)) + abs(q) * sum(map(abs, right))


@pytest.mark.parametrize("cls", LARGE_RATIO_CLASSES)
def test_solve_beta0_at_large_kprime_over_k(cls):
    k, h, kprime, k1, k2 = cls
    s, b = make_surface(k, h, kprime), BundleClass(k1=k1, k2=k2)
    beta0 = tke.solve_beta0(s, b)
    assert tke.beta_asymptote(k, kprime, h) < beta0 < 1.0
    residual = tke.condition_residual(s, b, beta0)
    # far above the absolute 1e-9 max(1, F), far below the relative bound
    assert abs(residual) > 1e-9 * tke.F_value(b)
    assert abs(residual) < 1e-16 * _term_magnitudes(s, b, beta0)
    assert abs(residual) <= tke._residual_bound(s, b, beta0)


def test_residual_bound_rejects_a_wrong_cone_angle():
    """Halfway between the asymptote and the cone angle the residual is
    8.6e-14 of the term magnitudes, above 64 rounding steps."""
    k, h, kprime, k1, k2 = LARGE_RATIO_CLASSES[1]
    s, b = make_surface(k, h, kprime), BundleClass(k1=k1, k2=k2)
    beta0 = tke.solve_beta0(s, b)
    wrong = 0.5 * (tke.beta_asymptote(k, kprime, h) + beta0)
    assert wrong != beta0
    residual = tke.condition_residual(s, b, wrong)
    assert abs(residual) / _term_magnitudes(s, b, wrong) == pytest.approx(8.6e-14, rel=0.01)
    assert abs(residual) > tke._residual_bound(s, b, wrong)


def test_residual_bound_unchanged_on_small_classes(rng, fig2_surface, fig2_class):
    cases = [(fig2_surface, fig2_class)]
    cases += [(draw_surface(rng), BundleClass(k1=-float(rng.uniform(0.2, 3.0)),
                                              k2=-float(rng.uniform(0.2, 3.0))))
              for _ in range(200)]
    for s, b in cases:
        for beta0 in (0.1, 0.5, 1.0):
            assert tke._residual_bound(s, b, beta0) == 1e-9 * max(1.0, tke.F_value(b))


def test_cone_angle_compatibility(rng):
    # class-level compatibility: 2(k + k') = (2k + k') beta0 + k' beta_inf,
    # the closed relation tying the two cone angles
    for _ in range(100):
        s = draw_surface(rng)
        beta0 = float(rng.uniform(0.05, 1.0))
        beta_inf = beta_infinity(s.x, beta0)
        lhs = 2.0 * (s.k + s.kprime)
        rhs = (2.0 * s.k + s.kprime) * beta0 + s.kprime * beta_inf
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_H_decreasing_near_one(fig2_surface):
    s = fig2_surface
    d = finite_difference(
        lambda beta: tke.H_beta(s.k, s.kprime, s.h, beta), 0.9, 1, 1e-6
    )
    assert d < 0


def test_analyze(fig2_surface, fig2_class):
    a = tke.analyze(fig2_surface, fig2_class, 42.0 / 53.0)
    assert a.F_value == pytest.approx(2.5, rel=1e-14)
    assert a.H_at_1 == pytest.approx(12.0 / 7.0, rel=1e-14)
    assert a.beta_bar == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert abs(a.condition_residual) < 1e-12


def test_ricci_class(fig2_surface):
    s = fig2_surface
    beta0 = 42.0 / 53.0
    beta_inf = beta_infinity(s.x, beta0)
    c = ricci_class(s, beta0, beta_inf)
    assert c.a == pytest.approx(beta0 + beta_inf, rel=1e-14)
    assert c.b == pytest.approx(2.0 * (1 - s.h) - s.k * beta_inf, rel=1e-14)
