"""Profile polynomial, coupling constants, residuals, positivity."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dhym_ruled import (
    BundleClass,
    NoSolutionError,
    ValidationError,
    canonicalize,
    conical_alpha,
    conical_coefficients,
    eval_phi,
    eval_psi,
    make_surface,
    phase_and_radius,
    positivity_certificate,
    scalar_residual,
    smooth_alpha,
    solve_dhym,
)
from dhym_ruled.coupled import (
    PositivityReport,
    average_radius_quadrature,
    beta_infinity,
)
from dhym_ruled.dhym import default_grid
from dhym_ruled.limits import scaled_class, scaled_solution
from dhym_ruled.params import phase_constant

from conftest import draw_stable
from second_forms import certificate_pass, eval_psi_deriv, psi_pp_difference_closed_form


FIG1_COEFFS = {
    # beta0 -> (d0, d1, c3, cR); transcribed from the plotted expressions
    1.0: (-158.0, 455.0 / 12.0, -47.0 / 72.0, 5.0 * math.sqrt(5.0) / 72.0),
    0.5: (102.40, -46.9583, 95.0 / 144.0, -0.822997),
    0.1: (310.72, -114.858, 1.70972, -1.60562),
}


@pytest.mark.parametrize("beta0", [1.0, 0.5, 0.1])
def test_figure_coefficients(figure1, beta0):
    s, b = figure1
    p = conical_coefficients(s, b, beta0)
    d0, d1, c3, cR = FIG1_COEFFS[beta0]
    assert p.d0 == pytest.approx(d0, rel=5e-5)
    assert p.d1 == pytest.approx(d1, rel=5e-5)
    assert p.c3 == pytest.approx(c3, rel=5e-5)
    assert p.cR == pytest.approx(cR, rel=5e-5)
    assert p.c2 == s.s_sigma
    assert p.sol.Cprime == pytest.approx(-124.0 / 5.0, rel=1e-14)


def test_coupling_constants(figure1):
    s, b = figure1
    assert smooth_alpha(s, b) == pytest.approx(-math.sqrt(5.0) / 6.0, rel=1e-13)
    assert conical_alpha(s, b, 0.5) == pytest.approx(
        53.0 * math.sqrt(5.0) / 60.0, rel=1e-13
    )
    # the conical formula contains the smooth one at beta0 = 1
    assert conical_alpha(s, b, 1.0) == pytest.approx(smooth_alpha(s, b), rel=1e-12)


def test_beta_infinity(figure1):
    s, _ = figure1
    assert beta_infinity(s.x, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_infinity(s.x, 0.5) == pytest.approx(1.7, rel=1e-13)


def test_boundary_conditions(figure1, rng):
    s, b = figure1
    for beta0 in (1.0, 0.5, 0.1):
        p = conical_coefficients(s, b, beta0)
        assert abs(eval_psi(p, p.sol.t_minus)) < 1e-10
        assert abs(eval_psi(p, p.sol.t_plus)) < 1e-10
        assert eval_psi_deriv(p, p.sol.t_plus, 1) == pytest.approx(
            -2.0 * beta0 * p.sol.t_plus, abs=1e-9
        )
        assert eval_psi_deriv(p, p.sol.t_minus, 1) == pytest.approx(
            2.0 * p.beta_inf * p.sol.t_minus, abs=1e-9
        )
        # profile vanishes at the endpoints as well
        assert abs(eval_phi(p, p.sol.t_minus)) < 1e-9
        assert abs(eval_phi(p, p.sol.t_plus)) < 1e-9


def test_scalar_residual_small(figure1):
    s, b = figure1
    for beta0 in (1.0, 0.5, 0.1):
        p = conical_coefficients(s, b, beta0)
        t = np.linspace(p.sol.t_minus, p.sol.t_plus, 1001)[1:-1]
        assert np.max(np.abs(scalar_residual(p, s, b, t))) < 1e-9


def test_scalar_residual_blind_to_affine_part(figure1):
    # the affine part of psi is in the kernel of the second derivative, so
    # a wrong d1 must be caught by the boundary checks, not this residual
    s, b = figure1
    p = conical_coefficients(s, b, 1.0)
    bad = replace(p, d1=p.d1 + 1.0)
    t = np.linspace(p.sol.t_minus, p.sol.t_plus, 101)[1:-1]
    assert np.max(np.abs(scalar_residual(bad, s, b, t))) < 1e-9
    assert abs(eval_psi(bad, p.sol.t_plus)) > 1.0


def test_psi_pp_difference_closed_form(figure1):
    s, b = figure1
    for beta0 in (1.0, 0.5, 0.9):
        p = conical_coefficients(s, b, beta0)
        want = eval_psi_deriv(p, p.sol.t_minus, 2) - eval_psi_deriv(p, p.sol.t_plus, 2)
        got = psi_pp_difference_closed_form(s, b, beta0)
        assert got == pytest.approx(want, rel=1e-10)


def test_psi_pp_difference_hand_values(figure1):
    s, b = figure1
    assert psi_pp_difference_closed_form(s, b, 1.0) == pytest.approx(
        896.0 / 33.0, rel=1e-12
    )
    assert psi_pp_difference_closed_form(s, b, 0.5) == pytest.approx(
        -3640.0 / 33.0, rel=1e-12
    )


def smooth_d0_d1_closed_form(s, b):
    """Closed-form d0, d1 of the smooth profile of a strictly stable class."""
    b = canonicalize(b)
    x, ss, k1, k2 = s.x, s.s_sigma, b.k1, b.k2
    B2 = 1.0 + (k1 - k2) ** 2
    d0 = -(
        (-2.0 + ss * x)
        * (-3.0 - 3.0 * k1 ** 2 - 2.0 * k1 * k2 - 3.0 * k2 ** 2 + 3.0 * B2 * x ** 2)
    ) / (3.0 * B2 * x ** 3)
    d1 = -(
        (-2.0 * (1.0 + k1 ** 2 + k2 ** 2) + B2 * ss * x) * (-1.0 + x ** 2)
    ) / (4.0 * k1 * k2 * x ** 2)
    return d0, d1


def test_boundary_system_matches_smooth_closed_form():
    """d0, d1 of the boundary system agree with their closed form.

    Every other draw is scaled by alpha' in [1e-4, 1], where the cubic and
    radical columns of the system nearly cancel; the tolerance adds the
    system's rounding floor, eps times the size of those columns.
    """
    rng = np.random.default_rng(20261019)
    for i in range(240):
        s, b = draw_stable(rng)
        if i % 2:
            b = scaled_class(canonicalize(b), 10.0 ** rng.uniform(-4.0, 0.0))
        p = conical_coefficients(s, b, 1.0)
        d0, d1 = smooth_d0_d1_closed_form(s, b)
        u = p.sol.t_plus ** 2 + p.sol.Cprime
        floor = 1e-14 * (abs(p.c3) * p.sol.t_plus ** 3 + abs(p.cR) * u ** 1.5)
        tol = 1e-9 * max(abs(d0), abs(d1), 1.0) + floor
        assert abs(p.d0 - d0) <= tol and abs(p.d1 - d1) <= tol, (s, b)


def test_exact_boundary_solve_reproduces_profile(figure1):
    # build the psi(t_pm) = 0 system directly and solve it exactly
    s, b = figure1
    for beta0, want_d0, want_d1 in (
        (1.0, -158.0, 455.0 / 12.0),
        (0.1, 310.72, -114.858),
    ):
        p = conical_coefficients(s, b, beta0)
        rhs = []
        for t in (p.sol.t_minus, p.sol.t_plus):
            u = t ** 2 + p.sol.Cprime
            rhs.append(-(p.c2 * t ** 2 + p.c3 * t ** 3 + p.cR * u ** 1.5))
        # d0 + d1 t_pm = rhs_pm in rationals, from the rounded data
        t_minus, t_plus = Fraction(p.sol.t_minus), Fraction(p.sol.t_plus)
        r_minus, r_plus = Fraction(rhs[0]), Fraction(rhs[1])
        d1 = (r_plus - r_minus) / (t_plus - t_minus)
        d0 = float(r_minus - d1 * t_minus)
        d1 = float(d1)
        assert d0 == pytest.approx(p.d0, rel=1e-12)
        assert d1 == pytest.approx(p.d1, rel=1e-12)
        assert d0 == pytest.approx(want_d0, rel=5e-5)
        assert d1 == pytest.approx(want_d1, rel=5e-5)


def test_positivity_smooth_convexity(figure1, rng):
    s, b = figure1
    p = conical_coefficients(s, b, 1.0)
    assert p.alpha < 0
    rep = positivity_certificate(p, certificate_pass(p))
    assert rep.method == "ConvexityCertified"
    assert rep.min_value > 0

    # random stable draws with negative coupling certify by convexity too
    for _ in range(15):
        s2, b2 = draw_stable(rng)
        p2 = conical_coefficients(s2, b2, 1.0)
        rep2 = positivity_certificate(p2, certificate_pass(p2))
        if p2.alpha <= 0:
            assert rep2.method == "ConvexityCertified"
        assert rep2.min_value > 0


def test_positivity_grid_verified(figure1):
    s, b = figure1
    p = conical_coefficients(s, b, 0.5)
    assert p.alpha > 0
    rep = positivity_certificate(p, certificate_pass(p))
    assert rep.method == "GridVerified"
    assert rep.min_value > 0
    assert p.sol.t_minus < rep.argmin < p.sol.t_plus


def test_positivity_failure_detected(figure1):
    s, b = figure1
    p = conical_coefficients(s, b, 1.0)
    bad = replace(p, d0=p.d0 - 50.0)
    rep = positivity_certificate(bad, certificate_pass(bad))
    assert rep.method == "Failed"
    assert rep.min_value <= 0


@pytest.mark.parametrize("beta0", [1.0, 0.5])
def test_positivity_nan_minimum_fails(figure1, beta0):
    """A NaN psi is no minimum above 0, on the convexity path (beta0 = 1)
    and the grid path (beta0 = 0.5) alike."""
    s, b = figure1
    bad = replace(conical_coefficients(s, b, beta0), d0=math.nan)
    rep = positivity_certificate(bad, certificate_pass(bad))
    assert rep.method == "Failed"
    assert math.isnan(rep.min_value)


def ternary_positivity(p, num=1001, refine_width=1e-10):
    """The scalar ternary search the array zooms replaced, kept as reference."""
    interior = np.linspace(p.sol.t_minus, p.sol.t_plus, num)[1:-1]
    vals = eval_psi(p, interior)
    i = int(np.argmin(vals))
    lo = interior[max(i - 1, 0)]
    hi = interior[min(i + 1, len(interior) - 1)]
    while hi - lo > refine_width:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if eval_psi(p, m1) <= eval_psi(p, m2):
            hi = m2
        else:
            lo = m1
    argmin = 0.5 * (lo + hi)
    min_value = float(min(np.min(vals), eval_psi(p, argmin)))
    if min_value <= 0.0:
        return PositivityReport(method="Failed", min_value=min_value, argmin=argmin)
    if p.alpha <= 0.0:
        fourth = eval_psi_deriv(p, interior, 4)
        degenerate = p.sol.t_minus ** 2 + p.sol.Cprime <= 0.0
        pp_minus = math.inf if degenerate else eval_psi_deriv(p, p.sol.t_minus, 2)
        pp_plus = eval_psi_deriv(p, p.sol.t_plus, 2)
        if np.all(fourth >= 0.0) and pp_minus > pp_plus:
            return PositivityReport(
                method="ConvexityCertified", min_value=min_value, argmin=argmin
            )
    return PositivityReport(method="GridVerified", min_value=min_value, argmin=argmin)


def largest_basis_term(p):
    """Largest single basis term of psi on [t_-, t_+]; each grows with t."""
    t = p.sol.t_plus
    return max(abs(p.d0), abs(p.d1 * t), abs(p.c2 * t ** 2), abs(p.c3 * t ** 3),
               abs(p.cR) * (t ** 2 + p.sol.Cprime) ** 1.5)


def seeded_profiles(n):
    """Smooth, conical and scaled (alpha' in 1e-4..1) profiles, in turn."""
    rng = np.random.default_rng(20261018)
    out = []
    for i in range(n):
        s, b = draw_stable(rng)
        if i % 3 == 0:
            out.append(conical_coefficients(s, b, 1.0))
        elif i % 3 == 1:
            out.append(conical_coefficients(s, b, float(rng.uniform(0.05, 1.0))))
        else:
            out.append(scaled_solution(s, b, 10.0 ** rng.uniform(-4.0, 0.0)))
    return out


PROFILES = seeded_profiles(240)


def dipped(p):
    """p plus e (t - t_-)(t - t_+), e = 2 max|psi|: a negative interior minimum.

    The profiles themselves are smallest next to an endpoint, where the grid
    already holds the minimum; a dip makes the refinement do the work.
    """
    e = 2.0 * np.max(np.abs(eval_psi(p, np.linspace(p.sol.t_minus, p.sol.t_plus, 101))))
    return replace(p, d0=p.d0 + e * p.sol.t_minus * p.sol.t_plus,
                   d1=p.d1 - e * (p.sol.t_minus + p.sol.t_plus), c2=p.c2 + e)


def test_zoom_never_above_ternary_search():
    compared = 0
    for p in PROFILES:
        if not ternary_positivity(p).min_value > 1e-13 * largest_basis_term(p):
            continue  # psi is rounding noise there; the search order decides
        for q in (p, dipped(p)):
            ref, rep = ternary_positivity(q), positivity_certificate(q, certificate_pass(q))
            assert rep.min_value <= ref.min_value + 1e-15 * largest_basis_term(q), (q, rep, ref)
            assert rep.method == ref.method, (q, rep, ref)
            assert q.sol.t_minus < rep.argmin < q.sol.t_plus
        compared += 1
    assert compared >= 200


def test_end_node_minimum_is_reported_as_scanned():
    """A scan minimum at the first or last interior node has no bracket: the
    report is that node and its grid value, with no zoom below it."""
    ends = 0
    for p in PROFILES:
        t = default_grid(p.sol)[1:-1]
        vals = eval_psi(p, t)
        i = int(np.argmin(vals))
        if i not in (0, len(t) - 1):
            continue
        rep = positivity_certificate(p, certificate_pass(p))
        assert (rep.argmin, rep.min_value) == (float(t[i]), float(vals[i])), p
        ends += 1
    assert ends >= 200


def test_bracketed_minimum_is_refined():
    """A dip between two interior nodes is still zoomed: the reported argmin
    lies off the grid and the minimum is at most the grid minimum."""
    refined = 0
    for p in PROFILES:
        if not ternary_positivity(p).min_value > 1e-13 * largest_basis_term(p):
            continue  # psi is rounding noise there; the search order decides
        q = dipped(p)
        t = default_grid(q.sol)[1:-1]
        vals = eval_psi(q, t)
        i = int(np.argmin(vals))
        assert 0 < i < len(t) - 1
        rep = positivity_certificate(q, certificate_pass(q))
        assert rep.argmin not in t.tolist(), q
        assert rep.min_value <= vals[i], q
        refined += 1
    assert refined >= 200


def test_convexity_condition_is_the_sign_of_cR():
    checked = 0
    for p in PROFILES:
        if p.alpha > 0.0:
            continue
        interior = np.linspace(p.sol.t_minus, p.sol.t_plus, 1001)[1:-1]
        assert (p.cR >= 0.0) == bool(np.all(eval_psi_deriv(p, interior, 4) >= 0.0))
        checked += 1
    assert checked >= 100


def test_phase_and_radius(figure1):
    s, b = figure1
    sol = solve_dhym(s, b)
    for beta0 in (1.0, 0.5):
        p = conical_coefficients(s, b, beta0)
        t = np.linspace(sol.t_minus, sol.t_plus, 201)[1:-1]
        im, re = phase_and_radius(p, s, b, sol, t)
        assert np.max(np.abs(im)) < 1e-12
        assert np.all(re > 0)
        # weighted average of the pointwise radius is the topological radius
        avg = average_radius_quadrature(s, b, sol, p)
        assert avg == pytest.approx(phase_constant(b)[2], rel=1e-9)


def test_validation():
    s = make_surface(1, 0, 5)
    b = BundleClass(k1=-1.0, k2=1.0)
    with pytest.raises(ValidationError):
        conical_coefficients(s, b, 0.0)
    with pytest.raises(ValidationError):
        conical_coefficients(s, b, 1.5)
    with pytest.raises(NoSolutionError):
        conical_coefficients(make_surface(1, 0, 2), b, 1.0)


def test_semistable_profile(semistable_case):
    s, b = semistable_case
    p = conical_coefficients(s, b, 1.0)
    assert p.sol.u_minus == 0.0
    assert p.sol.Cprime == pytest.approx(-16.0, rel=1e-14)
    assert abs(eval_psi(p, 4.0)) < 1e-10
    assert abs(eval_psi(p, 6.0)) < 1e-10
    # C^{1,1/2}: psi' picks up a square-root term at t_minus
    eps = np.logspace(-8, -2, 25)
    base = eval_psi_deriv(p, 4.0, 1)
    dev = np.abs(eval_psi_deriv(p, 4.0 + eps, 1) - base)
    slope = np.polyfit(np.log(eps), np.log(dev), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.02)
    # conical cone angles are rejected on the semistable boundary
    with pytest.raises(ValidationError):
        conical_coefficients(s, b, 0.5)


def test_draw_suite(rng):
    for _ in range(20):
        s, b = draw_stable(rng)
        beta0 = float(rng.uniform(0.2, 1.0))
        p = conical_coefficients(s, b, beta0)
        t = np.linspace(p.sol.t_minus, p.sol.t_plus, 501)[1:-1]
        assert np.max(np.abs(scalar_residual(p, s, b, t))) < 1e-9
        assert abs(eval_psi(p, p.sol.t_minus)) < 1e-10
        assert abs(eval_psi(p, p.sol.t_plus)) < 1e-10


def test_mirror_profiles_identical(rng):
    for _ in range(20):
        s, b = draw_stable(rng)
        b = canonicalize(b)
        bm = BundleClass(k1=-b.k1, k2=-b.k2)
        p = conical_coefficients(s, b, 1.0)
        pm = conical_coefficients(s, bm, 1.0)
        assert pm.alpha == pytest.approx(p.alpha, rel=1e-12)
        assert abs(pm.d0) == pytest.approx(abs(p.d0), rel=1e-12)
        assert abs(pm.d1) == pytest.approx(abs(p.d1), rel=1e-12)
        t = np.linspace(p.sol.t_minus, p.sol.t_plus, 101)
        assert np.max(np.abs(eval_psi(pm, t) - eval_psi(p, t))) < 1e-12 * max(
            1.0, np.max(np.abs(eval_psi(p, t)))
        )
