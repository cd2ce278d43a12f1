"""Explicit constant-phase solution: values, residuals, degenerations."""

import dataclasses
import math

import numpy as np
import pytest

from dhym_ruled import (
    BundleClass,
    DomainError,
    NoSolutionError,
    boundary_targets,
    canonicalize,
    conical_coefficients,
    eval_H,
    eval_phi,
    eval_psi,
    make_surface,
    phase_and_radius,
    pose,
    scalar_residual,
    solve_dhym,
)
from dhym_ruled.dhym import H_pair_of, check_domain, default_grid, radicand
from dhym_ruled import oracle

from conftest import draw_stable
from second_forms import (
    eval_H_deriv, eval_nu, eval_psi_deriv, finite_difference, ode_residual_H)


def test_integration_constants_showcase(figure1):
    s, b = figure1
    pr = pose(s, b)
    C, Cprime = pr.C, pr.Cprime
    assert Cprime == pytest.approx(-124.0 / 5.0, rel=1e-14)
    phase_sin = 2.0 / math.sqrt(5.0)
    assert C == pytest.approx(Cprime / phase_sin, rel=1e-14)


def test_solve_showcase(figure1):
    s, b = figure1
    sol = solve_dhym(s, b)
    assert sol is pose(s, b)
    assert sol.regularity == "smooth"
    assert sol.cos_theta / sol.sin_theta == pytest.approx(0.5, rel=1e-14)
    assert (sol.t_minus, sol.t_plus) == (5.0, 7.0)
    # midpoint value worked out by hand: 3 - sqrt(14)
    assert eval_H(sol, 6.0) == pytest.approx(3.0 - math.sqrt(14.0), rel=1e-14)
    assert eval_nu(sol, s, b, 6.0) == pytest.approx(
        -6.0 + 35.0 / 6.0 - 3.0 + math.sqrt(14.0), rel=1e-12
    )


def test_boundary_targets(figure1):
    s, b = figure1
    tm, tp = boundary_targets(s, b)
    assert (tm, tp) == (2.0, -2.0)
    sol = solve_dhym(s, b)
    assert eval_H(sol, sol.t_minus) == pytest.approx(tm, abs=1e-12)
    assert eval_H(sol, sol.t_plus) == pytest.approx(tp, abs=1e-12)
    # potential difference vanishes at both ends
    assert eval_nu(sol, s, b, sol.t_minus) == pytest.approx(0.0, abs=1e-12)
    assert eval_nu(sol, s, b, sol.t_plus) == pytest.approx(0.0, abs=1e-12)


def test_unstable_raises():
    s = make_surface(1, 0, 2)  # x = 1/3
    with pytest.raises(NoSolutionError):
        solve_dhym(s, BundleClass(k1=-1.0, k2=1.0))


def test_unstable_closed_form_misses_target():
    # in the unstable regime the closed form exists pointwise but fails the
    # t_minus boundary condition: that failure is the content of instability
    s = make_surface(1, 0, 2)
    b = BundleClass(k1=-1.0, k2=1.0)
    sol = dataclasses.replace(pose(s, b), t_minus=2.0, t_plus=4.0)
    tm, tp = boundary_targets(s, b)
    assert eval_H(sol, 4.0) == pytest.approx(tp, abs=1e-12)
    assert abs(eval_H(sol, 2.0) - tm) > 0.1


def test_domain_error(figure1):
    s, b = figure1
    sol = solve_dhym(s, b)
    with pytest.raises(DomainError):
        eval_H(sol, 4.9)
    with pytest.raises(DomainError):
        eval_H(sol, np.array([6.0, 7.1]))


def test_check_domain_rejects_nan(figure1):
    s, b = figure1
    sol = solve_dhym(s, b)
    prof = conical_coefficients(s, b, 1.0)
    calls = [
        lambda t: eval_H(sol, t),
        lambda t: eval_psi(prof, t),
        lambda t: eval_psi_deriv(prof, t, 2),
    ]
    slack = 1e-12  # accepted at either end of [5, 7]
    for f in calls:
        for bad in (math.nan, 4.99, 7.01, 5.0 - 2 * slack, 7.0 + 2 * slack):
            for t in (bad, np.array([6.0, bad, 6.5])):
                with pytest.raises(DomainError):
                    f(t)
        assert np.all(np.isfinite(f(np.array([5.0 - slack / 2, 6.0, 7.0 + slack / 2]))))
        assert math.isfinite(f(7.0 + slack / 2))
        assert f(np.array([])).shape == (0,)
    # a 0-d t, as a float, a numpy scalar or a 0-d array, is range-checked
    # from float(t): the same verdicts and clipped values as an array
    for zero_d in (float, np.float64, np.array):
        for bad in (math.nan, 5.0 - 2 * slack, 7.0 + 2 * slack):
            with pytest.raises(DomainError):
                check_domain(sol, zero_d(bad))
        for t, want in ((5.0 - slack / 2, 5.0), (7.0 + slack / 2, 7.0), (6.0, 6.0)):
            got = check_domain(sol, zero_d(t))
            assert got.ndim == 0 and got.dtype == float and float(got) == want
            assert got.tobytes() == check_domain(sol, np.array([t])).tobytes()


@pytest.mark.parametrize("beta0", [1.0, 0.5])
def test_slack_band_gives_the_end_values(figure1, beta0):
    """A point in the accepted slack just outside an end is that end: every
    evaluator gives bitwise its value there, in an array and as a scalar."""
    s, b = figure1
    sol = solve_dhym(s, b)
    prof = conical_coefficients(s, b, beta0)
    calls = {
        "eval_H": lambda t: eval_H(sol, t),
        "ode_residual_H": lambda t: ode_residual_H(sol, t),
        "eval_nu": lambda t: eval_nu(sol, s, b, t),
        "eval_phi": lambda t: eval_phi(prof, t),
        "phase_and_radius": lambda t: phase_and_radius(prof, s, b, sol, t),
        "scalar_residual": lambda t: scalar_residual(prof, s, b, t),
        **{f"eval_psi_deriv order {n}": lambda t, n=n: eval_psi_deriv(prof, t, n)
           for n in range(5)},
    }
    ends = np.array([sol.t_minus, 6.0, sol.t_plus])
    outside = np.array([sol.t_minus - 5e-13, 6.0, sol.t_plus + 5e-13])
    for name, f in calls.items():
        assert np.asarray(f(outside)).tobytes() == np.asarray(f(ends)).tobytes(), name
        for i in (0, 2):
            got, want = f(float(outside[i])), f(float(ends[i]))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, i)


def _checked_pair(sol, t):
    t = check_domain(sol, t)
    return H_pair_of(sol, t, np.sqrt(radicand(sol, t)), t * sol.sin_theta)


def test_H_pair_of_matches_separate_calls(rng, semistable_case):
    """H_pair_of on checked nodes is bitwise (eval_H, eval_H_deriv), on both
    forms of H and at both ends."""
    cases = [semistable_case, *(draw_stable(rng) for _ in range(20))]
    branches = set()
    for s, given in cases:
        for b in (given, BundleClass(k1=-given.k1, k2=-given.k2)):
            sol = solve_dhym(s, b)
            branches.add(sol.cos_theta > 0.0)
            t = default_grid(sol)
            assert t.tobytes() == np.linspace(sol.t_minus, sol.t_plus, 1001).tobytes()
            if sol.regularity == "holder12":
                t = t[1:]  # H' diverges at t_minus
            H, Hp = _checked_pair(sol, t)
            assert H.tobytes() == eval_H(sol, t).tobytes()
            assert Hp.tobytes() == eval_H_deriv(sol, t).tobytes()
            for t0 in (sol.t_plus, float(t[0])):
                got = np.array(_checked_pair(sol, t0))
                want = np.array([eval_H(sol, t0), eval_H_deriv(sol, t0)])
                assert got.tobytes() == want.tobytes()
    assert branches == {True, False}


def test_residual_and_oracle_on_draws(rng):
    for _ in range(25):
        s, b = draw_stable(rng)
        sol = solve_dhym(s, b)
        grid = default_grid(sol)
        assert np.max(np.abs(ode_residual_H(sol, grid))) < 1e-10
        tm, tp = boundary_targets(s, canonicalize(b))
        assert abs(eval_H(sol, sol.t_minus) - tm) < 1e-10
        assert abs(eval_H(sol, sol.t_plus) - tp) < 1e-10
        # independent RK4 integration from the t_plus boundary value
        g = oracle.rk4_solve_phase_ode(
            sol.cos_theta, sol.sin_theta, sol.t_plus, tp, sol.t_minus + 1e-3, 1e-4
        )
        assert np.max(np.abs(g.values - eval_H(sol, g.nodes))) < 1e-8


def test_deriv_matches_finite_difference(figure1):
    s, b = figure1
    sol = solve_dhym(s, b)
    for t in (5.3, 6.0, 6.7):
        fd = finite_difference(lambda u: eval_H(sol, u), t, 1, 1e-5)
        assert eval_H_deriv(sol, t) == pytest.approx(fd, abs=1e-7)


def test_semistable_radicand_and_holder(semistable_case):
    s, b = semistable_case
    sol = solve_dhym(s, b)
    assert sol is pose(s, b) and sol.regularity == "holder12"
    # C' carries its rounding; the radicand at t_minus is exactly 0
    assert sol.u_minus == 0.0
    assert sol.Cprime == pytest.approx(-16.0, rel=1e-14)
    assert sol.t_minus == 4.0
    # log-log slope of |H(t) - H(t_minus)| against t - t_minus
    eps = np.logspace(-8, -2, 25)
    dev = np.abs(eval_H(sol, sol.t_minus + eps) - eval_H(sol, sol.t_minus))
    slope = np.polyfit(np.log(eps), np.log(dev), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.02)


def test_symmetry_mirror(rng):
    for _ in range(25):
        s, b = draw_stable(rng)
        b = canonicalize(b)
        bm = BundleClass(k1=-b.k1, k2=-b.k2)
        sol = solve_dhym(s, b)
        solm = solve_dhym(s, bm)
        assert solm.bundle.conjugated
        t = np.linspace(sol.t_minus, sol.t_plus, 101)
        assert np.max(np.abs(eval_H(solm, t) + eval_H(sol, t))) < 1e-12
        assert np.max(np.abs(ode_residual_H(solm, t))) < 1e-10
        # mirrored targets are hit by the mirrored evaluation
        tmm, tpm = boundary_targets(s, canonicalize(bm))
        assert abs(eval_H(solm, sol.t_minus) - tmm) < 1e-10
        assert abs(eval_H(solm, sol.t_plus) - tpm) < 1e-10


def test_perturbed_constant_fails_residual(figure1):
    # the residual check must reject a wrong integration constant
    s, b = figure1
    sol = solve_dhym(s, b)
    Cprime_bad = sol.Cprime * (1.0 + 1e-6)
    bad = dataclasses.replace(
        sol, Cprime=Cprime_bad, u_minus=sol.t_minus ** 2 + Cprime_bad)
    tm, _ = boundary_targets(s, b)
    assert abs(eval_H(bad, sol.t_minus) - tm) > 1e-8
