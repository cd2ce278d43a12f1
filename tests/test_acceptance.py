"""Acceptance gate: ten end-to-end criteria with one pass/fail line each."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dhym_ruled as dr
from dhym_ruled import limits, oracle, tke
from dhym_ruled.dhym import default_grid

from conftest import draw_stable
from second_forms import (
    certificate_pass,
    eval_psi_deriv,
    ode_residual_H,
    psi_pp_difference_closed_form,
)

SEED = 715517


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def stable_draws(n, margin_floor=0.05):
    rng = np.random.default_rng(SEED)
    return [draw_stable(rng, margin_floor) for _ in range(n)]


def test_criterion_1_figure1_coefficients(figure1):
    t0 = time.time()
    s, b = figure1
    expected = {
        1.0: (-158.0, 455.0 / 12.0, -47.0 / 72.0, 5.0 * math.sqrt(5.0) / 72.0),
        0.5: (102.40, -46.959, 0.659722, -0.822997),
        0.1: (310.72, -114.858, 1.70972, -1.60562),
    }
    ok = True
    detail = []
    for beta0, (d0, d1, c3, cR) in expected.items():
        p = dr.conical_coefficients(s, b, beta0)
        for name, got, want in (
            ("d0", p.d0, d0), ("d1", p.d1, d1), ("c3", p.c3, c3),
            ("cR", p.cR, cR), ("Cprime", p.sol.Cprime, -124.0 / 5.0),
        ):
            # five significant digits
            if abs(got - want) > 5e-5 * abs(want):
                ok = False
                detail.append(f"beta0={beta0} {name}: {got} vs {want}")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        ok = False
        detail.append(f"runtime {elapsed:.2f}s")
    report(1, "figure-1 coefficients", ok, "; ".join(detail))


def test_criterion_2_figure2_curve():
    ok = True
    detail = []
    for beta in np.linspace(0.0, 1.0, 21):
        beta = float(beta)
        if abs(2.0 - 9.0 * beta) < 1e-6:
            continue
        want = (4.0 * beta - 16.0) / (2.0 - 9.0 * beta)
        got = tke.H_beta(1, 1.0, 6, beta)
        if abs(got - want) > 1e-12 * abs(want):
            ok = False
            detail.append(f"H({beta})")
    # asymptote as an exact rational
    want_bar = Fraction(4, 3) + 1 + Fraction(2 * (1 - 6), 3 * 2)
    want_bar = want_bar / 3
    if want_bar != Fraction(2, 9):
        ok = False
        detail.append("rational asymptote arithmetic")
    if abs(tke.beta_asymptote(1, 1.0, 6) - float(Fraction(2, 9))) > 1e-15:
        ok = False
        detail.append("beta_bar")
    if abs(tke.H_beta(1, 1.0, 6, 1.0) - 12.0 / 7.0) > 1e-14:
        ok = False
        detail.append("H(1)")
    report(2, "figure-2 matching curve", ok, "; ".join(detail))


def test_criterion_3_dhym_residual_suite():
    draws = stable_draws(200)
    worst_res = worst_rk4 = worst_bdry = 0.0
    for s, b in draws:
        sol = dr.solve_dhym(s, b)
        grid = default_grid(sol)
        worst_res = max(worst_res, float(np.max(np.abs(ode_residual_H(sol, grid)))))
        bc = dr.canonicalize(b)
        tm, tp = dr.boundary_targets(s, bc)
        worst_bdry = max(
            worst_bdry,
            abs(dr.eval_H(sol, sol.t_minus) - tm),
            abs(dr.eval_H(sol, sol.t_plus) - tp),
        )
        g = oracle.rk4_solve_phase_ode(
            sol.cos_theta, sol.sin_theta, sol.t_plus, tp, sol.t_minus + 1e-3, 1e-4
        )
        worst_rk4 = max(
            worst_rk4, float(np.max(np.abs(g.values - dr.eval_H(sol, g.nodes))))
        )
    ok = worst_res < 1e-10 and worst_rk4 < 1e-8 and worst_bdry < 1e-10
    report(
        3, "dhym residual suite", ok,
        f"max residual {worst_res:.2e}, rk4 {worst_rk4:.2e}, boundary {worst_bdry:.2e}",
    )


def test_criterion_4_coupled_residual_suite():
    rng = np.random.default_rng(SEED)
    worst_scalar = worst_psi = worst_slope = worst_im = 0.0
    for _ in range(200):
        s, b = draw_stable(rng)
        beta0 = float(rng.uniform(0.2, 1.0))
        sol = dr.solve_dhym(s, b)
        p = dr.conical_coefficients(s, b, beta0)
        t = np.linspace(p.sol.t_minus, p.sol.t_plus, 1001)[1:-1]
        worst_scalar = max(
            worst_scalar, float(np.max(np.abs(dr.scalar_residual(p, s, b, t))))
        )
        worst_psi = max(
            worst_psi,
            abs(dr.eval_psi(p, p.sol.t_minus)),
            abs(dr.eval_psi(p, p.sol.t_plus)),
        )
        worst_slope = max(
            worst_slope,
            abs(eval_psi_deriv(p, p.sol.t_plus, 1) + 2.0 * beta0 * p.sol.t_plus),
            abs(eval_psi_deriv(p, p.sol.t_minus, 1) - 2.0 * p.beta_inf * p.sol.t_minus),
        )
        im, _ = dr.phase_and_radius(p, s, b, sol, t)
        worst_im = max(worst_im, float(np.max(np.abs(im))))
    ok = (
        worst_scalar < 1e-9
        and worst_psi < 1e-10
        and worst_slope < 1e-9
        and worst_im < 1e-12
    )
    report(
        4, "coupled residual suite", ok,
        f"scalar {worst_scalar:.2e}, psi {worst_psi:.2e}, "
        f"slope {worst_slope:.2e}, im {worst_im:.2e}",
    )


def test_criterion_5_positivity(figure1):
    ok = True
    detail = []
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        s, b = draw_stable(rng)
        p = dr.conical_coefficients(s, b, 1.0)
        if p.alpha >= 0:
            continue
        rep = dr.positivity_certificate(p, certificate_pass(p))
        if rep.method != "ConvexityCertified":
            ok = False
            detail.append(f"method {rep.method} for {s} {b}")
        want = eval_psi_deriv(p, p.sol.t_minus, 2) - eval_psi_deriv(p, p.sol.t_plus, 2)
        got = psi_pp_difference_closed_form(s, b, 1.0)
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            ok = False
            detail.append("psi'' difference closed form")
    s, b = figure1
    p5 = dr.conical_coefficients(s, b, 0.5)
    rep5 = dr.positivity_certificate(p5, certificate_pass(p5))
    if not (p5.alpha > 0 and rep5.method == "GridVerified" and rep5.min_value > 0):
        ok = False
        detail.append("figure-1 beta0=0.5 certificate")
    report(5, "positivity certificates", ok, "; ".join(detail))


def test_criterion_6_coupling_constants(figure1):
    ok = True
    detail = []
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        s, b = draw_stable(rng)
        sa = dr.smooth_alpha(s, b)
        ca = dr.conical_alpha(s, b, 1.0)
        if abs(sa - ca) > 1e-12 * max(1.0, abs(sa)):
            ok = False
            detail.append("smooth vs conical alpha")
        k = int(rng.integers(1, 4))
        h = int(rng.integers(0, 3))
        kprime = float(rng.integers(1, 6))
        kpp = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1.0, 1.0]))
        beta0 = float(rng.uniform(0.1, 1.0))
        s2, b2 = dr.from_complexified(k, h, kprime, kpp)
        want = dr.conical_alpha(s2, b2, beta0)
        got = dr.bfield_alpha(k, h, kprime, kpp, beta0)
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            ok = False
            detail.append("b-field alpha")
    s, b = figure1
    prof = limits.scaled_solution(s, b, 1e-4)
    got = 1e-8 * prof.alpha
    want = (-2.0 + s.s_sigma * s.x) / (2.0 * b.k2 ** 2)
    if abs(got - want) > 1e-3 * abs(want):
        ok = False
        detail.append(f"alpha_tilde recovery: {got} vs {want}")
    report(6, "coupling-constant identities", ok, "; ".join(detail))


def test_criterion_7_twisted_ke():
    s = dr.make_surface(1, 6, 1)
    b = dr.BundleClass(k1=-1.0, k2=-1.0)
    beta0 = tke.solve_beta0(s, b)
    ok = abs(beta0 - 42.0 / 53.0) <= 1e-14 * (42.0 / 53.0)
    detail = [f"beta0 {beta0!r}"]
    p = dr.conical_coefficients(s, b, beta0)
    if abs(p.d1) >= 1e-8:
        ok = False
        detail.append(f"d1 {p.d1}")
    if abs(tke.condition_residual(s, b, beta0)) >= 1e-9:
        ok = False
        detail.append("condition residual")
    report(7, "twisted KE reduction", ok, "; ".join(detail))


def test_criterion_8_limits(figure1):
    ok = True
    detail = []
    s, b = figure1
    fam = limits.build_family(s, b, [1e-1, 1e-2, 1e-3, 1e-4])
    rep = limits.large_radius_check(fam)
    # the expansion claims an O(alpha') remainder for H/alpha'; the mirror
    # symmetry makes the expansion even, so the measured order is 2
    if not rep.order >= 0.9:
        ok = False
        detail.append(f"large-radius order {rep.order}")
    detail.append(f"large order {rep.order:.3f}")
    if rep.constants["mu_spread"] >= 1e-6:
        ok = False
        detail.append("mu not t-independent")

    s2 = dr.make_surface(1, 0, 5)
    b2 = dr.BundleClass(k1=-2.0, k2=-1.0)
    fam2 = limits.build_family(s2, b2, [1e2, 1e3, 1e4])
    rep2 = limits.small_radius_check(fam2)
    if not rep2.order >= 0.9:
        ok = False
        detail.append(f"small-radius order {rep2.order}")
    detail.append(f"small order {rep2.order:.3f}")
    sol4 = fam2.solutions[-1].sol
    want = (3.0 / -4.0) * (6.0 + math.sqrt(36.0 + 2584.0 / 9.0))
    got = dr.eval_H(sol4, 6.0) / 1e4
    if abs(got - want) > 1e-2 * abs(want):
        ok = False
        detail.append(f"pointwise limit {got} vs {want}")
    if rep2.constants["c1_spread_rel"] >= 1e-6:
        ok = False
        detail.append("c1 not t-independent")
    report(8, "scaled-family limits", ok, "; ".join(detail))


def test_criterion_9_semistable_regularity(semistable_case):
    s, b = semistable_case
    sol = dr.solve_dhym(s, b)
    eps = np.logspace(-8, -2, 25)
    dev = np.abs(dr.eval_H(sol, sol.t_minus + eps) - dr.eval_H(sol, sol.t_minus))
    slope_H = float(np.polyfit(np.log(eps), np.log(dev), 1)[0])
    ok = abs(slope_H - 0.5) < 0.02
    detail = [f"H exponent {slope_H:.4f}"]
    p = dr.conical_coefficients(s, b, 1.0)
    base = eval_psi_deriv(p, p.sol.t_minus, 1)
    devp = np.abs(eval_psi_deriv(p, p.sol.t_minus + eps, 1) - base)
    slope_p = float(np.polyfit(np.log(eps), np.log(devp), 1)[0])
    if abs(slope_p - 0.5) >= 0.02:
        ok = False
    detail.append(f"psi' exponent {slope_p:.4f}")
    report(9, "semistable regularity", ok, "; ".join(detail))


def test_criterion_10_symmetry():
    rng = np.random.default_rng(SEED)
    ok = True
    detail = []
    for _ in range(100):
        s, b = draw_stable(rng)
        b = dr.canonicalize(b)
        bm = dr.BundleClass(k1=-b.k1, k2=-b.k2)
        sol = dr.solve_dhym(s, b)
        solm = dr.solve_dhym(s, bm)
        t = np.linspace(sol.t_minus, sol.t_plus, 201)
        if np.max(np.abs(dr.eval_H(solm, t) + dr.eval_H(sol, t))) > 1e-12:
            ok = False
            detail.append("H mirror")
            break
        p = dr.conical_coefficients(s, b, 1.0)
        pm = dr.conical_coefficients(s, bm, 1.0)
        scale = max(1.0, abs(p.alpha), abs(p.d0), abs(p.d1))
        if (
            abs(pm.alpha - p.alpha) > 1e-12 * scale
            or abs(abs(pm.d0) - abs(p.d0)) > 1e-12 * scale
            or abs(abs(pm.d1) - abs(p.d1)) > 1e-12 * scale
        ):
            ok = False
            detail.append("profile data mirror")
            break
        psi_scale = max(1.0, float(np.max(np.abs(dr.eval_psi(p, t)))))
        if np.max(np.abs(dr.eval_psi(pm, t) - dr.eval_psi(p, t))) > 1e-12 * psi_scale:
            ok = False
            detail.append("psi mirror")
            break
    report(10, "mirror symmetry", ok, "; ".join(detail))
