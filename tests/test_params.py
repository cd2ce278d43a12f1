"""Class data, stability, and phase constants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym_ruled import (
    BundleClass,
    DegenerateClassError,
    PositivityError,
    StabilityClass,
    TkeNotFoundError,
    ValidationError,
    bfield_alpha,
    canonicalize,
    classify,
    cohomology_classes,
    conical_alpha,
    conical_coefficients,
    from_complexified,
    intersection_pairing,
    jy_class,
    make_surface,
    oracle,
    phase_constant,
    pose,
    smooth_alpha,
    stability_margin,
    tke,
)
from dhym_ruled.coupled import reconstruct_s_of_tau

from conftest import draw_class, draw_stable, draw_surface


def test_surface_derived_quantities():
    s = make_surface(1, 0, 5)
    assert s.x == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert s.s_sigma == pytest.approx(2.0, rel=1e-15)
    s2 = make_surface(2, 3, 1.5)
    assert s2.s_sigma == pytest.approx(2.0 * (1 - 3) / 2.0)


def test_make_surface_validation():
    with pytest.raises(ValidationError):
        make_surface(0, 0, 1)
    with pytest.raises(ValidationError):
        make_surface(1, -1, 1)
    with pytest.raises(ValidationError):
        make_surface(1, 0, 0.0)


def test_canonicalize():
    b = canonicalize(BundleClass(k1=2.0, k2=-3.0))
    assert (b.k1, b.k2, b.conjugated) == (-2.0, 3.0, True)
    b = canonicalize(BundleClass(k1=-2.0, k2=-3.0))
    assert (b.k1, b.k2, b.conjugated) == (-2.0, -3.0, False)
    with pytest.raises(DegenerateClassError):
        canonicalize(BundleClass(k1=0.0, k2=1.0))
    with pytest.raises(DegenerateClassError):
        canonicalize(BundleClass(k1=-1.0, k2=0.0))


def test_equal_classes_pose_alike():
    """pose is memoised on equality, so an int class and the equal float
    class must give a Problem that prints the same."""
    s = make_surface(1, 0, 5)
    b = BundleClass(k1=-1, k2=np.float64(1.0))
    assert (repr(b.k1), repr(b.k2)) == ("-1.0", "1.0")
    pose.cache_clear()
    first = pose(s, b)
    assert pose(s, BundleClass(k1=-1.0, k2=1.0)) is first
    assert repr(first.bundle) == repr(BundleClass(k1=-1.0, k2=1.0))
    with pytest.raises(TypeError):
        BundleClass(k1="-1", k2=1.0)


def test_stability_margin_and_classify(figure1):
    s, b = figure1
    margin = stability_margin(s, b)
    assert margin == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert classify(margin) is StabilityClass.STABLE
    assert classify(0.0) is StabilityClass.SEMISTABLE
    assert classify(-0.3) is StabilityClass.UNSTABLE
    # x = 1/5 with (-1, 1) sits exactly on the boundary
    s5 = make_surface(1, 0, 4)
    assert stability_margin(s5, b) == pytest.approx(0.0, abs=1e-15)


def test_phase_constant_showcase():
    cos_t, sin_t, r_hat = phase_constant(BundleClass(k1=-1.0, k2=1.0))
    assert cos_t == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
    assert sin_t == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-14)
    assert r_hat == pytest.approx(math.sqrt(5.0), rel=1e-14)
    # mirrored class: cosine equal, sine negated
    cos_m, sin_m, _ = phase_constant(BundleClass(k1=1.0, k2=1.0))
    cos_p, sin_p, _ = phase_constant(BundleClass(k1=-1.0, k2=-1.0))
    assert cos_m == pytest.approx(cos_p, rel=1e-14)
    assert sin_m == pytest.approx(-sin_p, rel=1e-14)
    # k2 = 0 phase is defined even though solvers reject the class
    cos_0, sin_0, r_0 = phase_constant(BundleClass(k1=-1.0, k2=0.0))
    assert cos_0 == pytest.approx(0.0, abs=1e-15)
    assert sin_0 == pytest.approx(1.0, rel=1e-14)
    assert r_0 == pytest.approx(2.0, rel=1e-14)


def test_s_hat():
    s = make_surface(1, 0, 5)
    pr = pose(s, BundleClass(k1=-1.0, k2=1.0))
    assert pr.s_hat == pytest.approx(2.0 * s.x * s.s_sigma + 2.0, rel=1e-14)


@given(
    k1=st.floats(0.05, 5.0),
    k2=st.floats(0.05, 5.0),
    s1=st.sampled_from([-1.0, 1.0]),
    s2=st.sampled_from([-1.0, 1.0]),
)
def test_phase_properties(k1, k2, s1, s2):
    b = BundleClass(k1=s1 * k1, k2=s2 * k2)
    cos_t, sin_t, r_hat = phase_constant(b)
    assert cos_t ** 2 + sin_t ** 2 == pytest.approx(1.0, abs=1e-14)
    # r_hat^2 agrees with the factorized form
    fact = (1.0 + (b.k1 + b.k2) ** 2) * (1.0 + (b.k1 - b.k2) ** 2)
    assert r_hat ** 2 == pytest.approx(fact, rel=1e-12)
    assert math.copysign(1.0, sin_t) == -math.copysign(1.0, b.k1)


def test_cohomology_classes(figure1):
    s, b = figure1
    om, f = cohomology_classes(s, b)
    assert (om.a, om.b) == (2.0, 5.0)
    assert (f.a, f.b) == (-4.0, 2.0)


def test_omega_pairing_matches_volume(rng):
    # (2 pi)^2 * [omega]^2 = 16 pi^2 k / x for random surfaces
    for _ in range(50):
        s = draw_surface(rng)
        om, _ = cohomology_classes(s, BundleClass(k1=-1.0, k2=1.0))
        vol = intersection_pairing(om, om, s.k) * (2.0 * math.pi) ** 2
        assert vol == pytest.approx(16.0 * math.pi ** 2 * s.k / s.x, rel=1e-12)


def test_traceless_pairing(rng):
    # F - k1*omega is c2 times the unit traceless class beta, and
    # (2 pi)^2 [beta]^2 = -16 pi^2 k x^3/(1-x^2)^2
    from dhym_ruled.params import CohClass

    for _ in range(50):
        s = draw_surface(rng)
        b = draw_class(rng)
        om, f = cohomology_classes(s, b)
        diff = CohClass(a=f.a - b.k1 * om.a, b=f.b - b.k1 * om.b)
        c2 = (1.0 - s.x ** 2) / s.x ** 2 * b.k2
        got = intersection_pairing(diff, diff, s.k) * (2.0 * math.pi) ** 2
        want = c2 ** 2 * (-16.0 * math.pi ** 2 * s.k * s.x ** 3 / (1 - s.x ** 2) ** 2)
        assert got == pytest.approx(want, rel=1e-12)


def test_jy_class_iff_stable(rng):
    hits = 0
    for _ in range(1200):
        s = draw_surface(rng)
        b = draw_class(rng)
        margin = stability_margin(s, canonicalize(b))
        if abs(margin) < 1e-9:
            continue
        got = jy_class(s, b)
        assert got[1] == (margin > 0)
        # the answer is that of the reduced class, so the mirror's is the same
        assert jy_class(s, BundleClass(k1=-b.k1, k2=-b.k2)) == got
        hits += 1
    assert hits >= 1000


@pytest.mark.parametrize("k1", [0.0, -0.0])
def test_jy_class_rejects_zero_sine(k1):
    """k1 = 0 puts the phase on the real axis, where cot(theta) is undefined;
    the class is rejected as degenerate, as in every solver."""
    with pytest.raises(DegenerateClassError, match="k1 = 0"):
        jy_class(make_surface(1, 0, 5), BundleClass(k1=k1, k2=1.0))


def test_class_functions_agree_on_a_class_and_its_mirror(rng):
    """A class and its mirror (-k1, -k2) give bitwise the same value in each
    class-level paper function: it reads the reduced (k1 < 0) class that
    pose fixes, or is even in (k1, k2).  draw_class draws only k1 < 0, so
    no other test passes a mirror."""
    for _ in range(300):
        s, b = draw_stable(rng)
        beta0 = float(rng.uniform(0.1, 1.0))

        def values(c):
            return (
                stability_margin(s, c),
                conical_alpha(s, c, beta0),
                smooth_alpha(s, c),
                tke.F_value(c),
                tke.condition_residual(s, c, beta0),
                tke.analyze(s, c, beta0),
                jy_class(s, c),
            )

        # repr is bitwise on floats: it tells -0.0 from 0.0
        assert repr(values(BundleClass(k1=-b.k1, k2=-b.k2))) == repr(values(b))


def test_from_complexified():
    s, b = from_complexified(1, 0, 1, -1.0)
    assert b.k1 == pytest.approx(-0.25)
    assert b.k2 == pytest.approx(-0.25)
    assert s.x == pytest.approx(0.5)
    assert not b.conjugated
    s2, b2 = from_complexified(1, 0, 1, 1.0)
    assert (b2.k1, b2.k2) == (b.k1, b.k2)
    assert b2.conjugated
    with pytest.raises(ValidationError):
        from_complexified(1, 0, 1, 0.0)


def test_from_complexified_always_stable(rng):
    for _ in range(200):
        k = int(rng.integers(1, 5))
        h = int(rng.integers(0, 4))
        kprime = float(rng.uniform(0.5, 8.0))
        kpp = float(rng.uniform(0.05, 10.0)) * float(rng.choice([-1.0, 1.0]))
        s, b = from_complexified(k, h, kprime, kpp)
        margin = stability_margin(s, b)
        assert classify(margin) is StabilityClass.STABLE
        assert margin == pytest.approx(
            1.0 + (kpp / (k + kprime)) ** 2 - s.x, rel=1e-12
        )


def test_bfield_alpha_values():
    # 2 sqrt((k+k')^2+k''^2) prefactor cases worked out by hand
    assert bfield_alpha(1, 0, 1, 1.0, 1.0) == pytest.approx(
        -4.0 * math.sqrt(5.0), rel=1e-12
    )
    assert bfield_alpha(1, 0, 1, 1.0, 0.5) == pytest.approx(
        14.0 * math.sqrt(5.0), rel=1e-12
    )
    # small cone angle on an unbalanced surface: positive coupling
    assert bfield_alpha(1, 0, 100, 1.0, 0.05) > 0


def test_bfield_alpha_matches_conical(rng):
    for _ in range(100):
        k = int(rng.integers(1, 4))
        h = int(rng.integers(0, 3))
        kprime = float(rng.integers(1, 6))
        kpp = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1.0, 1.0]))
        beta0 = float(rng.uniform(0.1, 1.0))
        s, b = from_complexified(k, h, kprime, kpp)
        want = conical_alpha(s, b, beta0)
        got = bfield_alpha(k, h, kprime, kpp, beta0)
        assert got == pytest.approx(want, rel=1e-10)


def _fig1_profile_below_zero(monkeypatch):
    p = conical_coefficients(make_surface(1, 0, 5), BundleClass(k1=-1.0, k2=1.0), 1.0)
    return reconstruct_s_of_tau(replace(p, d0=p.d0 - 1e3))


def _tke_residual_over_its_bound(monkeypatch):
    monkeypatch.setattr(tke, "_residual_bound", lambda s, b, beta0: -1.0)
    return tke.solve_beta0(make_surface(1, 6, 1.0), BundleClass(k1=-1.0, k2=-1.0))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda mp: oracle.quadrature(lambda t: t, 1.0, 0.0), ValueError, "need a < b"),
    (lambda mp: oracle.GridFunction(np.arange(3.0), np.arange(2.0)), ValueError,
     "equal length"),
    (lambda mp: oracle.eval_psi_highprec(1, 0, 5.0, 1.0, 1.0, [1.0]), ValueError,
     "k1 < 0"),
    (lambda mp: bfield_alpha(1, 0, 5.0, 0.0, 1.0), ValidationError, "kpp must be nonzero"),
    (lambda mp: make_surface(10**400, 0, 1.0), ValidationError, "out of float range"),
    (_fig1_profile_below_zero, PositivityError, "profile non-positive"),
    (_tke_residual_over_its_bound, TkeNotFoundError, "condition residual"),
], ids=["quadrature-reversed", "grid-lengths", "highprec-k1-positive",
        "bfield-kpp-zero", "surface-k-overflow", "s-of-tau-nonpositive",
        "tke-residual-over-bound"])
def test_guard_raises_its_typed_error(call, error, fragment, monkeypatch):
    """Each input guard of the public functions raises its own typed error,
    with a message that names what is wrong."""
    with pytest.raises(error, match=fragment):
        call(monkeypatch)
