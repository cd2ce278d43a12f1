"""Class data, stability, and phase constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym_ruled import (
    BundleClass,
    DegenerateClassError,
    StabilityClass,
    ValidationError,
    bfield_alpha,
    canonicalize,
    classify,
    cohomology_classes,
    conical_alpha,
    from_complexified,
    intersection_pairing,
    jy_class,
    make_surface,
    phase_constant,
    pose,
    stability_margin,
)

from conftest import draw_class, draw_surface


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
    p = phase_constant(BundleClass(k1=-1.0, k2=1.0))
    assert p.cos_theta == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
    assert p.sin_theta == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-14)
    assert p.r_hat == pytest.approx(math.sqrt(5.0), rel=1e-14)
    # mirrored class: cosine equal, sine negated
    pm = phase_constant(BundleClass(k1=1.0, k2=1.0))
    pp = phase_constant(BundleClass(k1=-1.0, k2=-1.0))
    assert pm.cos_theta == pytest.approx(pp.cos_theta, rel=1e-14)
    assert pm.sin_theta == pytest.approx(-pp.sin_theta, rel=1e-14)
    # k2 = 0 phase is defined even though solvers reject the class
    p0 = phase_constant(BundleClass(k1=-1.0, k2=0.0))
    assert p0.cos_theta == pytest.approx(0.0, abs=1e-15)
    assert p0.sin_theta == pytest.approx(1.0, rel=1e-14)
    assert p0.r_hat == pytest.approx(2.0, rel=1e-14)


def test_s_hat():
    s = make_surface(1, 0, 5)
    p = phase_constant(BundleClass(k1=-1.0, k2=1.0), s)
    assert p.s_hat == pytest.approx(2.0 * s.x * s.s_sigma + 2.0, rel=1e-14)


@given(
    k1=st.floats(0.05, 5.0),
    k2=st.floats(0.05, 5.0),
    s1=st.sampled_from([-1.0, 1.0]),
    s2=st.sampled_from([-1.0, 1.0]),
)
def test_phase_properties(k1, k2, s1, s2):
    b = BundleClass(k1=s1 * k1, k2=s2 * k2)
    p = phase_constant(b)
    assert p.cos_theta ** 2 + p.sin_theta ** 2 == pytest.approx(1.0, abs=1e-14)
    # r_hat^2 agrees with the factorized form
    fact = (1.0 + (b.k1 + b.k2) ** 2) * (1.0 + (b.k1 - b.k2) ** 2)
    assert p.r_hat ** 2 == pytest.approx(fact, rel=1e-12)
    assert math.copysign(1.0, p.sin_theta) == -math.copysign(1.0, b.k1)


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
        _, positive = jy_class(s, b)
        assert positive == (margin > 0)
        hits += 1
    assert hits >= 1000


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
