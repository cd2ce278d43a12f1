"""Independent numerics: RK4, quadrature, finite differences, reconstruction."""

import math

import numpy as np
import pytest

from dhym_ruled import (
    BundleClass,
    IntegrationError,
    boundary_targets,
    canonicalize,
    conical_coefficients,
    make_surface,
    phase_and_radius,
    solve_dhym,
)
from dhym_ruled import coupled, oracle
from dhym_ruled.coupled import eval_psi

from conftest import draw_stable
from second_forms import (
    eval_psi_deriv,
    finite_difference,
    psi_highprec_reference,
    rk4_solve,
)


def test_rk4_calibration_exponential():
    g = rk4_solve(lambda t, y: y, 0.0, 1.0, 1.0, 1e-4)
    assert g.values[-1] == pytest.approx(math.e, abs=1e-10)


def test_rk4_backward():
    g = rk4_solve(lambda t, y: y, 1.0, math.e, 0.0, 1e-3)
    assert g.nodes[0] == pytest.approx(0.0)
    assert g.values[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(g.nodes) > 0)


def test_rk4_divergence_reported():
    # y' = y^2 blows up at t = 1 / y0
    with pytest.raises(IntegrationError) as exc:
        rk4_solve(lambda t, y: y ** 2, 0.0, 1.0, 2.0, 1e-3)
    assert 0.9 < exc.value.location < 1.1


def test_rk4_blow_up_in_one_lane():
    # y' = y^2 blows up at t = 1 / y0: of three one-draw calls only the
    # middle start reaches it, and the calls around it still finish
    def rhs(t, y):
        return y ** 2

    with pytest.raises(IntegrationError) as one:
        rk4_solve(rhs, 0.0, 1.0, 2.0, 1e-3)
    assert 0.9 < one.value.location < 1.1
    for y0 in (0.1, 0.2):
        g = rk4_solve(rhs, 0.0, y0, 2.0, 1e-3)
        assert g.values[-1] == pytest.approx(y0 / (1.0 - 2.0 * y0), rel=1e-8)


def test_rk4_takes_one_draw_only():
    # an array of draws is rejected, as Python's float() rejects it
    draw = (0.6, 0.8, 7.0, -2.0, 5.1)
    for i in range(len(draw)):
        args = list(draw)
        args[i] = np.array([args[i], args[i]])
        with pytest.raises(TypeError):
            oracle.rk4_solve_phase_ode(*args, 1e-3)
        if i >= 2:
            with pytest.raises(TypeError):
                rk4_solve(lambda t, y: y, *args[2:], 1e-3)


def _benchmark_starts(draws):
    """The benchmark's call: t_plus to t_minus + 1e-3, one row a draw."""
    rows = []
    for s, b in draws:
        sol = solve_dhym(s, b)
        tp = boundary_targets(s, canonicalize(b))[1]
        rows.append(
            [sol.cos_theta, sol.sin_theta, sol.t_plus, tp, sol.t_minus + 1e-3]
        )
    return rows


def _textbook_rhs(cos_t, sin_t):
    def rhs(t, y):
        return (t * sin_t + y * cos_t) / (y * sin_t - t * cos_t)

    return rhs


def test_rk4_phase_kernel_matches_generic(rng, figure1):
    # the benchmark's call: t_plus to t_minus + 1e-3 at step 1e-4
    rows = _benchmark_starts([figure1] + [draw_stable(rng) for _ in range(10)])
    for cos_t, sin_t, *ends in rows:
        a = rk4_solve(_textbook_rhs(cos_t, sin_t), *ends, 1e-4)
        b = oracle.rk4_solve_phase_ode(cos_t, sin_t, *ends, 1e-4)
        assert b.nodes.shape == (19990 + 1,)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_rk4_phase_kernel_rejects_zero_sin():
    with pytest.raises(ValueError, match="sin"):
        oracle.rk4_solve_phase_ode(1.0, 0.0, 7.0, -2.0, 5.1, 1e-3)


def test_rk4_phase_kernel_blow_up():
    # y0 = t0 cot(theta) starts on the line where the denominator vanishes
    cos_t, sin_t = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    singular = 7.0 * (cos_t / sin_t)
    with pytest.raises(IntegrationError) as one:
        oracle.rk4_solve_phase_ode(cos_t, sin_t, 7.0, singular, 5.1, 1e-3)
    assert isinstance(one.value.location, float)
    assert one.value.location == 7.0


def test_rk4_phase_kernel_agrees_with_generic_on_many_classes(rng):
    # the z form rounds differently from the textbook form: bound the
    # difference relative to the size of the values, draw by draw
    for cos_t, sin_t, *ends in _benchmark_starts(
        [draw_stable(rng) for _ in range(120)]
    ):
        a = rk4_solve(_textbook_rhs(cos_t, sin_t), *ends, 1e-4)
        b = oracle.rk4_solve_phase_ode(cos_t, sin_t, *ends, 1e-4)
        assert np.array_equal(a.nodes, b.nodes)
        dev = np.max(np.abs(a.values - b.values))
        assert dev <= 1e-12 * max(1.0, np.max(np.abs(a.values)))


def test_rk4_phase_kernel_blow_up_inside_the_interval():
    # the start 2^-6 off the origin lies on z = 5/4 t, the solution that
    # meets the singular line z = 0 at t = 0.  With cos = 0.6, sin = 0.8,
    # c = 25/16 and z0 come out exact, every stage is then exact on the
    # dyadic nodes, and the last stage of the step onto t = 0 is 0 / 0
    t0, step = 2.0 ** -6, 2.0 ** -10
    with pytest.raises(IntegrationError) as one:
        oracle.rk4_solve_phase_ode(0.6, 0.8, t0, 2.0 * t0, -t0, step)
    loc = one.value.location
    assert isinstance(loc, float)
    assert -t0 < loc < t0


def test_rk4_phase_kernel_stops_at_the_fold():
    # z^2 = c (t^2 - 49) + d^2 from the start z = d at t = 7, so towards 5.1
    # the solution ends at z = 0, t = sqrt(49 - d^2 / c): the step from the
    # node before it raises, on either side of the singular line, where a
    # sign test alone let most starts run past the end
    cos_t, sin_t = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    r, c, step = 0.5, 1.25, 1e-3
    for d in (-2.9, -1.3, -0.2, -1e-9, 1e-9, 0.2, 1.3, 2.9):
        fold = math.sqrt(49.0 - d * d / c)
        with pytest.raises(IntegrationError) as one:
            oracle.rk4_solve_phase_ode(cos_t, sin_t, 7.0, 7.0 * r + d, 5.1, step)
        assert fold <= one.value.location < fold + step
    # away from the line the same call runs through
    oracle.rk4_solve_phase_ode(cos_t, sin_t, 7.0, 7.0 * r + 5.5, 5.1, step)


def _capture(monkeypatch, name):
    """Record the arguments (positional, then keyword) of every call of
    oracle.<name>, as arrays."""
    calls, inner = [], getattr(oracle, name)

    def spy(*args, **kwargs):
        calls.append(tuple(np.copy(a) for a in args + tuple(kwargs.values())))
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracle, name, spy)
    return calls


def _z_loop(cos_t, sin_t, t0, y0, t1, step):
    """The plain RK4 step loop of z' = c t / z on lane rows: (nodes, z).

    The rows must share their step count.
    """
    (n,) = {oracle._steps(a, b, step)[0] for a, b in zip(t0.tolist(), t1.tolist())}
    h = (t1 - t0) / n
    r = cos_t / sin_t
    half = 0.5 * h
    num = half * (1.0 + r * r)
    nodes = t0 + np.multiply.outer(np.arange(float(n + 1)), h)
    z = np.empty_like(nodes)
    z[0] = y0 - t0 * r
    with np.errstate(all="ignore"):
        for i in range(n):
            p1 = num * nodes[i] / z[i]
            p2 = num * (nodes[i] + half) / (z[i] + p1)
            p3 = num * (nodes[i] + half) / (z[i] + p2)
            p4 = num * nodes[i + 1] / (z[i] + 2.0 * p3)
            z[i + 1] = z[i] + (p1 + p4 + 2.0 * (p2 + p3)) / 3.0
    return nodes.T, z.T


def test_rk4_phase_newton_settles_every_step_and_agrees_with_the_loop(
    rng, monkeypatch
):
    # 300 classes of the benchmark's call, one call each: every step of the
    # returned z satisfies the RK4 recurrence to one ulp, and the values are
    # the step loop's to rounding (the loop runs 60 classes at a time)
    grids = _capture(monkeypatch, "_grid")
    rows = _benchmark_starts([draw_stable(rng) for _ in range(300)])
    for chunk in range(0, len(rows), 60):
        loop_nodes, loop_z = _z_loop(*np.transpose(rows[chunk:chunk + 60]), 1e-4)
        for i, row in enumerate(rows[chunk:chunk + 60]):
            got = oracle.rk4_solve_phase_ode(*row, 1e-4)
            nodes, h, z, r = grids[-1]
            half = 0.5 * h
            num = half * (1.0 + r * r)
            a, m = num * nodes, num * (nodes[:-1] + half)
            zi = z[:-1]
            p1 = a[:-1] / zi
            p2 = m / (zi + p1)
            p3 = m / (zi + p2)
            p4 = a[1:] / (zi + 2.0 * p3)
            residual = zi + (p1 + p4 + 2.0 * (p2 + p3)) / 3.0 - z[1:]
            assert np.all(np.abs(residual) <= np.spacing(np.abs(z[1:])))
            assert np.array_equal(loop_nodes[i], nodes)
            y = (loop_z[i] + loop_nodes[i] * r)[::-1]
            dev = np.max(np.abs(got.values - y))
            assert dev <= 1e-13 * max(1.0, np.max(np.abs(y)))


def _passes_near_the_line(t0, gaps):
    """Starts at t0 on z^2 = c t^2 + gap^2, with c = 5/4, run to -t0.

    The solution passes the singular line at distance gap when t = 0.
    """
    return 0.5 * t0 + np.sqrt(1.25 * t0 * t0 + np.square(gaps))


def test_rk4_phase_continues_near_the_line(monkeypatch):
    # the start that passes 1e-4 from the singular line: the predictor
    # misses there, Newton does not settle, and the step loop finishes the
    # call without a blow-up; the other starts settle in every block
    cos_t, sin_t = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    y0 = _passes_near_the_line(0.5, np.array([0.1, 1e-4, 0.01]))
    continued = _capture(monkeypatch, "_continue")
    for i, one_y0 in enumerate(y0.tolist()):
        continued.clear()
        g = oracle.rk4_solve_phase_ode(cos_t, sin_t, 0.5, one_y0, -0.5, 1e-4)
        assert g.values.shape == (10 ** 4 + 1,)
        assert len(continued) == (i == 1)


def test_rk4_phase_continues_from_the_block_holding_the_fold(monkeypatch):
    # z^2 = c (t^2 - 49) + d^2 from z = d at t = 7: the start d = 4.03 folds
    # near t = 6, in the third block, and the step loop runs from there;
    # the other starts reach 5.1 without it
    cos_t, sin_t = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    continued = _capture(monkeypatch, "_continue")
    for d in (5.5, -6.0):
        oracle.rk4_solve_phase_ode(cos_t, sin_t, 7.0, 3.5 + d, 5.1, 1e-4)
    assert not continued
    with pytest.raises(IntegrationError) as one:
        oracle.rk4_solve_phase_ode(cos_t, sin_t, 7.0, 3.5 + 4.03, 5.1, 1e-4)
    assert 6.0 < one.value.location < 6.001
    assert len(continued) == 1
    assert 6.0 < continued[0][1][0] <= 7.0 - 2 * oracle._BLOCK * 1e-4


def test_rk4_phase_memory_is_bounded_by_the_blocks():
    # a 10^6-step call: the blocks keep the solve's temporaries to a few
    # dozen arrays of _BLOCK values, and a backward run is reversed as a
    # view, so the traced peak is the grid's own arrays and _grid's checks,
    # about 40 MB; the same temporaries over all 10^6 steps at once would
    # take about 8 MB each, and a reversed copy 16 MB
    import tracemalloc

    cos_t, sin_t = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    tracemalloc.start()
    try:
        g = oracle.rk4_solve_phase_ode(cos_t, sin_t, 7.0, 9.0, 5.1, 1.9e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.values.shape == (10 ** 6 + 1,)
    assert peak <= 46e6


def test_rk4_phase_kernel_is_blind_to_the_closed_forms(rng, monkeypatch):
    # the starts come from the closed forms; the integration must not
    from dhym_ruled import coupled, dhym

    rows = _benchmark_starts([draw_stable(rng) for _ in range(3)])

    def blind(*args, **kwargs):
        raise AssertionError("the RK4 oracle reached a closed form")

    for module in (dhym, coupled):
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) == module.__name__:
                monkeypatch.setattr(module, name, blind)
    for row in rows:
        oracle.rk4_solve_phase_ode(*row, 1e-4)


def test_step_count_is_capped():
    # _steps raises before any loop could start; the largest count passes
    assert oracle._steps(0.0, 1.0, 1.0 / oracle.MAX_STEPS)[0] == oracle.MAX_STEPS
    for t1, step in ((1.0, 1.0 / (oracle.MAX_STEPS + 1)), (-0.9, 1e-300)):
        with pytest.raises(ValueError, match=f"step {step!r} is too small"):
            oracle._steps(0.0, t1, step)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "t1, step, message",
    [
        (_NAN, 1e-3, "t1 must be finite, got nan"),
        (_INF, 1e-3, "t1 must be finite, got inf"),
        (-_INF, 1e-3, "t1 must be finite, got -inf"),
        (5.1, _NAN, "step must be finite and positive, got nan"),
        (5.1, _INF, "step must be finite and positive, got inf"),
        (5.1, 0.0, "step must be finite and positive, got 0.0"),
        (5.1, -1e-3, "step must be finite and positive, got -0.001"),
        (5.1, 5e-324, "step 5e-324 is too small for the interval"),
        (7.0, 1e-3, "t1 equals t0 = 7.0"),
        # h is about half an ulp of the ends, so t0 + i h repeats nodes
        (7.0 + 1e-12, 5e-16, "step 5e-16 is below the resolution of the ends"),
    ],
)
def test_rk4_rejects_bad_steps_and_ends(t1, step, message, monkeypatch):
    # each is rejected before the first step
    steps, march = [], oracle._march
    monkeypatch.setattr(oracle, "_march", lambda *args: steps.append(args) or march(*args))
    with pytest.raises(ValueError, match=message):
        oracle.rk4_solve_phase_ode(0.6, 0.8, 7.0, -2.0, t1, step)
    with pytest.raises(ValueError, match=message):
        rk4_solve(lambda t, y: steps.append(t) or y, 7.0, -2.0, t1, step)
    assert steps == []


def test_rk4_rejects_non_finite_start():
    with pytest.raises(ValueError, match="t0 must be finite, got nan"):
        oracle.rk4_solve_phase_ode(0.6, 0.8, _NAN, -2.0, 5.1, 1e-3)
    with pytest.raises(ValueError, match="t0 must be finite, got inf"):
        rk4_solve(lambda t, y: y, _INF, -2.0, 5.1, 1e-3)


def test_quadrature_volume_identities():
    # int_{-1}^{1} 2(1 - x tau)/x dtau, scaled by (2 pi)(2 pi k), gives the
    # total volume 16 pi^2 k / x
    for k, kprime in ((1, 5.0), (2, 3.0)):
        x = k / (k + kprime)
        val = oracle.quadrature(lambda tau: 2.0 * (1.0 - x * tau) / x, -1.0, 1.0)
        assert (2.0 * math.pi) * (2.0 * math.pi * k) * val == pytest.approx(
            16.0 * math.pi ** 2 * k / x, rel=1e-12
        )
    # fiber integral: the momentum interval has length 2, so the fiber
    # symplectic area is 2 pi * 2 = 4 pi
    length = oracle.quadrature(np.ones_like, 5.0, 7.0)
    assert 2.0 * math.pi * length == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_quadrature_failure_carries_estimate():
    with pytest.raises(IntegrationError) as exc:
        oracle.quadrature(lambda t: np.sin(1.0 / (t + 1e-9)), 0.0, 1.0)
    assert exc.value.estimate is not None


def test_quadrature_of_a_divergent_integrand_raises():
    # 1 / t^2 is infinite at the midpoint of [-1, 1], so the 15-point
    # estimate over the interval is too: the tolerance stays the absolute
    # QUADRATURE_TOL, where one scaled by that estimate would accept every
    # finite panel and return a finite value
    with np.errstate(divide="ignore"):
        with pytest.raises(IntegrationError):
            oracle.quadrature(lambda t: 1.0 / t ** 2, -1.0, 1.0)


def _recursive_simpson(f, a, b, tol=1e-10, max_depth=40):
    """Depth-first adaptive Simpson on scalars, a reference for the value of
    oracle.quadrature by another rule."""

    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        flmid = f(0.5 * (lo + mid))
        frmid = f(0.5 * (mid + hi))
        left = simpson(lo, flo, mid, fmid, flmid)
        right = simpson(mid, fmid, hi, fhi, frmid)
        if depth <= 0:
            raise IntegrationError("no convergence", location=mid, estimate=left + right)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, flo, mid, fmid, flmid, left, eps / 2.0, depth - 1) + recurse(
            mid, fmid, hi, fhi, frmid, right, eps / 2.0, depth - 1
        )

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    return recurse(a, fa, b, fb, fm, simpson(a, fa, b, fb, fm), tol, max_depth)


def _recursive_gauss_kronrod(f, a, b, tol=1e-10, max_depth=40):
    """Depth-first adaptive G7-K15 on scalars, the reference for
    oracle.quadrature: (the integral, the number of points evaluated)."""
    points = 0

    def panel(lo, hi):
        nonlocal points
        half = 0.5 * (hi - lo)
        mid = lo + half
        values = [f(mid + x * half) for x in oracle._NODES.tolist()]
        points += len(values)
        kronrod, gauss = (half * float(np.dot(w, values)) for w in oracle._WEIGHTS)
        return mid, kronrod, gauss

    def recurse(lo, hi, depth, estimates):
        mid, kronrod, gauss = estimates
        if abs(kronrod - gauss) <= tolerance * ((hi - lo) / (b - a)):
            return kronrod
        if depth >= max_depth:
            raise IntegrationError("no convergence", location=mid, estimate=kronrod)
        left = recurse(lo, mid, depth + 1, panel(lo, mid))
        return left + recurse(mid, hi, depth + 1, panel(mid, hi))

    root = panel(a, b)
    tolerance = tol * max(1.0, abs(root[1]))
    return recurse(a, b, 0, root), points


def test_gauss_kronrod_rule():
    # the 7 Gauss nodes and weights are numpy's; K15 integrates every
    # monomial to degree 22 and G7 to degree 13, to rounding
    x, w = np.polynomial.legendre.leggauss(7)
    assert np.allclose(oracle._NODES[1::2], x, rtol=0.0, atol=4e-16)
    assert np.allclose(oracle._WEIGHTS[1, 1::2], w, rtol=0.0, atol=4e-16)
    assert not oracle._WEIGHTS[1, ::2].any()
    for degree in range(23):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        kronrod, gauss = oracle._WEIGHTS @ oracle._NODES ** degree
        assert kronrod == pytest.approx(exact, abs=1e-15), degree
        if degree <= 13:
            assert gauss == pytest.approx(exact, abs=1e-15), degree


@pytest.mark.parametrize("beta0", [1.0, 0.5])
def test_quadrature_matches_recursive_simpson(figure1, beta0):
    # the value is the Simpson reference's; the points are those of the
    # depth-first G7-K15 reference
    s, b = figure1
    sol = solve_dhym(s, b)
    p = conical_coefficients(s, b, beta0)
    points = []

    def integrand(t):
        points.append(np.size(t))
        return t * phase_and_radius(p, s, b, sol, t)[1]

    want = _recursive_simpson(integrand, sol.t_minus, sol.t_plus)
    ref, ref_points = _recursive_gauss_kronrod(integrand, sol.t_minus, sol.t_plus)
    points.clear()
    got = oracle.quadrature(integrand, sol.t_minus, sol.t_plus)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert sum(points) == ref_points


def test_quadrature_failure_is_early_and_bounded():
    points = 0

    def f(t):
        nonlocal points
        points += np.size(t)
        return np.sin(1.0 / (t + 1e-9))

    with pytest.raises(IntegrationError) as exc:
        oracle.quadrature(f, 0.0, 1.0)
    assert points <= 2 ** 17
    # the same panel fails first as in the depth-first reference
    with pytest.raises(IntegrationError) as ref:
        _recursive_gauss_kronrod(f, 0.0, 1.0)
    assert exc.value.location == ref.value.location
    assert exc.value.estimate == ref.value.estimate


@pytest.mark.parametrize("c", [1e6, 4.5e9, 1e12])
def test_quadrature_tolerance_follows_the_integral(c):
    # integrands as large as the wide box's t * re, which reaches 4.5e9:
    # each value is the integral's to rounding
    got = oracle.quadrature(lambda t: c * t * np.exp(t), 5.0, 7.0)
    assert got == pytest.approx(c * (6.0 * math.exp(7.0) - 4.0 * math.exp(5.0)), rel=1e-12)


def test_finite_difference():
    assert finite_difference(lambda t: 5.0, 1.0, 1, 1e-3) == 0.0
    assert finite_difference(math.sin, 0.3, 1, 1e-5) == pytest.approx(
        math.cos(0.3), abs=1e-9
    )
    assert finite_difference(math.sin, 0.3, 2, 1e-4) == pytest.approx(
        -math.sin(0.3), abs=1e-6
    )
    with pytest.raises(ValueError):
        finite_difference(math.sin, 0.3, 3, 1e-4)


def test_psi_derivatives_match_finite_differences(figure1):
    s, b = figure1
    p = conical_coefficients(s, b, 1.0)
    t = 6.0
    fd1 = finite_difference(lambda u: eval_psi(p, u), t, 1, 1e-5)
    assert eval_psi_deriv(p, t, 1) == pytest.approx(fd1, abs=1e-7)
    fd2 = finite_difference(lambda u: eval_psi(p, u), t, 2, 1e-4)
    assert eval_psi_deriv(p, t, 2) == pytest.approx(fd2, abs=1e-5)
    fd4 = finite_difference(lambda u: eval_psi(p, u), t, 4, 1e-2)
    assert eval_psi_deriv(p, t, 4) == pytest.approx(fd4, rel=1e-3)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        oracle.GridFunction(nodes=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        oracle.GridFunction(nodes=np.array([0.0, 1.0]), values=np.array([1.0, np.inf]))


def _highprec_classes(rng):
    """Seeded calls of the benchmark's extended-precision profiles.

    The highprec box, (k1, k2) = (-a, a) with a in 10^U(-4, 0) and
    k' in {5k, 6k, 7k}, on [1/x - 1, 1/x + 1]; and stable classes scaled by
    alpha' = 1e-3 and 1e-4, on their solution's interval, as limits checks
    them.  401 points each.
    """
    calls = []
    for _ in range(8):
        k = int(rng.integers(1, 3))
        a = 10.0 ** rng.uniform(-4.0, 0.0)
        cls = (k, int(rng.integers(0, 3)), float(k * rng.integers(5, 8)), -a, a)
        x = k / (k + cls[2])
        calls.append((cls, np.linspace(1.0 / x - 1.0, 1.0 / x + 1.0, 401)))
    for _ in range(4):
        s, b = draw_stable(rng)
        for alpha_prime in (1e-3, 1e-4):
            bs = BundleClass(k1=alpha_prime * b.k1, k2=alpha_prime * b.k2)
            sol = solve_dhym(s, bs)
            cls = (s.k, s.h, s.kprime, bs.k1, bs.k2)
            calls.append((cls, np.linspace(sol.t_minus, sol.t_plus, 401)))
    return calls


def test_eval_psi_highprec_matches_decimal_reference(rng):
    for cls, t in _highprec_classes(rng):
        got = oracle.eval_psi_highprec(*cls, t)
        want = psi_highprec_reference(*cls, t)
        assert got.shape == want.shape == t.shape
        assert np.all(np.abs(got - want) <= 1e-40), cls
        # inside, where psi > 0, at most one ulp apart as well
        inner = np.abs(want[1:-1])
        assert np.all(np.abs(got[1:-1] - want[1:-1]) <= np.spacing(inner)), cls


def test_eval_psi_highprec_matches_double_profile(rng):
    # unscaled classes, where the double basis evaluation holds
    for _ in range(20):
        s, b = draw_stable(rng)
        p = conical_coefficients(s, b, 1.0)
        t = np.linspace(p.sol.t_minus, p.sol.t_plus, 101)
        got = oracle.eval_psi_highprec(s.k, s.h, s.kprime, b.k1, b.k2, t)
        want = eval_psi(p, t)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(got)))


def test_eval_psi_highprec_rejects_zero_k2():
    for k2 in (0.0, -0.0):
        with pytest.raises(ValueError, match="k2 != 0"):
            oracle.eval_psi_highprec(1, 0, 5.0, -1.0, k2, [5.5])


@pytest.mark.parametrize(
    "cls",
    # margin -31/6 at (1, 0, 5); exactly 0 at (1, 0, 4)
    [(1, 0, 5.0, -3.0, 3.0), (1, 0, 4.0, -1.0, 1.0)],
    ids=["unstable", "semistable"],
)
def test_eval_psi_highprec_requires_strict_stability(cls):
    with pytest.raises(ValueError, match="strict stability"):
        oracle.eval_psi_highprec(*cls, [5.5])



@pytest.mark.parametrize("beta0", [1.0, 0.5])
def test_reconstruct_s_of_tau(figure1, beta0):
    s, b = figure1
    p = conical_coefficients(s, b, beta0)
    g = coupled.reconstruct_s_of_tau(p)
    # normalization and monotonicity in the profile variable
    assert np.interp(0.0, g.nodes, g.values) == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(g.values) > 0)
    # logarithmic divergence rate at tau -> -1 (the beta0 cone end):
    # |d s / d log(1+tau)| -> 1/beta0
    mask = (g.nodes > -1.0 + 1e-8) & (g.nodes < -1.0 + 1e-3)
    slope = np.polyfit(np.log1p(g.nodes[mask]), g.values[mask], 1)[0]
    assert abs(slope) == pytest.approx(1.0 / beta0, rel=0.05)
