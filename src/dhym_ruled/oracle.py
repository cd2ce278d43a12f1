"""Independent numerics used to verify every closed form.

Nothing here knows the explicit solution formulas: RK4 integrates the raw
phase ODE (steps, nodes and blow-up by _steps, _nodes and _grid, which the
tests' generic RK4 shares) and the quadrature integrates raw integrands.
Of the package, this module imports only its errors.  Agreement between
these routines and the closed forms is the package's correctness argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError


@dataclass(frozen=True)
class GridFunction:
    """A sampled function: strictly increasing nodes, finite values."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.shape != values.shape:
            raise ValueError("nodes and values must have equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)


#: Most steps one RK4 call takes; the benchmark takes about 2e4, one test 1e6.
MAX_STEPS = 10 ** 7


def _steps(t0: float, t1: float, step: float):
    """The step count n = round(|t1 - t0| / step), at least 1, and h.

    A step that is not finite and positive, or so small that the count
    exceeds MAX_STEPS, an end that is not finite and t1 == t0 raise
    ValueError naming the value.  So does a step whose h is at most two
    ulps of the larger end: the nodes t0 + i h need not strictly increase
    then.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    for name, end in (("t0", t0), ("t1", t1)):
        if not math.isfinite(end):
            raise ValueError(f"{name} must be finite, got {end!r}")
    if t0 == t1:
        raise ValueError(f"t1 equals t0 = {t0!r}: the interval is empty")
    count = abs(t1 - t0) / float(step)
    # an overflowing count is inf, which round() does not take
    if not (math.isfinite(count) and round(count) <= MAX_STEPS):
        raise ValueError(
            f"step {step!r} is too small for the interval:"
            f" more than MAX_STEPS = {MAX_STEPS} steps"
        )
    n = max(1, round(count))
    h = (t1 - t0) / n
    top = max(abs(t0), abs(t1))
    if not abs(h) > 2.0 * math.ulp(top):
        raise ValueError(f"step {step!r} is below the resolution of the ends:"
                         f" h = {h!r} is not above two ulps of {top!r}")
    return n, h


def _nodes(t0: float, h: float, n: int) -> np.ndarray:
    """t0 + i h for i = 0..n, formed once for the whole run."""
    return t0 + np.arange(float(n + 1)) * h


def _grid(nodes: np.ndarray, h: float, values: np.ndarray, slope=None) -> GridFunction:
    """The RK4 values at the nodes (from _nodes), ordered by increasing node.

    With a slope, the values are z = y - t * slope of z' = c t / z, with
    c = 1 + slope^2, and the value at node t is z + t * slope.  A step that
    ends on a non-finite value raises IntegrationError located at the node
    it starts from.  With a slope, so does a step that leaves the solution:
    z^2 - c t^2 is constant along it, so it ends where z = 0 (z' diverges
    there) and changes the sign of z only at t = 0.  A step whose start
    continues to z = 0 before its end, or over which z changes sign with
    both nodes on one side of t = 0, has left it.
    """
    leaves = False
    if slope is not None:
        lo, hi, z = nodes[:-1], nodes[1:], values
        c = 1.0 + slope * slope
        leaves = (z[:-1] ** 2 + c * ((hi - lo) * (hi + lo)) < 0.0) | (
            ((z[:-1] < 0.0) != (z[1:] < 0.0)) & (lo * hi > 0.0)
        )
        values = z + nodes * slope
    # arithmetic never turns NaN or inf finite again: checking once suffices
    bad = leaves | ~np.isfinite(values[1:])
    if bad.any():
        location = float(nodes[np.argmax(bad)])
        raise IntegrationError(
            f"integration diverged near t = {location}", location=location
        )
    if h < 0:
        nodes, values = nodes[::-1], values[::-1]
    return GridFunction(nodes=nodes, values=values)


#: Steps the phase-ODE RK4 solves at once: a block's temporaries are a few
#: dozen arrays of this length, whatever the step count.
_BLOCK = 4096
#: Fine steps in one step of a block's predictor.
_COARSE = 16
#: Newton iterations a block may take before the step loop takes over.
_NEWTON = 3


def _march(z: float, A, M, A1, out: list) -> None:
    """The RK4 step loop of z' = c t / z from z; appends each step's end to out.

    A, M and A1 yield each step's stage numerators (h/2) c t, (h/2) c (t + h/2)
    and (h/2) c (t + h), for the step from t, as Python floats, so the step
    that divides by zero raises ZeroDivisionError.  With the stages scaled
    by h/2, a step is 14 float operations: p1 = a / z, p2 = m / (z + p1),
    p3 = m / (z + p2), p4 = a1 / (z + 2 p3) and
    z += (p1 + p4 + 2 (p2 + p3)) / 3.
    """
    for a, m, a1 in zip(A, M, A1):
        p1 = a / z
        p2 = m / (z + p1)
        p3 = m / (z + p2)
        z = z + (p1 + a1 / (z + 2.0 * p3) + 2.0 * (p2 + p3)) / 3.0
        out.append(z)


@functools.lru_cache(maxsize=4)
def _hermite(m: int):
    """The layout of the predictor on a block of m steps.

    Returns the block indices of the coarse nodes (every _COARSE-th node and
    the last), each node's segment (the coarse step it lies in), and the
    cubic Hermite weights of the segment's end values and end slopes at the
    node, the slope weights multiplied by the segment's step count.
    """
    idx = np.append(np.arange(0, m, _COARSE), m)
    seg = np.minimum(np.arange(m + 1) // _COARSE, len(idx) - 2)
    steps = idx[seg + 1] - idx[seg]
    s = (np.arange(m + 1) - idx[seg]) / steps
    s1 = 1.0 - s
    weights = (
        (1.0 + 2.0 * s) * s1 * s1,
        s * s * (3.0 - 2.0 * s),
        steps * s * s1 * s1,
        -steps * s * s * s1,
    )
    for x in (idx, seg, *weights):
        x.flags.writeable = False
    return idx, seg, weights


def _predict(z0: float, t, half: float, num: float) -> np.ndarray:
    """A guess at the RK4 values on a block's nodes t, from z0 at t[0].

    RK4 steps of _COARSE h run through the coarse nodes, and a cubic Hermite
    interpolant fills the nodes between them, with the slopes c t / z that
    the ODE gives at the ends (num = (h/2) c).  From a coarse step that
    divides by zero on, the values are NaN.
    """
    idx, seg, (v0, v1, s0, s1) = _hermite(len(t) - 1)
    T = t[idx]
    big = idx[1:] - idx[:-1]
    nums = big * num
    A, M, A1 = nums * T[:-1], nums * (T[:-1] + big * half), nums * T[1:]
    Z = [z0]
    try:
        _march(z0, A.tolist(), M.tolist(), A1.tolist(), Z)
    except ZeroDivisionError:
        Z += [np.nan] * (len(idx) - len(Z))
    Z = np.array(Z)
    # h times the slope c t / z
    S = (2.0 * num) * T / Z
    return v0 * Z[seg] + v1 * Z[seg + 1] + (s0 * S[seg] + s1 * S[seg + 1])


def _solve_block(z, t, half: float, num: float) -> int:
    """Newton's method for the RK4 values z[1:] of one block, in place.

    z[0] is the block's given start, and z[1:] is first the prediction; t
    are the block's nodes and num = (h/2) c.  A step is settled when its
    residual r_i = F_i(z_i) - z_{i+1}, with F_i the RK4 step, is at most
    one ulp of z_{i+1} (so never when non-finite).  While a step is
    unsettled, and for at most _NEWTON iterations, the values move by the
    solution of d_{i+1} = F_i'(z_i) d_i + r_i, d_0 = 0, which cumprod and
    cumsum give.  Returns the first unsettled step (the block's step count
    if there is none).
    """
    A = num * t
    M = num * (t[:-1] + half)
    zi, z1 = z[:-1], z[1:]
    for it in range(_NEWTON + 1):
        # _march's stages, on every step at once
        p1 = A[:-1] / zi
        u1 = zi + p1
        p2 = M / u1
        u2 = zi + p2
        p3 = M / u2
        u3 = zi + 2.0 * p3
        p4 = A[1:] / u3
        r = zi + (p1 + p4 + 2.0 * (p2 + p3)) / 3.0 - z1
        settled = np.abs(r) <= np.spacing(np.abs(z1))
        if settled.all():
            return len(z1)
        if it == _NEWTON:
            return int(settled.argmin())
        # F' by the chain rule through the stages, each e_k = -p_k'
        e1 = p1 / zi
        e2 = p2 * (1.0 - e1) / u1
        e3 = p3 * (1.0 - e2) / u2
        e4 = p4 * (1.0 - 2.0 * e3) / u3
        gain = np.cumprod(1.0 - (e1 + e4 + 2.0 * (e2 + e3)) / 3.0)
        z1 += gain * np.cumsum(r / gain)


def _continue(z, t, half: float, num: float) -> int:
    """The step loop in place along z from z[0] over the nodes t.

    Steps on Python floats.  Returns the number of steps it took, fewer
    than len(t) - 1 when the next one divides by zero.
    """
    A = (num * t).tolist()
    M = (num * (t[:-1] + half)).tolist()
    out = []
    try:
        _march(float(z[0]), A, M, A[1:], out)
    except ZeroDivisionError:
        pass
    z[1:len(out) + 1] = out
    return len(out)


def rk4_solve_phase_ode(cos_theta, sin_theta, t0, y0, t1, step) -> GridFunction:
    """RK4 of the constant-phase ODE y' = (t sin + y cos)/(y sin - t cos).

    With r = cos/sin and c = 1 + r^2 (so sin != 0, ValueError otherwise),
    t + y r = c t + z r for the deviation z = y - t r from the singular
    line, so the ODE is exactly z' = c t / z.  RK4 commutes with this
    affine change of variable (its weights sum to 1 and each stage's node
    offset is the sum of its coefficients), so integrating z and forming
    y = z + t r once, at the nodes, gives the iterates of RK4 on y up to
    rounding.  A step is 14 float operations (see _march).

    The recurrence z_{i+1} = F_i(z_i) is solved _BLOCK steps at a time,
    each block from the last value of the one before: a coarse RK4 and a
    Hermite interpolant predict it (_predict), and Newton's method on all
    of its steps at once corrects it until every step's residual is at
    most one ulp (_solve_block).  From the first step of a block that does
    not settle, the step loop runs to the end (_continue).  The kernel
    reads only cos, sin and the ends, no closed-form quantity.  _steps,
    _nodes and _grid give the step count, the nodes and the blow-up (z = 0
    is the singular line).
    A step that leaves the solution (see _grid) is a blow-up too, because
    the solution ends on the singular line there.
    """
    cos_t, sin_t, t0, y0, t1 = map(float, (cos_theta, sin_theta, t0, y0, t1))
    if sin_t == 0.0:
        raise ValueError("the phase ODE needs sin(theta) != 0")
    n, h = _steps(t0, t1, step)
    r = cos_t / sin_t
    half = 0.5 * h
    num = half * (1.0 + r * r)
    nodes = _nodes(t0, h, n)
    z = np.empty(n + 1)
    z[0] = y0 - t0 * r
    done = n
    with np.errstate(all="ignore"):
        for a in range(0, n, _BLOCK):
            block, t = z[a:a + _BLOCK + 1], nodes[a:a + _BLOCK + 1]
            block[1:] = _predict(float(block[0]), t, half, num)[1:]
            first = a + _solve_block(block, t, half, num)
            if first < a + len(t) - 1:
                done = first + _continue(z[first:], nodes[first:], half, num)
                break
    if done < n:
        last = float(nodes[done])
        raise IntegrationError(
            f"right-hand side blew up near t = {last}", location=last
        )
    return _grid(nodes, h, z, slope=r)


#: The Gauss-Kronrod pair G7-K15 on [-1, 1] (QUADPACK's qk15): the
#: nonnegative Kronrod nodes, decreasing to 0, their weights, and the weights
#: of the 7-point Gauss rule on every second of those nodes, from the second.
_KRONROD_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0)
_KRONROD_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_W = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _rule():
    """The 15 nodes in increasing order, and the (2, 15) weights of K15 and
    of G7 on them (0 off the Gauss nodes)."""
    x, wk = np.array(_KRONROD_X), np.array(_KRONROD_W)
    wg = np.zeros(8)
    wg[1::2] = _GAUSS_W
    nodes = np.concatenate((-x[:-1], x[::-1]))
    weights = np.array([np.concatenate((w[:-1], w[::-1])) for w in (wk, wg)])
    for a in (nodes, weights):
        a.flags.writeable = False
    return nodes, weights


_NODES, _WEIGHTS = _rule()
#: Most panels evaluated by one call of the integrand (15 points each).
#: Quadrature works through its open panels as a depth-first stack of
#: batches of at most this size, so memory stays bounded and an integrand
#: that never converges gives up after O(QUADRATURE_DEPTH * _PANEL_BATCH)
#: points.
_PANEL_BATCH = 256
#: Tolerance of quadrature, relative to max(1, |the integral's K15 over
#: [a, b]|), and the level of bisection at which it gives up.
QUADRATURE_TOL = 1e-10
QUADRATURE_DEPTH = 40


def quadrature(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Adaptive Gauss-Kronrod (G7-K15) integral of f on [a, b].

    ``f`` maps an array of points to an array of values of the same shape;
    a scalar is not broadcast.  With tol = QUADRATURE_TOL max(1, |K|), K
    the 15-point estimate over all of [a, b] (the absolute QUADRATURE_TOL
    if K is not finite), a panel [lo, hi] is accepted when its 15- and
    7-point estimates agree to tol (hi - lo) / (b - a), and it contributes
    its 15-point estimate; otherwise it is bisected.  The open panels are
    evaluated together, in batches of at most _PANEL_BATCH, depth first
    from the left.  A panel still open at level QUADRATURE_DEPTH raises
    IntegrationError at its midpoint, with its 15-point estimate.
    """
    if not a < b:
        raise ValueError("need a < b")
    width = b - a
    tol = None
    # a batch: its level and its panels' ends
    stack = [(0, np.array([a]), np.array([b]))]
    accepted = []
    while stack:
        level, lo, hi = stack.pop()
        half = 0.5 * (hi - lo)
        mid = lo + half
        t = mid + np.multiply.outer(_NODES, half)
        values = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
        kronrod, gauss = half * (_WEIGHTS @ values)
        if tol is None:
            scale = abs(float(kronrod[0]))
            tol = QUADRATURE_TOL * (scale if 1.0 < scale < math.inf else 1.0)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, never accepted
            done = np.abs(kronrod - gauss) <= tol * ((hi - lo) / width)
        accepted.append(kronrod[done])
        if done.all():
            continue
        if level >= QUADRATURE_DEPTH:
            first = int(done.argmin())
            raise IntegrationError(
                "quadrature failed to converge",
                location=float(mid[first]),
                estimate=float(kronrod[first]),
            )
        # children in left-to-right order, the leftmost batch on top
        keep = ~done
        lo, mid, hi = lo[keep], mid[keep], hi[keep]
        lo, hi = np.stack((lo, mid), -1).ravel(), np.stack((mid, hi), -1).ravel()
        for first in reversed(range(0, len(lo), _PANEL_BATCH)):
            batch = slice(first, first + _PANEL_BATCH)
            stack.append((level + 1, lo[batch], hi[batch]))
    return math.fsum(np.concatenate(accepted).tolist())


#: Fraction bits of the fixed point in which eval_psi_highprec evaluates.
_FIX = 200


def _to_fixed(v) -> int:
    """floor(v 2^_FIX) of an exact rational (a Decimal or a float)."""
    n, d = v.as_integer_ratio()
    return (n << _FIX) // d


def _highprec_constants(k, h, kprime, k1, k2):
    """(C', c2, c3, cR, d0, d1) of the smooth profile in 60-digit Decimal.

    Re-derives every constant (phase, coupling, coefficients) from scratch,
    from the inputs, which float -> Decimal takes exactly.  Raises
    ValueError unless k1 < 0, k2 != 0 and the class is strictly stable,
    its margin (1 + (k1 + k2)^2) - x (1 + (k1 - k2)^2) computed in the same
    60 digits.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        D = Decimal
        k_, h_, kp = D(k), D(h), D(kprime)
        k1_, k2_ = D(k1), D(k2)
        if k2_ == 0:
            raise ValueError("requires k2 != 0")
        x = k_ / (k_ + kp)
        ss = 2 * (1 - h_) / k_
        s_hat = 2 * x * ss + 2
        r_hat = ((1 - k1_ ** 2 + k2_ ** 2) ** 2 + 4 * k1_ ** 2).sqrt()
        sin_t = -2 * k1_ / r_hat
        cos_t = (1 - k1_ ** 2 + k2_ ** 2) / r_hat
        if sin_t <= 0:
            raise ValueError("requires the canonical branch k1 < 0")
        margin = (1 + (k1_ + k2_) ** 2) - x * (1 + (k1_ - k2_) ** 2)
        if margin <= 0:
            raise ValueError(f"requires strict stability, margin {float(margin)!r}")
        num = -2 * k2_ * (
            1 + (k1_ + k2_) ** 2 - x ** 2 - (k1_ - k2_) ** 2 * x ** 2
        )
        Cprime = num / (x ** 2 * r_hat) * sin_t
        B2 = 1 + (k1_ - k2_) ** 2
        alpha = r_hat * (-2 + ss * x) / (2 * B2 * k2_ ** 2)
        c2 = ss
        c3 = (alpha / 3) * cos_t / sin_t ** 2 - (s_hat - alpha * r_hat) / 6
        cR = -(alpha / 3) / sin_t ** 2
        d0 = -(
            (-2 + ss * x)
            * (-3 - 3 * k1_ ** 2 - 2 * k1_ * k2_ - 3 * k2_ ** 2 + 3 * B2 * x ** 2)
        ) / (3 * B2 * x ** 3)
        d1 = -(
            (-2 * (1 + k1_ ** 2 + k2_ ** 2) + B2 * ss * x) * (-1 + x ** 2)
        ) / (4 * k1_ * k2_ * x ** 2)
    return Cprime, c2, c3, cR, d0, d1


def eval_psi_highprec(k, h, kprime, k1, k2, ts) -> np.ndarray:
    """Smooth-profile values recomputed in extended precision.

    Used where the double evaluation of the basis loses all significance:
    for strongly scaled classes the cubic and radical terms are ~1e15
    times larger than psi itself.  The constants come from
    _highprec_constants, in 60-digit Decimal (ValueError unless k1 < 0,
    k2 != 0 and strict stability).  Each point is evaluated in integers at
    scale 2^200: T = floor(t 2^200), of the double product, which is exact
    while it is finite; u = max(T^2 + C', 0) and
    R = sqrt(u) by math.isqrt, psi = d0 + d1 T + c2 T^2 + c3 T^3 by Horner
    plus cR u R, each product floored back to the scale; the result is
    psi / 2^200 correctly rounded.  Every step loses less than 2^-200
    (about 6e-61) absolute, finer than 60 digits of terms up to ~1e17.
    """
    Cprime, c2, c3, cR, d0, d1 = map(
        _to_fixed, _highprec_constants(k, h, kprime, k1, k2)
    )
    fix, one, scale = _FIX, 1 << _FIX, 2.0 ** _FIX
    floor, isqrt = math.floor, math.isqrt
    out = []
    append = out.append
    for t in np.atleast_1d(np.asarray(ts, dtype=float)).tolist():
        # the product is exact, so its floor is _to_fixed(t)
        T = floor(t * scale)
        u = (T * T >> fix) + Cprime
        if u < 0:
            u = 0
        root = isqrt(u << fix)
        psi = (c3 * T >> fix) + c2
        psi = (psi * T >> fix) + d1
        psi = (psi * T >> fix) + d0
        psi += (cR * u >> fix) * root >> fix
        append(psi / one)
    return np.asarray(out)
