"""Parameter model for the ruled surface and the line-bundle class.

The surface is the projectivization of (degree-k line bundle) + (trivial
bundle) over a genus-h curve, carrying the Kaehler class 2*pi*[2 E0 + k' C].
The curvature class is parametrized by the two reals (k1, k2).  Everything
downstream (phase constant, stability, cohomology bookkeeping) is a pure
function of these inputs, resolved once per class by ``pose``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

from .errors import DegenerateClassError, DegeneratePhaseError, ValidationError

#: Semistable half-band, the exit-code contract: margins within rounding of 0.
#: It guards no accuracy, as H(t_minus) is exact for every margin (u_minus).
STABILITY_TOL = 1e-12


@dataclass(frozen=True)
class SurfaceParams:
    """Base data of the ruled surface and its Kaehler class.

    k is the degree of the line bundle over the curve, h the genus of the
    curve, kprime > 0 the fiber-class coefficient of the Kaehler class.
    The derived quantities are x = k/(k+k') and the (constant) base scalar
    curvature s_sigma = 2(1-h)/k.
    """

    k: int
    h: int
    kprime: float
    x: float
    s_sigma: float


@dataclass(frozen=True)
class BundleClass:
    """Curvature class parameters (k1, k2).

    ``conjugated`` records that the input had k1 > 0 and was reduced via the
    symmetry (k1, k2) -> (-k1, -k2); solutions for the original data are the
    negatives of the solutions computed from the reduced data.  Non-finite
    k1 or k2 is rejected on construction, and both are stored as floats, so
    that equal classes (which share one memoised ``pose``) print alike.
    """

    k1: float
    k2: float
    conjugated: bool = False

    def __post_init__(self):
        for name in ("k1", "k2"):
            value = getattr(self, name)
            _require_finite(name, value)
            object.__setattr__(self, name, float(value))


class StabilityClass(enum.Enum):
    STABLE = "Stable"
    SEMISTABLE = "Semistable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class Phase:
    """The constant phase, stored as a (cos, sin) pair.

    The angle itself is never materialized: every closed form downstream uses
    only cos, sin and cot.  r_hat is the average radius.
    """

    cos_theta: float
    sin_theta: float
    r_hat: float

    @property
    def cot_theta(self) -> float:
        if self.sin_theta == 0.0:
            raise DegeneratePhaseError("sin(theta) = 0: cot undefined")
        return self.cos_theta / self.sin_theta


@dataclass(frozen=True)
class CohClass:
    """A (1,1) cohomology class, as coefficients of [. /(2 pi)].

    ``a`` multiplies the zero section [E0], ``b`` the fiber [C].
    """

    a: float
    b: float


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def require_cone_angle(beta0: float) -> float:
    """beta0 itself, when it lies in (0, 1]; NaN never does."""
    if not (0.0 < beta0 <= 1.0):
        raise ValidationError(f"beta0 must lie in (0, 1], got {beta0!r}")
    return beta0


def make_surface(k: int, h: int, kprime: float) -> SurfaceParams:
    """Build SurfaceParams, deriving x and s_sigma."""
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if not (isinstance(h, int) and h >= 0):
        raise ValidationError(f"h must be a non-negative integer, got {h!r}")
    kprime = float(kprime)
    _require_finite("kprime", kprime)
    if not (kprime > 0):
        raise ValidationError(f"kprime must be positive, got {kprime!r}")
    try:
        x = k / (k + kprime)
        s_sigma = 2.0 * (1 - h) / k
    except OverflowError:
        raise ValidationError(f"k = {k!r} or h = {h!r} is out of float range") from None
    return SurfaceParams(k=k, h=h, kprime=kprime, x=x, s_sigma=s_sigma)


def canonicalize(b: BundleClass) -> BundleClass:
    """Reduce to the k1 < 0 convention via (k1, k2) -> (-k1, -k2).

    Classes with k1 = 0 or k2 = 0 are rejected: the explicit solutions divide
    by k1, k2 and sin(theta), and these cases are trivial anyway.
    """
    if b.k1 == 0.0:
        raise DegenerateClassError("degenerate bundle class: k1 = 0")
    if b.k2 == 0.0:
        raise DegenerateClassError("degenerate bundle class: k2 = 0")
    if b.k1 > 0:
        return replace(b, k1=-b.k1, k2=-b.k2, conjugated=not b.conjugated)
    return b


def stability_margin(s: SurfaceParams, b: BundleClass) -> float:
    """(1 + (k1+k2)^2) - x (1 + (k1-k2)^2); positive iff strictly stable."""
    return (1.0 + (b.k1 + b.k2) ** 2) - s.x * (1.0 + (b.k1 - b.k2) ** 2)


def classify(margin: float) -> StabilityClass:
    if abs(margin) <= STABILITY_TOL:
        return StabilityClass.SEMISTABLE
    return StabilityClass.STABLE if margin > 0 else StabilityClass.UNSTABLE


def phase_constant(b: BundleClass) -> Phase:
    """Phase of the class pairing: (cos, sin) = (1 - k1^2 + k2^2, -2 k1)/r_hat."""
    re = 1.0 - b.k1 ** 2 + b.k2 ** 2
    im = -2.0 * b.k1
    r_hat = math.hypot(re, im)
    if r_hat == 0.0:
        raise DegeneratePhaseError("phase numerator vanishes")
    return Phase(cos_theta=re / r_hat, sin_theta=im / r_hat, r_hat=r_hat)


@dataclass(frozen=True)
class Problem:
    """Everything the class data fixes, resolved once by ``pose``.

    ``bundle`` is the canonical (k1 < 0) class with its conjugation flag, and
    s_hat = 2 x s_sigma + 2 is the average scalar curvature of the surface.
    C is the integration constant of the separated ODE and
    C' = C sin(theta).  [t_minus, t_plus] is the momentum interval
    [1/x - 1, 1/x + 1], and u_minus = t_minus^2 + C' = (margin / (x r_hat))^2
    without cancellation, so H(t_minus) is exact for every margin.
    """

    surface: SurfaceParams
    bundle: BundleClass
    phase: Phase
    s_hat: float
    margin: float
    stability: StabilityClass
    C: float
    Cprime: float
    u_minus: float
    t_minus: float
    t_plus: float


@functools.lru_cache(maxsize=16)
def pose(s: SurfaceParams, b: BundleClass) -> Problem:
    """Canonicalize, classify and phase the class; the gate of every solver.

    Raises ValidationError when a derived quantity is not finite, or when a
    divisor of the closed forms downstream is zero: inputs so large or so
    small that double precision over- or underflows on them.

    Memoised: each stage of one solve poses the same class again, and the
    inputs and the result are frozen.  Equal inputs share one Problem; an
    input that raises is not remembered and raises again.
    """
    b = canonicalize(b)
    x = s.x
    try:
        margin = stability_margin(s, b)
        phase = phase_constant(b)
        num = -2.0 * b.k2 * (
            1.0 + (b.k1 + b.k2) ** 2 - x ** 2 - (b.k1 - b.k2) ** 2 * x ** 2
        )
        C = num / (x ** 2 * phase.r_hat)
        # t_minus^2 + C' = margin^2 / (x^2 A B), and r_hat^2 = A B
        u_minus = (margin / (x * phase.r_hat)) ** 2
        t_minus = 1.0 / x - 1.0
        t_plus = 1.0 / x + 1.0
        # the coupling constant, the radical coefficient, d0, d1 and
        # phi = psi/(2t) divide by these
        divisors = (b.k2 ** 2 * x, phase.sin_theta ** 3, x ** 3,
                    b.k1 * b.k2 * x ** 2, t_minus)
        # (t_plus^2 + |C|)^1.5 bounds the largest basis term of the profile
        in_range = 0.0 not in divisors and all(
            map(math.isfinite, (margin, phase.r_hat, C, (t_plus ** 2 + abs(C)) ** 1.5))
        )
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise ValidationError(
            f"class (k1, k2) = ({b.k1!r}, {b.k2!r}) at x = {x!r} is out of"
            " double-precision range"
        )
    return Problem(
        surface=s, bundle=b, phase=phase, s_hat=2.0 * x * s.s_sigma + 2.0,
        margin=margin, stability=classify(margin),
        C=C, Cprime=C * phase.sin_theta, u_minus=u_minus, t_minus=t_minus,
        t_plus=t_plus,
    )


def cohomology_classes(s: SurfaceParams, b: BundleClass) -> tuple[CohClass, CohClass]:
    """Classes of the Kaehler form and of the curvature form."""
    omega = CohClass(a=2.0, b=s.kprime)
    f = CohClass(
        a=2.0 * (b.k1 - b.k2),
        b=2.0 * s.k * b.k2 + s.kprime * (b.k1 + b.k2),
    )
    return omega, f


def intersection_pairing(u: CohClass, v: CohClass, k: int) -> float:
    """Pairing in the ([E0], [C]) basis: E0.E0 = k, C.C = 0, C.E0 = 1."""
    return u.a * v.a * k + u.a * v.b + u.b * v.a


def jy_class(s: SurfaceParams, b: BundleClass) -> tuple[CohClass, bool]:
    """Class of cot(theta)*omega - F and whether it lies in the Kaehler cone.

    Positivity of this class is equivalent to the strict stability
    inequality.
    """
    cot = phase_constant(b).cot_theta
    omega, f = cohomology_classes(s, b)
    cls = CohClass(a=cot * omega.a - f.a, b=cot * omega.b - f.b)
    return cls, (cls.a > 0 and cls.b > 0)


def from_complexified(
    k: int, h: int, kprime: float, kpp: float
) -> tuple[SurfaceParams, BundleClass]:
    """B-field parametrization: k1 = k2 = k''/(2(k + k')).

    k'' > 0 is reduced by the conjugation symmetry (flag recorded); k'' = 0
    would require a constant-scalar-curvature metric, which does not exist on
    these surfaces.
    """
    _require_finite("kpp", kpp)
    if kpp == 0.0:
        raise ValidationError("kpp = 0: no canonical representative exists")
    s = make_surface(k, h, kprime)
    k12 = kpp / (2.0 * (k + kprime))
    return s, canonicalize(BundleClass(k1=k12, k2=k12))


def bfield_alpha(k: int, h: int, kprime: float, kpp: float, beta0: float) -> float:
    """Coupling constant of the canonical B-field representative.

    Agrees with the conical coupling constant under the substitution
    k1 = k2 = k''/(2(k + k')).
    """
    if kpp == 0.0:
        raise ValidationError("kpp must be nonzero")
    require_cone_angle(beta0)
    s = make_surface(k, h, kprime)
    bracket = (
        k ** 2 * (-6.0 * beta0 + s.s_sigma + 4.0)
        + (7.0 - 9.0 * beta0) * k * kprime
        - 3.0 * (beta0 - 1.0) * kprime ** 2
    )
    return 2.0 * math.hypot(k + kprime, kpp) * bracket / (k * kpp ** 2)
