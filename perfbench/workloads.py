"""Seeded operation streams for the three benchmark workloads.

This module knows nothing of the package under test: it builds argv lists and
oracle-task parameters from a ``random.Random`` seeded by the benchmark's
``--seed``, and derives every expected exit code from the stability margin
computed exactly, in ``fractions.Fraction`` arithmetic, on the float inputs.

Each workload is an endless stream of *cycles*.  A cycle has a fixed list of
operation kinds, and the seed draws the inputs inside each slot.  Fixed slots
keep the mix of fast and slow operations, and so the latency quantiles,
the same from seed to seed; the seed only moves the classes and sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

#: Half-width of the program's semistable band (``--tol`` default).  No class
#: is drawn within a thousand times this of margin zero, except the exactly
#: semistable families below.
SEMISTABLE_TOL = 1e-12

EXIT_OK, EXIT_SEMISTABLE, EXIT_UNSTABLE = 0, 2, 3

#: (k1, k2, kprime / k) with margin exactly zero for every k >= 1 (x = k/(k+k')).
SEMISTABLE_FAMILIES = (
    (-1.0, 1.0, 4.0),
    (-2.0, 1.0, 4.0),
    (-1.0, 2.0, 4.0),
    (-2.0, 2.0, 16.0),
    (-0.5, 0.5, 1.0),
    (-1.5, 0.5, 1.5),
)

LARGE_ALPHAS = "1e-1,1e-2,1e-3,1e-4"
SMALL_ALPHAS = "1e2,1e3,1e4"

WORKLOADS = ("solve_mix", "profile_table", "verify_oracles")

#: CPU seconds of one cycle on the machine the benchmark was sized on (a
#: 2-vCPU Xeon virtual machine, Python 3.11, numpy 2.4).  A run executes
#: ``cycles_for(workload, seconds)`` whole cycles, so every run of a workload
#: attempts the same number of operations, and takes about ``seconds`` there.
NOMINAL_CYCLE_S = {"solve_mix": 0.115, "profile_table": 6.2, "verify_oracles": 0.8}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind`` is a CLI subcommand (``argv`` set) or an oracle task
    (``rk4``, ``quadrature``, ``highprec``).  ``cls`` is the class data
    (k, h, kprime, k1, k2) exactly as handed to the program; ``expected`` is
    the exit code the stability oracle predicts.
    """

    kind: str
    label: str
    argv: tuple = ()
    cls: tuple = ()
    expected: int = EXIT_OK
    beta0: float = 1.0
    samples: int = 0
    alpha_prime: float | None = None


# ---------------------------------------------------------------- oracle


def exact_margin(k, kprime, k1, k2) -> Fraction:
    """(1 + (k1+k2)^2) - x (1 + (k1-k2)^2), x = k/(k+k'), exactly."""
    k, kprime, k1, k2 = (Fraction(v) for v in (k, kprime, k1, k2))
    x = k / (k + kprime)
    return (1 + (k1 + k2) ** 2) - x * (1 + (k1 - k2) ** 2)


def complexified_class(k, kprime, kpp) -> tuple[Fraction, Fraction]:
    """(k1, k2) = (k'', k'') / (2 (k + k')), exactly."""
    k12 = Fraction(kpp) / (2 * (Fraction(k) + Fraction(kprime)))
    return k12, k12


def expected_code(k, kprime, k1, k2, alpha_prime=None) -> int:
    """Exit code the stability margin predicts for ``solve``/``profile``/``check``.

    Stable gives 0, exactly semistable gives 2 (with ``--allow-semistable``
    the solution is Hoelder-1/2 and exits 2; without it the gate exits 2),
    unstable gives 3.  ``alpha_prime`` scales the class first.
    """
    if alpha_prime is not None:
        a = Fraction(alpha_prime)
        k1, k2 = a * Fraction(k1), a * Fraction(k2)
    m = exact_margin(k, kprime, k1, k2)
    if m == 0:
        return EXIT_SEMISTABLE
    if abs(m) <= 1000 * SEMISTABLE_TOL:
        raise ValueError(f"class inside the semistable band: margin {float(m)!r}")
    return EXIT_OK if m > 0 else EXIT_UNSTABLE


def beta_asymptote(k, kprime, h) -> Fraction:
    """Vertical asymptote of the cone-angle matching function, exactly."""
    k, kprime, h = Fraction(k), Fraction(kprime), Fraction(h)
    return (Fraction(4, 3) * k + kprime + 2 * (1 - h) * k / (3 * (k + kprime))) / (
        kprime + 2 * k
    )


def matching_parts(k, kprime, h, beta) -> tuple[Fraction, Fraction]:
    """Numerator and denominator of H(k, k', h, beta) = 2 num / den, exactly."""
    k, kprime, h, beta = (Fraction(v) for v in (k, kprime, h, beta))
    a = 2 * (1 - h) / (k + kprime)
    num = a + 2 * (beta - 1) * k / kprime - 1
    den = a + 3 * (kprime / k) * (1 - beta) + 4 - 6 * beta
    return num, den


def tke_condition(k, kprime, h, k1, k2, beta0) -> Fraction:
    """Twisted Kaehler-Einstein condition, left minus right side, exactly.

    (k1, k2) is the canonical (k1 < 0) class.
    """
    k, kprime, h = Fraction(k), Fraction(kprime), Fraction(h)
    k1, k2, b = Fraction(k1), Fraction(k2), Fraction(beta0)
    x = k / (k + kprime)
    ss = 2 * (1 - h) / k
    lhs = (1 + k1 ** 2 + k2 ** 2) * (x - 1) * (ss * x ** 2 - 3 * b * (x + 1) + x + 3)
    rhs = 2 * k1 * k2 * (-3 * b + ss * x ** 3 - x ** 2 * (b + ss - 1) + 3)
    return lhs - rhs


# ---------------------------------------------------------------- draws


def _surface(rng, h_max=2):
    return rng.randint(1, 3), rng.randint(0, h_max), float(rng.randint(1, 6))


def _draw(rng, accept, h_max=2):
    while True:
        k, h, kp = _surface(rng, h_max)
        k1 = -rng.uniform(0.2, 3.0)
        k2 = rng.uniform(0.2, 3.0) * rng.choice((-1.0, 1.0))
        if accept(k, kp, k1, k2):
            return k, h, kp, k1, k2


def draw_stable(rng, floor=0.05):
    return _draw(rng, lambda k, kp, k1, k2: exact_margin(k, kp, k1, k2) > floor)


def draw_unstable(rng):
    return _draw(rng, lambda k, kp, k1, k2: exact_margin(k, kp, k1, k2) < -0.05)


def draw_semistable(rng):
    k1, k2, ratio = rng.choice(SEMISTABLE_FAMILIES)
    k = rng.choice((2, 4))  # even k keeps kprime = 1.5 k integral
    if rng.random() < 0.5:  # mirrored input, reduced by the program
        k1, k2 = -k1, -k2
    return k, rng.randint(0, 2), ratio * k, k1, k2


def draw_near_semistable(rng):
    """A stable class whose exact margin is 10^U(-6, -2)."""
    while True:
        k, h, kp = _surface(rng)
        x = k / (k + kp)
        k1 = -rng.uniform(0.2, 3.0)
        eps = 10.0 ** rng.uniform(-6.0, -2.0)
        # margin(k2) = (1-x) k2^2 + 2 k1 (1+x) k2 + (1-x)(1+k1^2)
        a, b, c = 1.0 - x, 2.0 * k1 * (1.0 + x), (1.0 - x) * (1.0 + k1 * k1) - eps
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        k2 = (-b + math.sqrt(disc)) / (2.0 * a)
        m = exact_margin(k, kp, k1, k2)
        if eps / 2 < m < 2 * eps:
            return k, h, kp, k1, k2


def draw_small_limit(rng):
    """Stable class that also meets the infinite-slope inequality."""

    def accept(k, kp, k1, k2):
        x = Fraction(k) / (k + Fraction(kp))
        k1f, k2f = Fraction(k1), Fraction(k2)
        return (
            exact_margin(k, kp, k1, k2) > 0.05
            and (k1f + k2f) ** 2 > Fraction(11, 10) * x * (k1f - k2f) ** 2
            and abs(k1f ** 2 - k2f ** 2) > Fraction(1, 10)
        )

    return _draw(rng, accept)


def draw_tke(rng):
    """Same-sign class whose cone angle exists in (beta_bar, 1)."""
    while True:
        k, h, kp = _surface(rng, h_max=6)
        k1, k2 = -rng.uniform(0.2, 3.0), -rng.uniform(0.2, 3.0)
        bb = beta_asymptote(k, kp, h)
        if not Fraction(1, 100) < bb < Fraction(99, 100):
            continue
        f = (1 + (Fraction(k1) + Fraction(k2)) ** 2) / (2 * Fraction(k1) * Fraction(k2))
        num, den = matching_parts(k, kp, h, 1)
        if f > 2 * num / den + Fraction(1, 100):
            return k, h, kp, k1, k2


# ---------------------------------------------------------------- argv


def _class_args(cls):
    k, h, kp, k1, k2 = cls
    return ("--k", str(k), "--h", str(h), f"--kprime={kp!r}", f"--k1={k1!r}", f"--k2={k2!r}")


def solve_op(label, cls, beta0=None, alpha_prime=None, allow_semistable=False):
    argv = ("solve",) + _class_args(cls)
    if beta0 is not None:
        argv += (f"--beta0={beta0!r}",)
    if alpha_prime is not None:
        argv += (f"--alpha-prime={alpha_prime!r}",)
    if allow_semistable:
        argv += ("--allow-semistable",)
    k, _, kp, k1, k2 = cls
    return Op(
        "solve", label, argv, cls, expected_code(k, kp, k1, k2, alpha_prime),
        beta0=1.0 if beta0 is None else beta0, alpha_prime=alpha_prime,
    )


def complexified_op(rng):
    k, h, kp = _surface(rng)
    kpp = rng.uniform(0.2, 4.0) * rng.choice((-1.0, 1.0))
    argv = ("solve", "--k", str(k), "--h", str(h), f"--kprime={kp!r}",
            "--complexified", f"--kpp={kpp!r}")
    k1, k2 = complexified_class(k, kp, kpp)
    return Op("solve", "complexified", argv, (k, h, kp, float(k1), float(k2)),
              expected_code(k, kp, k1, k2))


def check_op(label, cls):
    k, _, kp, k1, k2 = cls
    return Op("check", label, ("check",) + _class_args(cls), cls,
              expected_code(k, kp, k1, k2))


def tke_op(rng):
    cls = draw_tke(rng)
    return Op("tke", "solve-beta", ("tke",) + _class_args(cls) + ("--solve-beta",), cls)


def profile_op(label, cls, samples, beta0=None, semistable=False):
    argv = ("profile",) + _class_args(cls) + (f"--samples={samples}",)
    if beta0 is not None:
        argv += (f"--beta0={beta0!r}",)
    if semistable:
        argv += ("--allow-semistable",)
    k, _, kp, k1, k2 = cls
    return Op("profile", label, argv, cls, expected_code(k, kp, k1, k2),
              beta0=1.0 if beta0 is None else beta0, samples=samples)


def figure2_op(rng, samples):
    k, h, kp = rng.randint(1, 3), rng.randint(0, 6), float(rng.randint(1, 6))
    argv = ("figure2", "--k", str(k), "--h", str(h), f"--kprime={kp!r}",
            f"--samples={samples}")
    return Op("figure2", "curve", argv, (k, h, kp), samples=samples)


def limits_op(mode, cls):
    alphas = LARGE_ALPHAS if mode == "large" else SMALL_ALPHAS
    argv = ("limits",) + _class_args(cls) + ("--mode", mode, f"--alphas={alphas}")
    return Op("limits", mode, argv, cls)


def _jitter(rng, n):
    """n plus up to 2%, so that sizes differ from seed to seed."""
    return n + rng.randrange(n // 50 + 1)


# ---------------------------------------------------------------- cycles


def _solve_mix_cycle(rng):
    ops = [solve_op("smooth", draw_stable(rng)) for _ in range(3)]
    ops += [solve_op("conical", draw_stable(rng), beta0=rng.uniform(0.1, 1.0))
            for _ in range(3)]
    for _ in range(2):
        k, h, kp, k1, k2 = draw_stable(rng)
        ops.append(solve_op("conjugated", (k, h, kp, -k1, -k2)))
    ops += [complexified_op(rng) for _ in range(2)]
    ops.append(solve_op("semistable", draw_semistable(rng), allow_semistable=True))
    ops.append(solve_op("near-semistable", draw_near_semistable(rng)))
    ops.append(solve_op("unstable", draw_unstable(rng)))
    # one scaling per decade; the middle decade uses the figure-1 class
    ops.append(solve_op("alpha-prime", draw_stable(rng),
                        alpha_prime=10.0 ** rng.uniform(-2.0, -1.0)))
    ops.append(solve_op("alpha-prime", (1, 0, 5.0, -1.0, 1.0),
                        alpha_prime=10.0 ** rng.uniform(-3.0, -2.0)))
    ops.append(solve_op("alpha-prime", draw_stable(rng),
                        alpha_prime=10.0 ** rng.uniform(-4.0, -3.0)))
    ops.append(check_op("stable", draw_stable(rng)))
    ops.append(check_op("semistable", draw_semistable(rng)))
    ops.append(check_op("unstable", draw_unstable(rng)))
    ops.append(tke_op(rng))
    return ops


#: Profile sizes per cycle, in three bands of three: the median falls in the
#: two-thousand-row band and the tail (ten samples beyond it) in the
#: four-thousand-row band, for the four cycles of a 25-second run.
def _profile_table_cycle(rng, scale=1):
    def n(base):
        return max(11, _jitter(rng, base) // scale)

    return [
        profile_op("smooth", draw_stable(rng), n(1000)),
        profile_op("conical", draw_stable(rng), n(1000), beta0=rng.uniform(0.1, 1.0)),
        figure2_op(rng, n(50000)),
        profile_op("semistable", draw_semistable(rng), n(2000), semistable=True),
        profile_op("smooth", draw_stable(rng), n(2000)),
        profile_op("conical", draw_stable(rng), n(2000), beta0=rng.uniform(0.1, 1.0)),
        profile_op("conical", draw_stable(rng), n(4000), beta0=rng.uniform(0.1, 1.0)),
        profile_op("smooth", draw_stable(rng), n(4000)),
        profile_op("semistable", draw_semistable(rng), n(4000), semistable=True),
        profile_op("smooth", draw_stable(rng), n(10000)),
    ]


def draw_figure1_like(rng):
    """The figure-1 surface with (k1, k2) within 10% of (-1, 1).

    Quadrature cost varies by two orders of magnitude across random classes
    (from about a hundred integrand calls to ten thousand); near the figure-1
    class it is steady at the expensive end, the case the oracle is slow on.
    """
    while True:
        k1, k2 = -rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1)
        if exact_margin(1, 5.0, k1, k2) > 0.05:
            return 1, 0, 5.0, k1, k2


def _verify_oracles_cycle(rng):
    ops = [Op("rk4", "phase-ode", cls=draw_stable(rng)) for _ in range(6)]
    ops.append(Op("quadrature", "smooth", cls=draw_figure1_like(rng)))
    ops.append(Op("quadrature", "conical", cls=draw_figure1_like(rng),
                  beta0=rng.uniform(0.1, 1.0)))
    ops.append(Op("quadrature", "smooth", cls=draw_figure1_like(rng)))
    ops.append(limits_op("large", draw_stable(rng)))
    ops.append(limits_op("small", draw_small_limit(rng)))
    # scaled classes (k1, k2) = (-a, a), where double precision cancels;
    # k' >= 5k keeps every a <= 1 strictly stable
    k = rng.randint(1, 2)
    a = 10.0 ** rng.uniform(-4.0, 0.0)
    cls = (k, rng.randint(0, 2), float(k * rng.randint(5, 7)), -a, a)
    ops.append(Op("highprec", "scaled", cls=cls, samples=401))
    return ops


_CYCLES = {
    "solve_mix": _solve_mix_cycle,
    "profile_table": _profile_table_cycle,
    "verify_oracles": _verify_oracles_cycle,
}


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles for a run of ``seconds``; two at least, so the tail exists."""
    return max(2, round(seconds / NOMINAL_CYCLE_S[workload]))


class Stream:
    """The operation stream of one workload for one seed.

    ``cycle()`` returns the next cycle's operations; two streams built from
    the same workload and seed return identical cycles.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in _CYCLES:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self._make = _CYCLES[workload]
        self._rng = random.Random(f"{workload}:{seed}")
        self.workload = workload

    def cycle(self) -> list[Op]:
        return self._make(self._rng)

    def warmup(self) -> list[Op]:
        """A cycle of every kind at reduced size, drawn from its own stream."""
        rng = random.Random(f"{self.workload}:warmup")
        if self._make is _profile_table_cycle:
            return _profile_table_cycle(rng, scale=50)
        return self._make(rng)
