"""Command-line interface: solving, verification, curve emission, limits.

Output conventions: solution descriptors are key-value text documents
(``key = value``, floats via repr so that re-parsing is bitwise exact);
profile and curve data are comma-separated tables.  All cohomology classes
are reported as coefficients of [. /(2 pi)] in the ([E0], [C]) basis.

Exit codes: 0 ok, 1 usage error, 2 semistable, 3 unstable, 4 residual
failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from itertools import chain

import numpy as np

from . import coupled, dhym, limits, tke
from .errors import DhymRuledError, NoSolutionError, ValidationError
from .params import (
    BundleClass,
    StabilityClass,
    cohomology_classes,
    from_complexified,
    make_surface,
    pose,
    require_cone_angle,
)

# perfbench/spans.py wraps these module attributes when it traces a run; the
# CLI itself reaches them only through ``pose``
from .params import canonicalize, classify, phase_constant, stability_margin  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMISTABLE = 2
EXIT_UNSTABLE = 3
EXIT_RESIDUAL = 4

#: Residual acceptance thresholds for the solve/profile verification suite.
THRESHOLDS = {
    "max_dhym_residual": 1e-10,
    "max_im_part": 1e-12,
    "max_scalar_residual": 1e-9,
    "boundary_err_minus": 1e-10,
    "boundary_err_plus": 1e-10,
    "psi_err_minus": 1e-10,
    "psi_err_plus": 1e-10,
    "slope_err_minus": 1e-9,
    "slope_err_plus": 1e-9,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents, so it would take "-1e-4"
        # for an option; no option name here looks like a number
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$|^-(?:inf|infinity|nan)$",
            re.IGNORECASE,
        )

    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _samples(text: str) -> int:
    """A grid size: both interval ends need at least two samples."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {n}")
    return n


def _beta0(text: str) -> float:
    """A cone angle: finite and in (0, 1]."""
    try:
        return require_cone_angle(float(text))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _alpha_prime(text: str) -> float:
    """A scale factor: finite and positive."""
    a = float(text)
    if not (math.isfinite(a) and a > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return a


def _alphas(text: str) -> list[float]:
    """Scale factors: a non-empty comma-separated list of _alpha_prime values."""
    return [_alpha_prime(a) for a in text.split(",")]


def _add_bundle_args(p):
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--complexified", action="store_true")
    p.add_argument("--kpp", type=float)


def _add_common_args(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--kprime", type=float, required=True)
    p.add_argument("--out", type=str, default=None)


def _pose_args(args):
    """The Problem of the class given on the command line."""
    if args.complexified:
        if args.kpp is None:
            raise DhymRuledError("--complexified requires --kpp")
        if args.k1 is not None or args.k2 is not None:
            raise DhymRuledError("--k1 and --k2 cannot be given with --complexified")
        return pose(*from_complexified(args.k, args.h, args.kprime, args.kpp))
    if args.kpp is not None:
        raise DhymRuledError("--kpp requires --complexified")
    if args.k1 is None or args.k2 is None:
        raise DhymRuledError("--k1 and --k2 are required (or use --complexified)")
    return pose(make_surface(args.k, args.h, args.kprime),
                BundleClass(k1=args.k1, k2=args.k2))


def residual_summary(s, b, sol, prof, interior=None) -> dict:
    """Max-abs residuals of both equations plus all boundary errors.

    The interior residuals are read from ``interior``, the coupled.SolvePass
    of the solve on the interior nodes of dhym.default_grid, which is
    evaluated here if not given.
    """
    if interior is None:
        interior = coupled.solve_pass(prof, s, b, sol, dhym.default_grid(prof)[1:-1])
    tgt_minus, tgt_plus = dhym.boundary_targets(s, b)
    # psi' at both ends from one 2-point evaluation is bitwise equal to two
    # 0-d calls; psi and H stay 0-d calls, because as 2-point arrays they
    # round differently
    dpsi_minus, dpsi_plus = interior.dpsi_ends
    out = {
        "max_dhym_residual": float(np.abs(interior.ode_residual).max()),
        "max_im_part": float(np.abs(interior.im_part).max()),
        "max_scalar_residual": float(np.abs(interior.scalar_residual).max()),
        "boundary_err_minus": abs(dhym.eval_H(sol, sol.t_minus) - tgt_minus),
        "boundary_err_plus": abs(dhym.eval_H(sol, sol.t_plus) - tgt_plus),
        "psi_err_minus": abs(coupled.eval_psi(prof, prof.t_minus)),
        "psi_err_plus": abs(coupled.eval_psi(prof, prof.t_plus)),
        "slope_err_plus": abs(dpsi_plus + 2.0 * prof.beta0 * prof.t_plus),
    }
    if sol.regularity == "smooth":
        out["slope_err_minus"] = abs(dpsi_minus - 2.0 * prof.beta_inf * prof.t_minus)
    return out


def _verdict(summary: dict, sol) -> int:
    """The exit code of a solve or profile from its residual summary.

    The first THRESHOLDS key over its bound (NaN never passes) is named on
    stderr and gives exit 4; otherwise a holder12 solution gives 2, else 0.
    """
    for key, bound in THRESHOLDS.items():
        if key in summary and not summary[key] <= bound:
            print(f"residual suite failed: {key} = {summary[key]!r} > {bound!r}",
                  file=sys.stderr)
            return EXIT_RESIDUAL
    return EXIT_SEMISTABLE if sol.regularity == "holder12" else EXIT_OK


def build_descriptor(s, b, sol, prof, alpha_prime=None) -> dict:
    """The solve's class data, positivity report and residual summary.

    The positivity scan and the residual summary read one SolvePass, on the
    interior nodes of dhym.default_grid.  Every value is None, a bool, an
    int, a float or a str.
    """
    pr = pose(s, b)
    b, phase = pr.bundle, pr.phase
    interior = coupled.solve_pass(prof, s, b, sol, dhym.default_grid(prof)[1:-1])
    pos = coupled.positivity_certificate(prof, interior)
    d = {
        "k": s.k,
        "h": s.h,
        "kprime": s.kprime,
        "k1": b.k1,
        "k2": b.k2,
        "conjugated": b.conjugated,
        "beta0": prof.beta0,
        "alpha_prime": alpha_prime,
        "x": s.x,
        "s_sigma": s.s_sigma,
        "cos_theta": phase.cos_theta,
        "sin_theta": phase.sin_theta,
        "r_hat": phase.r_hat,
        "s_hat": pr.s_hat,
        "C": pr.C,
        "Cprime": prof.Cprime,
        "alpha": prof.alpha,
        "d0": prof.d0,
        "d1": prof.d1,
        "c2": prof.c2,
        "c3": prof.c3,
        "cR": prof.cR,
        "beta_inf": prof.beta_inf,
        "t_minus": prof.t_minus,
        "t_plus": prof.t_plus,
        "stability_class": pr.stability.value,
        "stability_margin": pr.margin,
        "regularity": sol.regularity,
        "positivity_method": pos.method,
        "positivity_min": pos.min_value,
        "positivity_argmin": pos.argmin,
    }
    d.update(residual_summary(s, b, sol, prof, interior))
    return d


def format_descriptor(d: dict) -> str:
    lines = [
        "# coupled-solution descriptor; classes in [./(2 pi)] basis,",
        "# floats serialized via repr (lossless round-trip)",
    ]
    # every value of build_descriptor is a builtin, so its repr round-trips
    for k, v in d.items():
        lines.append(f"{k} = {v!r}")
    return "\n".join(lines) + "\n"


def parse_descriptor(text: str) -> dict:
    """Inverse of format_descriptor (bitwise-exact for floats)."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition(" = ")
        if val == "None":
            out[key] = None
        elif val in ("True", "False"):
            out[key] = val == "True"
        elif val.startswith("'"):
            out[key] = val.strip("'")
        else:
            try:
                out[key] = int(val)
            except ValueError:  # repr of a float, nan and inf included
                out[key] = float(val)
    return out


def reverify(d: dict) -> dict:
    """Recompute the residual summary from a parsed descriptor."""
    s = make_surface(int(d["k"]), int(d["h"]), d["kprime"])
    b = BundleClass(k1=d["k1"], k2=d["k2"], conjugated=bool(d["conjugated"]))
    sol = dhym.solve_dhym(s, b)
    prof = coupled.conical_coefficients(s, b, d["beta0"])
    return residual_summary(s, b, sol, prof)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _semistable_gate(pr, args):
    if pr.stability is StabilityClass.SEMISTABLE and not args.allow_semistable:
        print("semistable class: pass --allow-semistable to proceed", file=sys.stderr)
        raise SystemExit(EXIT_SEMISTABLE)


def _solve_pipeline(args):
    """Pose the class, scaled by --alpha-prime if given, and solve it."""
    pr = _pose_args(args)
    alpha_prime = getattr(args, "alpha_prime", None)
    if alpha_prime is not None:
        pr = pose(pr.surface, limits.scaled_class(pr.bundle, alpha_prime))
    _semistable_gate(pr, args)
    s, b = pr.surface, pr.bundle
    sol = dhym.solve_dhym(s, b)
    prof = coupled.conical_coefficients(s, b, args.beta0)
    return s, b, sol, prof, alpha_prime


def cmd_check(args) -> int:
    pr = _pose_args(args)
    cls, phase = pr.stability, pr.phase
    om, f = cohomology_classes(pr.surface, pr.bundle)
    lines = [
        f"stability_margin = {pr.margin!r}",
        f"stability_class = {cls.value}",
        f"cos_theta = {phase.cos_theta!r}",
        f"sin_theta = {phase.sin_theta!r}",
        f"r_hat = {phase.r_hat!r}",
        f"s_hat = {pr.s_hat!r}",
        f"omega_class = ({om.a!r}, {om.b!r})",
        f"F_class = ({f.a!r}, {f.b!r})",
    ]
    _write("\n".join(lines) + "\n", args.out)
    if cls is StabilityClass.STABLE:
        return EXIT_OK
    return EXIT_SEMISTABLE if cls is StabilityClass.SEMISTABLE else EXIT_UNSTABLE


def cmd_solve(args) -> int:
    s, b, sol, prof, alpha_prime = _solve_pipeline(args)
    d = build_descriptor(s, b, sol, prof, alpha_prime)
    _write(format_descriptor(d), args.out)
    return _verdict(d, sol)


def _reprs(a: np.ndarray):
    """Lossless text of each float of ``a``, streamed."""
    return map(repr, a.tolist())


def cmd_profile(args) -> int:
    s, b, sol, prof, _ = _solve_pipeline(args)
    t = np.linspace(sol.t_minus, sol.t_plus, args.samples)
    sp = coupled.solve_pass(prof, s, b, sol, t)
    # the derivative-based columns are undefined at the square-root endpoint
    # of a holder12 solution, so row 0 gets blank cells there
    holder = sol.regularity == "holder12"
    i = 1 if holder else 0
    blank = [""] if holder else []
    rows = zip(
        _reprs(t), _reprs(sp.psi / (2.0 * t)), _reprs(sp.psi), _reprs(sp.H),
        chain(blank, _reprs(sp.im_part[i:])),
        chain(blank, _reprs(sp.scalar_residual[i:])),
    )
    header = "t,phi,psi,H,im_residual,scalar_residual"
    _write("\n".join(chain([header], map(",".join, rows))) + "\n", args.out)
    return _verdict(residual_summary(s, b, sol, prof), sol)


def cmd_tke(args) -> int:
    pr = _pose_args(args)
    s, b = pr.surface, pr.bundle
    if args.solve_beta:
        beta0 = tke.solve_beta0(s, b)
        lines = [
            f"beta0 = {beta0!r}",
            f"condition_residual = {tke.condition_residual(s, b, beta0)!r}",
        ]
    else:
        a = tke.analyze(s, b, args.beta0)
        lines = [
            f"gamma = {a.gamma!r}",
            f"F_value = {a.F_value!r}",
            f"H_at_1 = {a.H_at_1!r}",
            f"beta_bar = {a.beta_bar!r}",
            f"condition_residual = {a.condition_residual!r}",
        ]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_figure2(args) -> int:
    s = make_surface(args.k, args.h, args.kprime)
    beta_bar = tke.beta_asymptote(s.k, s.kprime, s.h)
    beta = np.linspace(0.0, 1.0, args.samples)
    H, pole = tke._H_beta_values(s.k, s.kprime, s.h, beta)
    cells = ("" if p else v for v, p in zip(_reprs(H), pole.tolist()))
    rows = map(",".join, zip(_reprs(beta), cells))
    header = [f"# beta_bar = {beta_bar!r}", "beta,H"]
    _write("\n".join(chain(header, rows)) + "\n", args.out)
    return EXIT_OK


def cmd_limits(args) -> int:
    pr = _pose_args(args)
    fam = limits.build_family(pr.surface, pr.bundle, args.alphas)
    if args.mode == "large":
        rep = limits.large_radius_check(fam)
    else:
        rep = limits.small_radius_check(fam)
    lines = ["alpha_prime,sup_error"]
    for a, e in zip(rep.alphas, rep.sup_errors):
        lines.append(f"{a!r},{e!r}")
    lines.append(f"# fitted_order = {rep.order!r}")
    for k, v in rep.constants.items():
        lines.append(f"# {k} = {v!r}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dhym-ruled",
        description=(
            "Explicit coupled constant-phase / scalar-curvature solutions "
            "on ruled surfaces, with verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # subcommand name -> its parser, filled in by add_parser below
    parser.commands = sub.choices

    p = sub.add_parser("check", help="stability and class data")
    _add_common_args(p)
    _add_bundle_args(p)

    p = sub.add_parser("solve", help="solve and emit a descriptor")
    _add_common_args(p)
    _add_bundle_args(p)
    p.add_argument("--beta0", type=_beta0, default=1.0)
    p.add_argument("--alpha-prime", dest="alpha_prime", type=_alpha_prime, default=None)
    p.add_argument("--allow-semistable", action="store_true")

    p = sub.add_parser("profile", help="emit the sampled profile table")
    _add_common_args(p)
    _add_bundle_args(p)
    p.add_argument("--beta0", type=_beta0, default=1.0)
    p.add_argument("--samples", type=_samples, default=1001)
    p.add_argument("--allow-semistable", action="store_true")

    p = sub.add_parser("tke", help="twisted Kaehler-Einstein reduction")
    _add_common_args(p)
    _add_bundle_args(p)
    p.add_argument("--beta0", type=_beta0, default=1.0)
    p.add_argument("--solve-beta", action="store_true")

    p = sub.add_parser("figure2", help="emit the cone-angle matching curve")
    _add_common_args(p)
    p.add_argument("--samples", type=_samples, default=101)

    p = sub.add_parser("limits", help="scaled-family convergence study")
    _add_common_args(p)
    _add_bundle_args(p)
    p.add_argument("--mode", choices=("large", "small"), required=True)
    p.add_argument("--alphas", type=_alphas, required=True)

    return parser


#: The parser main uses, built by its first call.  build_parser itself
#: returns a new parser on every call.
_PARSER = None


def main(argv=None) -> int:
    """Run one subcommand; the parser is built once per process.

    An argv that starts with a subcommand's name is parsed by that
    subcommand's parser alone; the top-level parser would classify every
    argument a second time.  Anything else (no arguments, -h, an unknown
    command) goes through the top-level parser.  The subcommand ``name`` runs
    the module's ``cmd_<name>``, looked up at call time, so that a wrapper
    set on that attribute (perfbench/spans.py) is the one called.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _PARSER.commands.get(argv[0]) if argv else None
    args = sub.parse_args(argv[1:]) if sub else _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{argv[0] if sub else args.command}"](args)
    except NoSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except DhymRuledError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
