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
import ast
import math
import os
import re
import sys
from itertools import chain

import numpy as np

from . import coupled, dhym, limits, tke
from ._text import repr_chunks
from .errors import DhymRuledError, NoSolutionError, ValidationError
from .params import (
    BundleClass,
    StabilityClass,
    canonicalize,
    cohomology_classes,
    from_complexified,
    make_surface,
    pose,
    require_cone_angle,
)

# perfbench/spans.py wraps these module attributes, as it does canonicalize,
# when it traces a run; the CLI itself reaches them only through ``pose``
from .params import classify, phase_constant, stability_margin  # noqa: F401

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


#: Largest --samples, the size of oracle.MAX_STEPS: a profile of 10^7 rows
#: is about 1.2 GB of text
MAX_SAMPLES = 10**7


def _samples(text: str) -> int:
    """A grid size: both interval ends, and at most MAX_SAMPLES rows."""
    n = int(text)
    if not 2 <= n <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be in [2, {MAX_SAMPLES}], got {n}")
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
    # posed in canonical form, as from_complexified gives it, so that the
    # solve's own poses of the canonical class hit the memo
    return pose(make_surface(args.k, args.h, args.kprime),
                canonicalize(BundleClass(k1=args.k1, k2=args.k2)))


def verification_pass(prof) -> coupled.SolvePass:
    """The SolvePass that solve and profile verify: all nodes of default_grid."""
    return coupled.solve_pass(prof, dhym.default_grid(prof.sol))


def residual_summary(prof, grid) -> dict:
    """Max-abs residuals of both equations plus all boundary errors.

    ``grid`` is the verification_pass of the solve.  The residuals are read
    from its interior nodes, and H and psi' at t_minus and t_plus from its
    first and last node; only psi at the ends is evaluated here.
    """
    sol = prof.sol
    tgt_minus, tgt_plus = dhym.targets_of(sol)
    dpsi_minus, dpsi_plus = float(grid.psi_p[0]), float(grid.psi_p[-1])
    # psi at the ends stays a 0-d call: there u**1.5 (u is a numpy scalar by
    # then) runs libm's pow, where the grid's end nodes run numpy's SIMD pow,
    # and the two differ in the last bit on some arguments; it goes with the
    # pow of _psi_of, t**3 and u**1.5 (ROADMAP item 20's psi half)
    out = {
        "max_dhym_residual": float(np.abs(grid.ode_residual[1:-1]).max()),
        "max_im_part": float(np.abs(grid.im_part[1:-1]).max()),
        "max_scalar_residual": float(np.abs(grid.scalar_residual[1:-1]).max()),
        "boundary_err_minus": abs(float(grid.H[0]) - tgt_minus),
        "boundary_err_plus": abs(float(grid.H[-1]) - tgt_plus),
        "psi_err_minus": abs(coupled.eval_psi(prof, sol.t_minus)),
        "psi_err_plus": abs(coupled.eval_psi(prof, sol.t_plus)),
        "slope_err_plus": abs(dpsi_plus + 2.0 * prof.beta0 * sol.t_plus),
    }
    if sol.regularity == "smooth":
        out["slope_err_minus"] = abs(dpsi_minus - 2.0 * prof.beta_inf * sol.t_minus)
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


def build_descriptor(prof, alpha_prime=None) -> dict:
    """The solve's class data, positivity report and residual summary.

    The positivity scan and the residual summary read one verification_pass.
    Every value is None, a bool, an int, a float or a str.
    """
    sol = prof.sol
    s, b = sol.surface, sol.bundle
    grid = verification_pass(prof)
    pos = coupled.positivity_certificate(prof, grid)
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
        "cos_theta": sol.cos_theta,
        "sin_theta": sol.sin_theta,
        "r_hat": sol.r_hat,
        "s_hat": sol.s_hat,
        "C": sol.C,
        "Cprime": sol.Cprime,
        "alpha": prof.alpha,
        "d0": prof.d0,
        "d1": prof.d1,
        "c2": prof.c2,
        "c3": prof.c3,
        "cR": prof.cR,
        "beta_inf": prof.beta_inf,
        "t_minus": sol.t_minus,
        "t_plus": sol.t_plus,
        "stability_class": sol.stability.value,
        "stability_margin": sol.margin,
        "regularity": sol.regularity,
        "positivity_method": pos.method,
        "positivity_min": pos.min_value,
        "positivity_argmin": pos.argmin,
    }
    d.update(residual_summary(prof, grid))
    return d


_DESCRIPTOR_HEAD = ("# coupled-solution descriptor; classes in [./(2 pi)] basis,\n"
                    "# floats serialized via repr (lossless round-trip)\n")


def _key_lines(pairs, prefix: str = "") -> str:
    """A ``key = repr(value)`` line per (key, value) pair, after prefix: the
    line shape of the solve, tke, limits and figure2 reports."""
    return "".join([f"{prefix}{k} = {v!r}\n" for k, v in pairs])


def format_descriptor(d: dict) -> str:
    # every value of build_descriptor is a builtin, so its repr round-trips
    return _DESCRIPTOR_HEAD + _key_lines(d.items())


def parse_descriptor(text: str) -> dict:
    """Inverse of _key_lines, bitwise for floats; blank and # lines are skipped.
    A value is read by ast.literal_eval, or by float for nan and +-inf."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition(" = ")
        try:
            out[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            out[key] = float(val)
    return out


def _write(text, out: str | None):
    """Write text, a str or an iterable of str pieces, to --out or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise DhymRuledError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    else:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (``| head``), so the rest has nowhere to go;
            # what is still buffered goes to devnull, so that the flush at
            # exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
    # the unstable gate, also inside conical_coefficients; perfbench/spans.py
    # times it here
    dhym.solve_dhym(pr.surface, pr.bundle)
    prof = coupled.conical_coefficients(pr.surface, pr.bundle, args.beta0)
    return prof, alpha_prime


def cmd_check(args) -> int:
    # not _key_lines: perfbench/checks._check reads the class name bare (= Stable)
    pr = _pose_args(args)
    cls = pr.stability
    om, f = cohomology_classes(pr.surface, pr.bundle)
    lines = [
        f"stability_margin = {pr.margin!r}",
        f"stability_class = {cls.value}",
        f"conjugated = {pr.bundle.conjugated!r}",
        f"cos_theta = {pr.cos_theta!r}",
        f"sin_theta = {pr.sin_theta!r}",
        f"r_hat = {pr.r_hat!r}",
        f"s_hat = {pr.s_hat!r}",
        f"omega_class = ({om.a!r}, {om.b!r})",
        f"F_class = ({f.a!r}, {f.b!r})",
    ]
    _write("\n".join(lines) + "\n", args.out)
    if cls is StabilityClass.STABLE:
        return EXIT_OK
    return EXIT_SEMISTABLE if cls is StabilityClass.SEMISTABLE else EXIT_UNSTABLE


def cmd_solve(args) -> int:
    prof, alpha_prime = _solve_pipeline(args)
    d = build_descriptor(prof, alpha_prime)
    _write(format_descriptor(d), args.out)
    return _verdict(d, prof.sol)


def cmd_profile(args) -> int:
    prof, _ = _solve_pipeline(args)
    sol = prof.sol
    t = np.linspace(sol.t_minus, sol.t_plus, args.samples)
    sp = coupled.solve_pass(prof, t)
    # the derivative-based columns are undefined at the square-root endpoint
    # of a holder12 solution, so row 0 gets blank cells there
    blank = np.zeros((len(t), 6), dtype=bool)
    blank[0, 4:] = sol.regularity == "holder12"
    columns = [t, sp.psi / (2.0 * t), sp.psi, sp.H, sp.im_part, sp.scalar_residual]
    header = "t,phi,psi,H,im_residual,scalar_residual\n"
    _write(chain([header], repr_chunks(columns, blank)), args.out)
    return _verdict(residual_summary(prof, verification_pass(prof)), sol)


def cmd_tke(args) -> int:
    pr = _pose_args(args)
    s, b = pr.surface, pr.bundle
    if args.solve_beta:
        beta0 = tke.solve_beta0(s, b)
        pairs = [("beta0", beta0),
                 ("condition_residual", tke.condition_residual(s, b, beta0))]
    else:
        # TkeAnalysis's fields, in the order the dataclass declares them
        pairs = vars(tke.analyze(s, b, args.beta0)).items()
    _write(_key_lines(pairs), args.out)
    return EXIT_OK


def cmd_figure2(args) -> int:
    s = make_surface(args.k, args.h, args.kprime)
    beta_bar = tke.beta_asymptote(s.k, s.kprime, s.h)
    beta = np.linspace(0.0, 1.0, args.samples)
    H, pole = tke._H_beta_values(s.k, s.kprime, s.h, beta)
    table = repr_chunks([beta, H], pole[:, None] & np.array([False, True]))
    _write(chain([_key_lines([("beta_bar", beta_bar)], "# "), "beta,H\n"], table), args.out)
    return EXIT_OK


def cmd_limits(args) -> int:
    pr = _pose_args(args)
    check = limits.large_radius_check if args.mode == "large" else limits.small_radius_check
    rep = check(limits.build_family(pr.surface, pr.bundle, args.alphas))
    rows = [f"{a!r},{e!r}\n" for a, e in zip(rep.alphas, rep.sup_errors)]
    pairs = [("fitted_order", rep.order), *rep.constants.items()]
    _write(["alpha_prime,sup_error\n", *rows, _key_lines(pairs, "# ")], args.out)
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

    for p in parser.commands.values():
        p.grammar = _grammar(p)
    return parser


def _grammar(p):
    """What _parse reads of the subcommand parser p, from p's own actions.

    A triple: the long option strings of p's one-value store actions and of
    its switches (store_const, store_true), each mapped to its action; the
    defaults by dest, in argparse's order of precedence; and the required
    actions.  That is all of p's grammar, as p declares no positional, string
    default, parser default, mutually exclusive group or option that looks
    like a negative number (tests/test_cli.py guards every subcommand).
    """
    options, defaults = {}, {}
    for a in p._actions:
        if isinstance(a, argparse._StoreConstAction) or (
                isinstance(a, argparse._StoreAction) and a.nargs is None):
            options.update((o, a) for o in a.option_strings if o.startswith("--"))
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults.setdefault(a.dest, a.default)
    return options, defaults, {a for a in p._actions if a.required}


def _parse(sub, argv):
    """sub.parse_args(argv), read from sub's grammar (_grammar) when every
    argument is an exact long spelling: ``--name value`` or ``--name=value``
    for an option of one value, ``--name`` for a switch.

    Any other argv goes to sub.parse_args as it is: -h, an abbreviation,
    ``--``, a missing value, a value that starts with "-" and is not a
    number by _Parser's pattern, a value that its type or choices reject,
    an explicit value given to a switch, a missing required option.  So
    argparse alone declares the grammar and writes help and usage errors.
    """
    options, defaults, required = sub.grammar
    values, seen = dict(defaults), set()
    rest = iter(argv)
    for arg in rest:
        name, eq, value = arg.partition("=")
        action = options.get(name)
        if action is None:
            return sub.parse_args(argv)
        if action.nargs == 0:  # a switch
            if eq:
                return sub.parse_args(argv)
            value = action.const
        else:
            if not eq:
                value = next(rest, None)
                if value is None or (value[:1] == "-"
                                     and not sub._negative_number_matcher.match(value)):
                    return sub.parse_args(argv)
            try:
                value = action.type(value) if action.type else value
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return sub.parse_args(argv)
            if action.choices is not None and value not in action.choices:
                return sub.parse_args(argv)
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return sub.parse_args(argv)
    return argparse.Namespace(**values)


#: The parser main uses, built by its first call.  build_parser itself
#: returns a new parser on every call.
_PARSER = None


def main(argv=None) -> int:
    """Run one subcommand; the parser is built once per process.

    An argv that starts with a subcommand's name is parsed against that
    subcommand's parser alone (_parse); the top-level parser would classify
    every argument a second time.  Anything else (no arguments, -h, an
    unknown command) goes through the top-level parser.  The subcommand
    ``name`` runs the module's ``cmd_<name>``, looked up at call time, so
    that a wrapper set on that attribute (perfbench/spans.py) is the one
    called.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _PARSER.commands.get(argv[0]) if argv else None
    args = _parse(sub, argv[1:]) if sub else _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{argv[0] if sub else args.command}"](args)
    except DhymRuledError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE if isinstance(exc, NoSolutionError) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
