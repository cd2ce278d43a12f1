"""In-memory spans for the traced run, recorded around public calls.

Nothing under ``src/`` is edited.  For the traced pass, ``Tracer.install``
replaces the names through which the CLI reaches each layer (the module
references ``cli.dhym``, ``cli.coupled``, ... and the names ``cli`` imported
from ``params``) with span-recording wrappers, and restores them afterwards.
Calls that a layer makes inside itself are not wrapped, so a span is always a
call from the layer above.  The benchmark's own oracle calls go through the
same wrappers.

A span is (name, start, end, parent span, operation id, count), timed by
``perf_counter``: reading the process CPU clock costs five times as much, and
the per-layer figures are medians, which an interruption by the host rarely
moves.  ``count`` is the work done at that boundary: points evaluated, RK4
steps, quadrature integrand points, extended-precision points or profile rows.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

#: Root span names: one per operation, and one per grid probe.
OP, PROBE = "op", "probe"


def _points(args, result):
    return int(np.size(args[-1]))


def _rk4_steps(args, result):
    return len(result.nodes) - 1


def _highprec_points(args, result):
    return len(result)


def _rows(args, result):
    return int(args[0].samples)


class _Proxy:
    """Stands in for a module: listed attributes wrapped, the rest passed on."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self._stack = [-1]
        self.op_id = -1

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, count: int = 0) -> None:
        self.end[i] = perf_counter()
        self.count[i] = count
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        if op_id is not None:
            self.op_id = op_id
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, count=None):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(i, count(args, result) if count and result is not None else 0)

        return traced

    def _counting_quadrature(self, quadrature):
        nid = self._nid("oracle.quadrature")

        def traced(f, a, b, *args, **kwargs):
            points = 0

            def counting(t):
                nonlocal points
                points += int(np.size(t))
                return f(t)

            i = self._open(nid)
            try:
                return quadrature(counting, a, b, *args, **kwargs)
            finally:
                self._close(i, points)

        return traced

    def _build_parser(self, build_parser):
        """build_parser plus the returned parser's parse_args, both 'cli.parse'."""
        wrap = self.wrap

        def traced():
            parser = wrap("cli.parse", build_parser)()
            parser.parse_args = wrap("cli.parse", parser.parse_args)
            return parser

        return traced

    @contextmanager
    def install(self, pkg):
        """Wrap the layer entry points for the duration of the block.

        ``pkg`` holds the package modules (cli, params, dhym, coupled, limits,
        tke, oracle).  Yields the namespace through which the benchmark's own
        oracle tasks must call the package.
        """
        cli, w = pkg.cli, self.wrap
        resolve = {
            n: w("params.resolve", getattr(pkg.params, n))
            for n in ("make_surface", "from_complexified", "canonicalize",
                      "stability_margin", "classify", "phase_constant")
        }
        params = _Proxy(pkg.params, resolve)
        dhym = _Proxy(pkg.dhym, {
            "solve_dhym": w("dhym.solve_dhym", pkg.dhym.solve_dhym),
            "eval_H": w("dhym.eval_H", pkg.dhym.eval_H, _points),
        })
        coupled = _Proxy(pkg.coupled, {
            "conical_coefficients": w("coupled.coefficients", pkg.coupled.conical_coefficients),
            "positivity_certificate": w("coupled.positivity", pkg.coupled.positivity_certificate),
            "eval_psi": w("coupled.eval_psi", pkg.coupled.eval_psi, _points),
            "phase_and_radius": w("coupled.phase_and_radius", pkg.coupled.phase_and_radius, _points),
            "scalar_residual": w("coupled.scalar_residual", pkg.coupled.scalar_residual, _points),
        })
        limits = _Proxy(pkg.limits, {
            n: w(f"limits.{n}", getattr(pkg.limits, n))
            for n in ("scaled_solution", "build_family", "large_radius_check",
                      "small_radius_check")
        })
        tke = _Proxy(pkg.tke, {"solve_beta0": w("tke.solve_beta0", pkg.tke.solve_beta0)})
        oracle = _Proxy(pkg.oracle, {
            "rk4_solve_phase_ode": w("oracle.rk4", pkg.oracle.rk4_solve_phase_ode, _rk4_steps),
            "eval_psi_highprec": w("oracle.highprec", pkg.oracle.eval_psi_highprec,
                                   _highprec_points),
            "quadrature": self._counting_quadrature(pkg.oracle.quadrature),
        })
        patches = [
            (cli, "dhym", dhym), (cli, "coupled", coupled), (cli, "limits", limits),
            (cli, "tke", tke), (pkg.coupled, "oracle", oracle),
            (cli, "build_parser", self._build_parser(cli.build_parser)),
        ]
        patches += [(cli, n, fn) for n, fn in resolve.items()]
        patches += [
            (cli, n, w(f"cli.{n}", getattr(cli, n)))
            for n in ("build_descriptor", "residual_summary", "format_descriptor")
        ]
        patches += [
            (cli, n, w(f"cli.{n}", getattr(cli, n), _rows if n == "cmd_profile" else None))
            for n in dir(cli) if n.startswith("cmd_")
        ]
        saved = [(mod, n, getattr(mod, n)) for mod, n, _ in patches]
        try:
            for mod, n, value in patches:
                setattr(mod, n, value)
            yield SimpleNamespace(cli=cli, params=params, dhym=dhym, coupled=coupled,
                                  oracle=oracle)
        finally:
            for mod, n, value in reversed(saved):
                setattr(mod, n, value)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def save(self, path, **extra) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            **{k: np.asarray(v) for k, v in extra.items()})


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child

