"""Closed-loop execution of a workload stream, one client, one thread.

Each operation calls into the package in-process: ``cli.main(argv)`` for the
CLI operations, the public ``dhym``/``coupled``/``oracle`` functions for the
oracle tasks.  Only the call itself is timed; building the inputs and checking
the output happen outside the timed interval.  A pass runs a given number of
whole cycles, so every pass of a workload attempts the same operations.

Times are the process's CPU time.  The operations are CPU-bound and never
wait on I/O, threads or children, so on an idle machine CPU time equals wall
time; on a shared virtual machine the wall clock also counts the time the
host runs other tenants instead (steal), which only adds noise.  Wall time is
kept alongside for the report.
"""

from __future__ import annotations

import io
import statistics
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, process_time
from types import SimpleNamespace

import numpy as np

import checks
from spans import OP, PROBE, self_times

#: Fewest samples beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Failures kept verbatim in the report.
KEEP_FAILURES = 8


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile): the value of rank n - beyond - 1 in
    ascending order, whose percentile is 100 (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return sorted(values)[n - beyond - 1], 100.0 * (n - beyond) / n


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    timed: float = 0.0
    wall: float = 0.0
    cycles: int = 0
    failed: int = 0
    wrong: int = 0
    by_label: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.timed

    def record(self, op, seconds, wall, status, reason):
        key = f"{op.kind}/{op.label}"
        self.latencies.append(seconds)
        self.kinds.append(key)
        self.timed += seconds
        self.wall += wall
        tally = self.by_label.setdefault(key, {"attempted": 0, "failed": 0})
        tally["attempted"] += 1
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            tally["failed"] += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append({"op": key, "status": status, "reason": reason,
                                      "argv": list(op.argv), "cls": list(op.cls)})


def _call_cli(cli, argv, root):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        w0, t0 = perf_counter(), process_time()
        try:
            with root:
                code, error = cli.main(list(argv)), None
        except SystemExit as exc:  # usage errors and the semistable gate
            code, error = exc.code, None
        except Exception:  # a traceback is an outcome to count, not a crash
            code, error = None, traceback.format_exc(limit=-3)
        t1, w1 = process_time(), perf_counter()
    return t1 - t0, w1 - w0, code, out.getvalue(), error


def _oracle_task(op, pkg, api, ts):
    """The timed body of an oracle task; returns what the check needs."""
    k, h, kp, k1, k2 = op.cls
    if op.kind == "highprec":
        return api.oracle.eval_psi_highprec(k, h, kp, k1, k2, ts)
    s = api.params.make_surface(k, h, kp)
    b = pkg.params.BundleClass(k1=k1, k2=k2)
    sol = api.dhym.solve_dhym(s, b)
    if op.kind == "rk4":
        # acceptance criterion 3: raw phase ODE from t_plus to t_minus + 1e-3
        _, tp = api.dhym.boundary_targets(s, b)
        grid = api.oracle.rk4_solve_phase_ode(
            sol.cos_theta, sol.sin_theta, sol.t_plus, tp, sol.t_minus + 1e-3, 1e-4
        )
        return sol, grid
    prof = api.coupled.conical_coefficients(s, b, op.beta0)
    return api.coupled.average_radius_quadrature(s, b, sol, prof)


def execute(op, pkg, api, tracer=None, op_id=0):
    """Run one operation; returns (CPU s, wall s, exit code, payload, error)."""
    root = tracer.span(OP, op_id) if tracer else nullcontext()
    if op.argv:
        return _call_cli(api.cli, op.argv, root)
    ts = None
    if op.kind == "highprec":
        x = op.cls[0] / (op.cls[0] + op.cls[2])
        ts = np.linspace(1.0 / x - 1.0, 1.0 / x + 1.0, op.samples)
    w0, t0 = perf_counter(), process_time()
    try:
        with root:
            payload = _oracle_task(op, pkg, api, ts)
        code, error = 0, None
    except Exception:  # counted as a failed operation
        code, payload, error = None, None, traceback.format_exc(limit=-3)
    t1, w1 = process_time(), perf_counter()
    return t1 - t0, w1 - w0, code, payload, error


def probe_grids(op, pkg, api, tracer, op_id):
    """Traced pass only: the profile's class evaluated on its grid in one call each.

    These are the floor an array-based ``profile`` could reach; the CLI
    evaluates the same functions one row at a time.
    """
    k, h, kp, k1, k2 = op.cls
    s = pkg.params.make_surface(k, h, kp)
    b = pkg.params.canonicalize(pkg.params.BundleClass(k1=k1, k2=k2))
    sol = pkg.dhym.solve_dhym(s, b)
    prof = pkg.coupled.conical_coefficients(s, b, op.beta0)
    t = np.linspace(sol.t_minus, sol.t_plus, op.samples)[1:-1]
    with tracer.span(PROBE, op_id):
        api.dhym.eval_H(sol, t)
        api.coupled.eval_psi(prof, t)
        api.coupled.phase_and_radius(prof, s, b, sol, t)
        api.coupled.scalar_residual(prof, s, b, t)


def run_pass(stream, pkg, api, cycles, tracer=None) -> PassResult:
    """Run ``cycles`` whole cycles of the stream, checking every output."""
    res = PassResult()
    for _ in range(cycles):
        for op in stream.cycle():
            op_id = res.attempted
            cpu, wall, code, payload, error = execute(op, pkg, api, tracer, op_id)
            status, reason = checks.classify(op, code, payload, error, pkg)
            res.record(op, cpu, wall, status, reason)
            if tracer is not None and op.kind == "profile" and error is None:
                probe_grids(op, pkg, api, tracer, op_id)
        res.cycles += 1
    return res


def warm_up(stream, pkg, api) -> None:
    """Untimed: every operation kind once, so lazy imports and caches settle."""
    for op in stream.warmup():
        execute(op, pkg, api)


# ---------------------------------------------------------------- metrics


def end_to_end(res: PassResult) -> tuple[dict, dict]:
    """End-to-end metric values, plus how the tail was taken."""
    lat_ms = [s * 1e3 for s in res.latencies]
    tail_ms, pct = tail(lat_ms)
    values = {
        "ops_per_s": res.ops_per_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        # Jeffreys estimate (failed + 1/2) / (attempted + 1): never 0, and
        # failed / attempted to within 1 / attempted
        "fail_frac": (res.failed + 0.5) / (res.attempted + 1),
    }
    return values, {"op_tail_percentile": pct, "op_tail_beyond": TAIL_BEYOND,
                    "samples": res.attempted, "wall_ops_per_s": res.attempted / res.wall}


#: Per-call medians: metric -> (span name, scale to the metric's unit).
_PER_CALL = {
    "cli.build_descriptor_ms": ("cli.build_descriptor", 1e3),
    "cli.format_descriptor_ms": ("cli.format_descriptor", 1e3),
    "cli.residual_summary_ms": ("cli.residual_summary", 1e3),
    "cli.cmd_profile_ms": ("cli.cmd_profile", 1e3),
    "dhym.solve_dhym_us": ("dhym.solve_dhym", 1e6),
    "coupled.coefficients_us": ("coupled.coefficients", 1e6),
    "coupled.positivity_ms": ("coupled.positivity", 1e3),
    "limits.scaled_solution_us": ("limits.scaled_solution", 1e6),
    "limits.large_radius_check_ms": ("limits.large_radius_check", 1e3),
    "limits.small_radius_check_ms": ("limits.small_radius_check", 1e3),
    "oracle.rk4_ms": ("oracle.rk4", 1e3),
    "oracle.quadrature_ms": ("oracle.quadrature", 1e3),
    "oracle.highprec_ms": ("oracle.highprec", 1e3),
    "tke.solve_beta0_us": ("tke.solve_beta0", 1e6),
}
#: Per-operation sums (several calls per operation), median over operations.
_PER_OP = {
    "cli.parse_ms": ("cli.parse", 1e3),
    "params.resolve_us": ("params.resolve", 1e6),
}
#: Scalar calls (one point) made by the CLI: median microseconds per call.
_SCALAR = {
    "dhym.eval_H_scalar_us": "dhym.eval_H",
    "coupled.eval_psi_scalar_us": "coupled.eval_psi",
}
#: Grid probes: median nanoseconds per point.
_GRID = {
    "dhym.eval_H_grid_ns_per_pt": "dhym.eval_H",
    "coupled.eval_psi_grid_ns_per_pt": "coupled.eval_psi",
    "coupled.phase_and_radius_grid_ns_per_pt": "coupled.phase_and_radius",
    "coupled.scalar_residual_grid_ns_per_pt": "coupled.scalar_residual",
}
#: Work counts recorded at the span boundary: median per call.
_COUNTS = {
    "oracle.rk4_steps": "oracle.rk4",
    "oracle.quadrature_evals": "oracle.quadrature",
    "oracle.highprec_points": "oracle.highprec",
}


def _median(values) -> float:
    """Median, or 0 when the workload makes no such call."""
    return float(np.median(values)) if len(values) else 0.0


def per_layer(tracer, untraced: PassResult, traced: PassResult) -> tuple[dict, dict]:
    """Per-layer metric values and a per-span-name self-time summary."""
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    root = np.arange(len(dur))
    for i in range(len(dur)):  # parents are opened, so indexed, before children
        if parent[i] >= 0:
            root[i] = root[parent[i]]
    in_op = names[root] == OP

    values = {}
    for metric, (name, scale) in _PER_CALL.items():
        values[metric] = _median(dur[in_op & (names == name)]) * scale
    for metric, (name, scale) in _PER_OP.items():
        sel = in_op & (names == name)
        per_op = np.bincount(spans["op"][sel], weights=dur[sel])
        values[metric] = _median(per_op[per_op > 0]) * scale
    for metric, name in _SCALAR.items():
        values[metric] = _median(dur[in_op & (names == name) & (spans["count"] == 1)]) * 1e6
    for metric, name in _GRID.items():
        sel = ~in_op & (names == name)
        values[metric] = _median(dur[sel] / spans["count"][sel]) * 1e9
    for metric, name in _COUNTS.items():
        values[metric] = _median(spans["count"][in_op & (names == name)])

    # time of each operation not covered by a layer span: the CLI's own glue
    roots = np.flatnonzero(names == OP)
    glue = (names == OP) | np.char.startswith(names, "cli.cmd_")
    top = ~glue & (names != PROBE) & (parent >= 0)
    top[top] = glue[parent[top]]
    covered = np.bincount(spans["op"][top & in_op], weights=dur[top & in_op],
                          minlength=spans["op"].max() + 1)
    remainder = dur[roots] - covered[spans["op"][roots]]
    values["trace.unattributed_ms"] = _median(remainder) * 1e3
    values["trace.unattributed_pct"] = 100.0 * remainder.sum() / dur[roots].sum()
    values["trace.overhead_ops_per_s"] = traced.ops_per_s - untraced.ops_per_s
    values["trace.overhead_pct"] = 100.0 * (1.0 - traced.ops_per_s / untraced.ops_per_s)

    own = self_times(spans)
    summary = {}
    for nid, name in enumerate(tracer.names):
        sel = spans["name"] == nid
        if not sel.any():
            continue
        summary[name] = {"calls": int(sel.sum()), "total_ms": float(dur[sel].sum() * 1e3),
                         "self_ms": float(own[sel].sum() * 1e3),
                         "count": int(spans["count"][sel].sum())}
    return values, {"spans": summary, "remainder_ms": (remainder * 1e3).tolist()}


def api_of(pkg):
    """The untraced call namespace: the package modules themselves."""
    return SimpleNamespace(cli=pkg.cli, params=pkg.params, dhym=pkg.dhym,
                           coupled=pkg.coupled, oracle=pkg.oracle)
