"""Benchmark of dhym-ruled's solve, profile and verification paths.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` in this process.  Workloads (see ``workloads.py``):

``solve_mix``       a stream of ``solve`` (mostly), ``check`` and
                    ``tke --solve-beta`` over every class type the CLI handles;
``profile_table``   ``profile --samples N`` for N from a thousand to ten
                    thousand, and ``figure2`` with fifty thousand samples;
``verify_oracles``  the independent numerics: RK4 of the raw phase ODE,
                    average-radius quadrature, ``limits`` in both modes and
                    the extended-precision profile of the scaled classes.

One client, one thread, closed loop: the next operation starts when the last
one has returned and its output has been checked.  A run executes a fixed
number of whole cycles, sized to take ``--seconds`` of CPU time on the
reference machine (see ``workloads.NOMINAL_CYCLE_S``).  With ``--trace 0``
the last stdout line carries the end-to-end metrics of an untraced pass.
With ``--trace 1`` an untraced pass of half the cycles is followed by a
traced pass over the same cycles; the last line carries the per-layer metrics, and the
spans are written to ``.perfbench-out/`` in the checkout.  In the per-layer
metrics, 0 means the workload makes no call of that kind.

``fail_frac`` is the Jeffreys estimate (failed + 1/2) / (attempted + 1), so
that it is never 0; ``attempted`` and ``failed`` on the result line are the
raw counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Pinned to 1 before numpy is imported, here and in the set-up subprocesses.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import dhym_ruled; from dhym_ruled import cli; cli.build_parser()"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units(name: str) -> str:
    for suffix, unit in (("_ns_per_pt", "ns/pt"), ("_ms", "ms"), ("_us", "us"),
                         ("_pct", "%"), ("_ops_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_package():
    """Import dhym_ruled from this checkout's src/, or exit with a message."""
    if not (SRC / "dhym_ruled" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dhym_ruled
    from dhym_ruled import cli, coupled, dhym, limits, oracle, params, tke

    if Path(dhym_ruled.__file__).resolve().parent != SRC / "dhym_ruled":
        sys.exit(f"perfbench: imported dhym_ruled from {dhym_ruled.__file__}, not {SRC}")
    from types import SimpleNamespace

    return SimpleNamespace(root=dhym_ruled, cli=cli, params=params, dhym=dhym,
                           coupled=coupled, limits=limits, tke=tke, oracle=oracle)


def measure_setup() -> list[float]:
    """CPU seconds (user + system) from a fresh interpreter to the CLI parser built.

    CPU time, like the operation times, leaves out the time a shared host
    runs other tenants; the child does no waiting of its own.
    """
    import resource
    import subprocess

    def children_cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    samples = []
    for _ in range(SETUP_REPEATS):
        before = children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                       check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(children_cpu() - before)
    return samples


def environment(pkg) -> dict:
    import platform

    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    kernels = getattr(pkg.root, "_kernels", None)
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "kernels_use_numba": getattr(kernels, "USING_NUMBA", None),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def emit(detail: dict, correct: bool, attempted: int, failed: int, metrics: dict, units):
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    pkg = load_package()

    import resource

    import harness
    from spans import Tracer
    from workloads import Stream, cycles_for

    env = environment(pkg)
    api = harness.api_of(pkg)
    harness.warm_up(Stream(args.workload, args.seed), pkg, api)
    detail = {"workload": args.workload, "seed": args.seed, "env": env}

    if not args.trace:
        setup = measure_setup()
        res = harness.run_pass(Stream(args.workload, args.seed), pkg, api,
                               cycles_for(args.workload, args.seconds))
        values, tail_info = harness.end_to_end(res)
        values["setup_s"] = sorted(setup)[len(setup) // 2]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail.update(tail_info, setup_samples_s=setup, cycles=res.cycles,
                      timed_s=res.timed, by_label=res.by_label, failures=res.failures)
        metrics = {k: values[k] for k in END_TO_END_UNITS}
        emit(detail, res.wrong == 0, res.attempted, res.failed, metrics,
             END_TO_END_UNITS.__getitem__)
        return 0

    ref = harness.run_pass(Stream(args.workload, args.seed), pkg, api,
                           cycles_for(args.workload, args.seconds / 2))
    tracer = Tracer()
    with tracer.install(pkg) as traced_api:
        traced = harness.run_pass(Stream(args.workload, args.seed), pkg, traced_api,
                                  cycles=ref.cycles, tracer=tracer)
    metrics, summary = harness.per_layer(tracer, ref, traced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(path, remainder_ms=summary["remainder_ms"], op_kind=traced.kinds)
    by_kind = {}
    for kind, ms in zip(traced.kinds, summary["remainder_ms"]):
        by_kind.setdefault(kind, []).append(ms)
    detail.update(cycles=ref.cycles, trace_file=str(path.relative_to(ROOT)),
                  self_times=summary["spans"], failures=ref.failures + traced.failures,
                  unattributed_ms_median_by_op={k: sorted(v)[len(v) // 2]
                                                for k, v in by_kind.items()})
    emit(detail, ref.wrong + traced.wrong == 0, ref.attempted + traced.attempted,
         ref.failed + traced.failed, metrics, per_layer_units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
