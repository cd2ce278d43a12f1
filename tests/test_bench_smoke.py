"""The benchmark runs each workload end to end and checks its own outputs.

perfbench reads names of the package that no other test reaches the same
way (the phase on the solved `Problem`, the names cli imports for the tracer,
params.classify); a short traced run of each workload keeps them working.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


#: Per-layer metrics that each workload must feed: their spans wrap module
#: attributes (cli.build_descriptor, cli.coupled.positivity_certificate, ...),
#: and a call that bypasses the attribute leaves the metric at 0.
LIVE_METRICS = {
    "solve_mix": ("cli.build_descriptor_ms", "cli.residual_summary_ms",
                  "coupled.positivity_ms"),
    "profile_table": ("cli.cmd_profile_ms",),
    "verify_oracles": ("oracle.quadrature_ms", "oracle.rk4_ms", "oracle.highprec_ms",
                       "limits.large_radius_check_ms"),
}

#: Work counts that do not depend on the seed: the benchmark's RK4 call takes
#: 19990 steps, and its extended-precision profile has 401 points.
EXACT_COUNTS = {
    "verify_oracles": {"oracle.rk4_steps": 19990, "oracle.highprec_points": 401},
}


@pytest.mark.parametrize("workload", sorted(LIVE_METRICS))
def test_workload_runs_correct(workload):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in LIVE_METRICS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    for name, count in EXACT_COUNTS.get(workload, {}).items():
        assert result["metrics"][name]["value"] == count, name


def test_limits_extended_precision_calls_are_traced(capsys):
    """Both extended-precision calls of a ``limits --mode large`` operation
    go through ``coupled.oracle``, the attribute the tracer wraps, so each is
    an ``oracle.highprec`` span under the ``limits.large_radius_check`` span."""
    from types import SimpleNamespace

    from dhym_ruled import cli, coupled, dhym, limits, oracle, params, tke

    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pkg = SimpleNamespace(cli=cli, params=params, dhym=dhym, coupled=coupled,
                          limits=limits, tke=tke, oracle=oracle)
    tracer = spans.Tracer()
    argv = ["limits", "--k", "1", "--kprime", "5", "--k1", "-1", "--k2", "1",
            "--mode", "large", "--alphas", "1e-1,1e-2,1e-3,1e-4"]
    with tracer.install(pkg), tracer.span(spans.OP, 0):
        assert cli.main(argv) == 0
    capsys.readouterr()
    names = [tracer.names[i] for i in tracer.name]
    check = names.index("limits.large_radius_check")
    highprec = [i for i, n in enumerate(names) if n == "oracle.highprec"]
    assert len(highprec) == 2
    assert [tracer.parent[i] for i in highprec] == [check, check]
