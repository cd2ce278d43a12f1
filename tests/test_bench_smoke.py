"""The benchmark runs each workload end to end and checks its own outputs.

perfbench reads names of the package that no other test reaches the same
way (the phase on DhymSolution, the names cli imports for the tracer,
params.classify); a short traced run of each workload keeps them working.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["solve_mix", "profile_table", "verify_oracles"])
def test_workload_runs_correct(workload):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
