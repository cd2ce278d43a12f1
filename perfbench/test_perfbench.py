"""Tests of the benchmark's own logic: generator, exit-code oracle, tail helper."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import tail  # noqa: E402
from workloads import WORKLOADS, Stream, expected_code, exact_margin  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_is_deterministic_per_seed(workload):
    a, b, c = Stream(workload, 7), Stream(workload, 7), Stream(workload, 8)
    first = [a.cycle() for _ in range(3)]
    assert first == [b.cycle() for _ in range(3)]
    assert first != [c.cycle() for _ in range(3)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_keeps_its_slots(workload):
    stream = Stream(workload, 3)
    kinds = [[(op.kind, op.label) for op in stream.cycle()] for _ in range(4)]
    assert all(k == kinds[0] for k in kinds)


def test_expected_code_figure1_family():
    assert expected_code(1, 5.0, -1.0, 1.0) == 0
    assert expected_code(1, 4.0, -1.0, 1.0) == 2
    assert expected_code(1, 2.0, -1.0, 1.0) == 3


def test_expected_code_is_exact_on_float_inputs():
    # 0.1 is not 1/10: the float inputs are taken at their exact binary value
    assert exact_margin(1, 4.0, -1.0, 1.0) == 0
    assert exact_margin(2, 3.0, -1.5, 0.5) == 0
    with pytest.raises(ValueError):
        expected_code(1, 4.0, -1.0, 1.0 + 2.0 ** -45)  # inside the semistable band
    assert expected_code(1, 5.0, -1.0, 1.0, alpha_prime=1e-4) == 0


def test_generated_classes_avoid_the_semistable_band():
    stream = Stream("solve_mix", 11)
    for _ in range(20):
        for op in stream.cycle():
            if op.kind in ("solve", "check") and op.expected != 2:
                k, _, kp, k1, k2 = op.cls
                scale = op.alpha_prime or 1.0
                assert abs(exact_margin(k, kp, scale * k1, scale * k2)) > 1e-9


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0)
    value, pct = tail(list(range(1000, 0, -1)))
    assert (value, pct) == (990, 99.0)
    assert sum(v > value for v in range(1, 1001)) == 10
    assert tail(list(range(11))) == (0, 100.0 * 1 / 11)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def _declared(section):
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_passes_check_outputs_and_emit_declared_metrics(workload):
    """Two reduced cycles untraced and traced: outputs pass, metric names match."""
    import run
    from spans import Tracer

    pkg = run.load_package()
    api = harness.api_of(pkg)
    small = SimpleNamespace(cycle=Stream(workload, 5).warmup)
    ref = harness.run_pass(small, pkg, api, 2)
    tracer = Tracer()
    with tracer.install(pkg) as traced_api:
        traced = harness.run_pass(small, pkg, traced_api, 2, tracer=tracer)
    assert ref.wrong == traced.wrong == 0, ref.failures + traced.failures
    assert ref.attempted == traced.attempted
    e2e, _ = harness.end_to_end(ref)
    assert set(e2e) | {"setup_s", "peak_rss_mb"} == _declared("end_to_end")
    assert set(run.END_TO_END_UNITS) == _declared("end_to_end")
    layer, _ = harness.per_layer(tracer, ref, traced)
    assert set(layer) == _declared("per_layer")
    assert pkg.cli.dhym is pkg.dhym  # the wrappers are gone again
