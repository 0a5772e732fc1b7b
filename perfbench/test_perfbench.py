"""Checks of the benchmark itself, on smoke-size inputs.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every workload passes every check at the default seed and at another one,
prints every metric that BENCHMARK.json names with its unit, repeats its
per-layer counts exactly, and the correctness gate counts a wrong expected
value as a failed operation. The latency metrics are taken over each
operation's mean latency across every pass of every segment.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_check_passes_and_every_metric_is_printed(workload, seed):
    result = bench(workload, seed, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload):
    first, second = bench(workload, 3, trace=1), bench(workload, 3, trace=1)
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in tracing.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def wrong(expected):
    if isinstance(expected, tuple):  # line scan: positions, ratios, fraction
        ts, ratios, fraction = expected
        return ts, ratios * 1.001, fraction
    return expected + 1e-6 if isinstance(expected, np.ndarray) else expected * 1.001


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_counts_a_wrong_expected_value(workload, tmp_path):
    ops = workloads.build(workload, 0, tmp_path, smoke=True)
    for op in (ops[0], ops[-1]):
        op.expected = wrong(op.expected)
    result = worker.measure(ops, seconds=0.0, min_ops=len(ops))
    failed = {line.split(":")[0] for line in result["failures"]}
    assert failed == {ops[0].name, ops[-1].name}
    assert len(result["failures"]) / len(result["latencies"]) > 0


def test_latencies_are_each_operations_mean_time():
    reps = [{"ops_per_pass": 2, "latencies": [0.3, 4.0, 0.1, 2.0], "peak_rss_mb": 5.0, "setup_s": 1.0},
            {"ops_per_pass": 2, "latencies": [0.2, 1.0], "peak_rss_mb": 7.0, "setup_s": 3.0},
            {"ops_per_pass": 2, "latencies": [0.2, 5.0], "peak_rss_mb": 6.0, "setup_s": 2.0}]
    assert run.mean_times(reps) == pytest.approx([0.2, 3.0])
    metrics = run.end_to_end(reps)
    assert metrics["ops_per_s"] == pytest.approx(2 / 3.2)
    assert metrics["latency_p50_ms"] == pytest.approx(1600.0)
    assert metrics["peak_rss_mb"] == 7.0 and metrics["setup_s"] == 2.0
