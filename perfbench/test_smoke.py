"""Smoke test of the benchmark harness, on two ops per workload.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every end-to-end metric is printed with its unit, that a seed
fixes the op sequence, that an injected wrong result is counted as a
failure, and that a traced run emits every per-layer metric.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed=7, trace=0, *extra, ops=2):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--max-ops", str(ops), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _line(lines, key):
    return next(line.split() for line in lines if line.split()[:1] == [key])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    lines, result = _run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 2
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _line(lines, "fail_share")[2] == "ratio"
    digest = _line(lines, "op_digest")[1]
    assert _line(_run(workload)[0], "op_digest")[1] == digest
    # The first three cluster ops have f = 1, whose level-1 space is the
    # unit line whatever the seed; the fourth is the first to differ.
    if workload == "cluster":
        digest = _line(_run(workload, ops=4)[0], "op_digest")[1]
    ops = 4 if workload == "cluster" else 2
    assert _line(_run(workload, seed=8, ops=ops)[0], "op_digest")[1] != digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_result_is_counted(workload):
    lines, result = _run(workload, 7, 0, "--inject-wrong", "0")
    assert result["correct"] is False
    assert result["failed"] >= 1
    share = _line(lines, "fail_share")
    assert float(share[1]) == result["failed"] / result["attempted"] > 0
    assert "1 wrong," in " ".join(share)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    _, result = _run(workload, trace=1)
    metrics = result["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.op_s"]["value"] > 0
    assert 0 < metrics["trace.overhead"]["value"]
