"""Self-test of the end-to-end benchmark at smoke size.

Run with ``python3 -m pytest benchmarks/e2e`` from the repository root
(outside the tier-1 ``tests/`` paths: it runs every workload).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT):
    """The declared command, from the root of a checkout, at smoke size."""
    command = [sys.executable, *BENCHMARK["command"][1:]]
    return subprocess.run(
        command + ["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_harness():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in BENCHMARK["end_to_end"]}
    assert declared == metrics.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]}
    assert declared == metrics.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name][0]
        assert f"{name} {entry['value']!r} {entry['unit']}" in lines
    if trace:
        unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
        assert 0.0 <= unattributed < 1.0
        assert result["metrics"]["plan.engine.calls"]["value"] > 0
    else:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("query_hot", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
