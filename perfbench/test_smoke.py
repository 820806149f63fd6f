"""Fast smoke test of the benchmark harness.

Runs every workload with one input of its smallest size, traced and
untraced, and checks that each metric named in BENCHMARK.json is reported
with its unit. Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = run(HERE / "run.py", workload, trace, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = result_of(workload, 1)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(workload, 0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path / HERE.name / "run.py", "cli", 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
