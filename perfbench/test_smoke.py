"""Smoke tests of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench -q

Each run must print every end-to-end figure (untraced) or every per-layer
figure (traced) that BENCHMARK.json lists, run its correctness checks,
and end with the JSON result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert any(line.startswith(f"check {workload} round 0") for line in lines)
    assert any(line.startswith("env: python=") for line in lines)


def test_cold_converge_counts_threshold_rejections():
    proc = run_bench("cold-converge", 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    attempted = json.loads(lines[-1])["attempted"]
    rejected = sum("crosses 4(a) threshold): rejected" in line for line in lines)
    assert f"failed_frac = {rejected / attempted:.4f} ratio" in lines


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path,
                     script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
