"""Smoke test of the benchmark: each workload at a tiny size prints every metric
BENCHMARK.json names, with its unit, and every correctness check passes.

Run from the repository root with `python -m pytest perfbench/test_smoke.py`.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = [sys.executable, *SPEC["command"][1:]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def start_bench(cwd, workload, trace):
    return subprocess.Popen(
        [*COMMAND, "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def runs():
    """All workload/trace runs, started together so the module takes one run's time."""
    procs = {(w, t): start_bench(ROOT, w, t) for w in WORKLOADS for t in (0, 1)}
    try:
        return {key: (proc, *proc.communicate(timeout=170)) for key, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_passes_checks(runs, workload, trace):
    proc, stdout, stderr = runs[workload, trace]
    assert proc.returncode == 0, stderr
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
    table = {line.split()[1]: line.split()[-1]
             for line in lines[:-1] if line.split()[:1] == [workload]}
    assert table == printed


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = start_bench(tmp_path, WORKLOADS[0], 0)
    stdout, _ = proc.communicate(timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in stdout
