"""Smoke test of the benchmark harness: every workload, untraced and traced,
on toy inputs, so the harness cannot drift from the program or its spec.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_repeats_result_figures():
    figures = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "lp-sparse", "--seed", "5", "--seconds", "0.1",
                         "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        figures.append([line for line in proc.stdout.splitlines() if "lp_auc" in line])
    assert figures[0] and figures[0] == figures[1]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench(tmp_path, "--workload", "lp-sparse", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
