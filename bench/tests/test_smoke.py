"""Smoke test of the benchmark harness: a few ops per workload at a small grid.

It checks that every workload runs, its output checks pass and it prints
exactly the metrics BENCHMARK.json names.  It never looks at the timings.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def any_size(names) -> set[str]:
    """Metric names with the grid-size suffix ``.n<size>`` made size-free."""
    return {re.sub(r"\.n\d+$", ".n*", name) for name in names}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_end_to_end_metrics(workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_traced_run_prints_per_layer_metrics():
    result = run_bench("kernels-n512", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert any_size(result["metrics"]) == any_size(m["name"] for m in SPEC["per_layer"])
