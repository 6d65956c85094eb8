"""Smoke test: every workload for one pass, untraced and traced.

    python3 -m pytest bench/smoke.py      # or: python3 bench/smoke.py

Checks the keys of the result line, that every job passed its output check,
and that the metric names and units are exactly those listed in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units(workload: str, trace: int) -> None:
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is True and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources() -> None:
    """A tree holding only the benchmark exits non-zero and prints no result."""
    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    tree = tempfile.mkdtemp(prefix="bare-", dir=runs)
    try:
        shutil.copytree(HERE, os.path.join(tree, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(tree)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
