"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each workload prints the metrics ``BENCHMARK.json``
names (and only those), with valid names; that a traced run covers at
least 95% of its measured wall time with spans and reports its own
overhead; and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = ["--domains", "150", "--seconds", "1"]


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_match_spec(workload):
    result = _result(_run(ROOT, workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_covers_the_wall(workload):
    result = _result(_run(ROOT, workload, trace=1))
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert result["metrics"]["trace.coverage_ratio"]["value"] >= 0.95
    assert "trace.overhead_s" in result["metrics"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, SPEC["workloads"][0]["name"], trace=0)
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
