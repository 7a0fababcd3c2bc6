"""The benchmark's own tests: every workload and check in quick mode.

    python3 -m pytest bench/test_quick.py -q

Quick mode shrinks the generated inputs so that a run takes seconds;
the rounds, checks and output format are those of a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# operations per round, and how many of them fail on every run
ROUND = {"paper-table": (1, 0), "kernel-matrix": (4, 0), "train-eval": (8, 2)}


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    ops, failing = ROUND[workload]
    assert result["attempted"] % ops == 0 and result["attempted"] >= 2 * ops
    assert result["failed"] * ops == result["attempted"] * failing
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(*SPEC["command"][1:], "--workload", "paper-table", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
