"""Checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run test runs every workload twice and takes several minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=400)


def test_op_lists_follow_the_seed():
    for name in workloads.WORKLOADS:
        first = [op.argv for op in next(workloads.rounds(name, 7))]
        again = [op.argv for op in next(workloads.rounds(name, 7))]
        other = [op.argv for op in next(workloads.rounds(name, 8))]
        assert first == again
        assert first != other
        shapes = [op.shape for op in next(workloads.rounds(name, 8))]
        assert shapes == [op.shape for op in next(workloads.rounds(name, 7))]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_runs_repeat_counts_and_digests(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    results = []
    for _ in range(2):
        proc = _bench("--workload", name, "--seed", "5", "--seconds", "10", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"]
        assert set(last["metrics"]) == per_layer
        with open(os.path.join(HERE, "out", f"{name}-seed5-trace1.json")) as fh:
            results.append(json.load(fh))
    first, second = results
    assert first["exact_counts"] == second["exact_counts"]
    assert first["summary"]["digest"] == second["summary"]["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "analytic", "--seed", "1", "--seconds", "10", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
