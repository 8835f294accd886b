"""Smoke test of the benchmark: every workload at its tiny size, plain and
traced, must finish with no failed operation and print exactly the metric
names BENCHMARK.json declares.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("library", "cli")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    res = run("--workload", workload, "--seed", "5", "--seconds", "1",
              "--trace", str(trace), "--tiny")
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert last["metrics"]["ok_ops_ratio"]["value"] == 1.0


def test_refuses_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run("--workload", "library", "--seed", "1", "--seconds", "1",
              cwd=str(tmp_path))
    assert res.returncode != 0
    assert res.stdout.strip() == ""
