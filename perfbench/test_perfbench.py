"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the benchmark from the repository root, in short runs: one round per
run, which is what --seconds 1 gives.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import run as runner  # noqa: E402
from workloads import all_workloads  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failed_operations(workload):
    result = bench(workload, 3, 0)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["oracle-survey", "dual-scan", "large-ring"])
def test_traced_work_counts_repeat_for_one_seed(workload):
    first, second = bench(workload, 5, 1), bench(workload, 5, 1)
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert counts(first)["galois_ring.mul_raw.calls"] > 0


def test_seeds_change_inputs_but_not_shape():
    lib = runner.fresh_import()
    for workload in all_workloads(str(runner.OUT)).values():
        drawn = {seed: workload.draw(lib, random.Random(seed)) for seed in (1, 2, 3)}
        assert drawn[1] == workload.draw(lib, random.Random(1)), workload.name
        assert drawn[1] != drawn[2] or drawn[1] != drawn[3], workload.name
        shapes = [workload.shape(inputs) for inputs in drawn.values()]
        assert shapes[0] == shapes[1] == shapes[2], workload.name


def test_exits_nonzero_without_sources():
    # a checkout holding only BENCHMARK.json and the benchmark's files
    bare = runner.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
