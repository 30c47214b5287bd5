"""Smoke test of the benchmark at toy size.

Every workload runs one cycle of its op pool untraced and traced; each run
must pass its checks and emit exactly the metrics BENCHMARK.json names, with
their units, and both runs must emit the same outputs.  Run from the root
of the checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

if run.import_program() is None:
    pytest.skip("degpart sources not found", allow_module_level=True)

import workloads as wl  # noqa: E402  (needs the program on sys.path)


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_workload_emits_every_metric(name):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, report = run.run(wl.WORKLOADS[name].toy_size(), seed=1,
                                 seconds=0.0, trace=trace, write=False)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["errors"]
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        digests.append(report["output_sha256"])
    assert digests[0] == digests[1]


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails, printing
    no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gnp-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
