"""Golden outputs: pinned seeds must keep emitting the same labels, claims
and tripartition conditions.

Each entry of ``data/golden_claims.json`` holds, for one small seeded run of
a pipeline shape, the sha256 of its labels plus its certificate claims, its
``ok`` flag and the condition dict it reported.  Regenerate the file only
when a change is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_claims.json
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from degpart.cuts import BiasVector
from degpart.gen import gen_gnp
from degpart.pipelines import (bisect_dual, bisect_external, bisect_internal,
                               bisect_with_cut_average, r_partition,
                               tripartition_exact)
from degpart.thresholds import EXTERNAL, INTERNAL, ParamSet

from conftest import complete_graph

GOLDEN = Path(__file__).parent / "data" / "golden_claims.json"
VACUOUS = {"size_window": "vacuous", "weight_budget": "vacuous"}

RUNS = {
    # floors bind: both refinement passes evacuate and patch
    "bisect-int": lambda: bisect_internal(
        gen_gnp(400, 0.03, seed=1), ParamSet(0.0, 0.02, INTERNAL, d_const=0.01),
        seed=1, **VACUOUS),
    # floors bind: extraction quarantines W1 and absorption places it
    "bisect-ext": lambda: bisect_external(
        gen_gnp(400, 0.03, seed=0), ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01),
        seed=0, **VACUOUS),
    "bisect-int-vacuous-ok": lambda: bisect_internal(
        gen_gnp(150, 0.3, seed=7), ParamSet(0.0, 0.02, INTERNAL, d_const=0.05),
        seed=1, **VACUOUS),
    "bisect-ext-vacuous-ok": lambda: bisect_external(
        gen_gnp(200, 0.3, seed=4), ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01),
        seed=2, **VACUOUS),
    "bisect-int-stage1-fail": lambda: bisect_internal(
        gen_gnp(40, 0.5, seed=2), ParamSet(0.0, 0.25, INTERNAL), seed=0,
        attempts=2, size_window=(3.9, 4.0)),
    "tripart-int": lambda: tripartition_exact(
        complete_graph(30), 2, ParamSet(0.5, 0.5, INTERNAL, relaxed=True),
        seed=0),
    "tripart-ext": lambda: tripartition_exact(
        gen_gnp(80, 0.5, seed=5), 3, ParamSet(0.5, 0.5, EXTERNAL, relaxed=True),
        seed=3),
    "tripart-int-unmet": lambda: tripartition_exact(
        gen_gnp(60, 0.2, seed=6), 4, ParamSet(0.5, 0.5, INTERNAL, relaxed=True),
        seed=1),
    "tripart-ext-stage1-fail": lambda: tripartition_exact(
        gen_gnp(40, 0.5, seed=2), 1, ParamSet(0.5, 0.5, EXTERNAL, relaxed=True),
        seed=0, attempts=2, size_window=(3.9, 4.0)),
    "dual-int": lambda: bisect_dual(complete_graph(20), 2, 0.5, INTERNAL, seed=0),
    "dual-ext": lambda: bisect_dual(gen_gnp(60, 0.6, seed=8), 2, 0.5, EXTERNAL,
                                    seed=4),
    "cutavg": lambda: bisect_with_cut_average(complete_graph(36), 2, 0.5, seed=0),
    "rpart-int": lambda: r_partition(gen_gnp(60, 0.3, seed=2),
                                     BiasVector((1 / 5, 3 / 10, 1 / 2)),
                                     INTERNAL, seed=1),
    "rpart-ext": lambda: r_partition(gen_gnp(60, 0.3, seed=2),
                                     BiasVector(("1/3", "1/3", "1/3")),
                                     EXTERNAL, seed=1),
}


def summarize(report) -> dict:
    h = hashlib.sha256()
    h.update(np.asarray(report.labels, dtype="<i8").tobytes())
    h.update(json.dumps(report.certificate.claims, sort_keys=True).encode())
    diag = report.diagnostics
    return {"sha256": h.hexdigest(), "ok": bool(report.ok),
            "conditions": diag.get("tripartition_conditions",
                                   diag.get("conditions"))}


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_output(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert summarize(RUNS[name]()) == want


if __name__ == "__main__":
    json.dump({name: summarize(run()) for name, run in RUNS.items()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
