"""Golden outputs: pinned seeds must keep emitting the same labels, claims
and tripartition conditions.

Each entry of ``data/golden_claims.json`` holds, for one small seeded run of
a pipeline shape, the sha256 of its labels plus its certificate claims, its
``ok`` flag and the condition dict it reported.  Regenerate the file only
when a change is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_claims.json
"""

import copy
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart import certify, pipelines
from degpart.certify import verify_certificate, verify_report
from degpart.cuts import BiasVector
from degpart.gen import gen_gnp
from degpart.pipelines import (PipelineReport, bisect_dual, bisect_external,
                               bisect_internal, bisect_with_cut_average,
                               r_partition, tripartition_exact)
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


@lru_cache(maxsize=None)
def graph_and_report(name):
    """A golden run's report and its graph, read off the counted labeling
    that ``_make_report`` receives."""
    graphs, make = [], pipelines._make_report

    def keep(counted, *args):
        graphs.append(counted.graph)
        return make(counted, *args)
    with mock.patch.object(pipelines, "_make_report", keep):
        report = RUNS[name]()
    return graphs[-1], report


@pytest.mark.parametrize("name", list(RUNS))
def test_a_golden_report_certifies_its_statement_when_ok(name):
    # a failed run certifies only the conditions that held: its statement
    # is named as not certified
    graph, report = graph_and_report(name)
    written = PipelineReport.from_jsonable(json.loads(json.dumps(report.to_jsonable())))
    for result in (verify_report(graph, report), verify_report(graph, written)):
        assert result.passed is result.statement is report.ok
        assert report.ok or "statement is not certified" in result.reason


def weakened(claim):
    """Weaker forms of a statement claim, each true wherever the claim is;
    an altered part_sizes claim is false instead."""
    kind, floor = claim["kind"], claim.get("floor")
    out = []
    if floor and floor["type"] == "table":
        # a lower factor, a larger d, eps or c: phi falls, and so does every floor
        out += [dict(claim, floor=dict(floor, **edit)) for edit in (
            {"factor": floor["factor"] - 1}, {"d_const": floor["d_const"] * 1e9},
            {"eps": min(2 * floor["eps"], 0.99)}, {"c": floor["c"] + 0.1})]
    elif floor:
        out.append(dict(claim, floor=dict(floor, value=floor["value"] - 1)))
    edits = {"count_meeting_floor": {"at_least": -1}, "cut_edges_at_least": {"bound": -1},
             "balance": {"max_diff": 1}, "part_size_window": {"lo": -1, "hi": 1}}
    out += [dict(claim, **{key: claim[key] + step})
            for key, step in edits.get(kind, {}).items()]
    if kind == "part_sizes":
        sizes = claim["sizes"]
        out.append(dict(claim, sizes=[sizes[0] + 1, *sizes[1:-1], sizes[-1] - 1]))
    return out


OK_RUNS = [name for name in RUNS if json.loads(GOLDEN.read_text())[name]["ok"]]


@st.composite
def edited_statements(draw):
    """An ok golden report with one statement claim deleted or weakened:
    (graph, report, the condition's name, the claim, its replacement)."""
    graph, report = graph_and_report(draw(st.sampled_from(OK_RUNS)))
    conditions = certify.statement(report.certificate.params["statement"], graph.n)
    name, claim = draw(st.sampled_from([(name, claim) for name, claims in
                                        conditions.items() for claim in claims]))
    return graph, report, name, claim, draw(st.sampled_from([None, *weakened(claim)]))


@settings(max_examples=300, deadline=None)
@given(edited_statements())
def test_a_deleted_or_weakened_statement_claim_is_named(case):
    graph, report, name, claim, new = case
    report = copy.deepcopy(report)
    claims = report.certificate.claims
    at = claims.index(claim)
    claims[at:at + 1] = [] if new is None else [new]
    alone = verify_certificate(graph, report.labels, report.certificate, report.r)
    result = verify_report(graph, report)
    assert not result.passed
    if claim["kind"] == "part_sizes" and new is not None:
        # exact sizes hold of no other sizes: the claims fail first
        assert not alone.passed and result.failed_claim == new
        return
    # the claims that are left hold, so the claims alone pass
    assert alone.passed and result.statement is False
    assert f"condition {name!r} has no claim" in result.reason


if __name__ == "__main__":
    json.dump({name: summarize(run()) for name, run in RUNS.items()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
