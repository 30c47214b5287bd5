import numpy as np
import pytest

from degpart.certify import check_claims, table_floor, tripartition_claims
from degpart.gen import gen_gnp
from degpart.graph import Counts, part_profile
from degpart.pipelines import tripartition
from degpart.refine_ext import refine_external
from degpart.stage1 import PART_A, PART_B, PART_C, stage_one
from degpart.thresholds import EXTERNAL, ParamSet, build_threshold_table


def table_for(graph, params):
    return build_threshold_table(params, np.unique(graph.degree))


def test_vacuous_thresholds_refinement_is_identity():
    g = gen_gnp(80, 0.2, seed=0)
    p = ParamSet(0.0, 0.09, EXTERNAL)  # default constant, nothing active
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=0, size_window="vacuous",
                    weight_budget="vacuous")
    trace = refine_external(Counts(g, res.labels, 3), p, t)
    assert trace.extract is None or trace.extract.deleted == []
    assert len(trace.w1) == 0
    assert (trace.labels_out == res.labels).all()


def test_refine_external_active_regime_crafted_labels():
    # thresholds active on most degrees; balanced crafted X|Y|Z labels run
    # the extraction, but it deletes nothing here, so W1 stays empty (the
    # thin-Y cases below reach absorption and the cut)
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    assert t.active.any()
    rng = np.random.default_rng(5)
    labels = rng.choice(3, size=g.n, p=[0.4, 0.4, 0.2]).astype(np.int64)
    trace = refine_external(Counts(g, labels, 3), p, t, cut_seed=1)
    assert trace.checks["precut_side_floors"]
    assert trace.checks["w2_all_active"]
    # every absorbed vertex witnessed enough cross neighbors at its move
    assert all(a.witnessed_cross >= a.threshold for a in trace.absorbed)
    # membership: every quarantined vertex got a side
    assert not np.isin(trace.w1, np.nonzero(trace.labels_out == PART_C)[0]).any()


def thin_y_trace(rng_seed):
    """Crafted labels with a thin Y side, so the extraction deletes."""
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    rng = np.random.default_rng(rng_seed)
    labels = rng.choice(3, size=g.n, p=[0.7, 0.1, 0.2]).astype(np.int64)
    trace = refine_external(Counts(g, labels, 3), p, t, cut_seed=1)
    counts = part_profile(g, trace.labels_out, 3)
    cross = np.where(trace.labels_out == PART_A, counts[:, PART_B],
                     counts[:, PART_A])
    return g, t.fpsi[t.row_index(g.degree)], trace, cross


def test_refine_external_thin_y_quarantines_and_absorbs():
    g, fpsi, trace, cross = thin_y_trace(0)
    assert len(trace.w1) == 57 and len(trace.w2) == 0
    assert sorted(a.vertex for a in trace.absorbed) == trace.w1.tolist()
    assert all(a.witnessed_cross >= a.threshold for a in trace.absorbed)
    # each absorbed vertex keeps its cross floor in the output, from scratch
    assert (cross[trace.w1] >= fpsi[trace.w1]).all()


def test_refine_external_thin_y_reaches_the_cut():
    g, fpsi, trace, cross = thin_y_trace(2)
    assert len(trace.w1) == len(trace.w2) == g.n and trace.absorbed == []
    w_plus, w_minus = trace.wcut
    assert len(w_plus) and len(w_minus)
    assert trace.checks["precut_inner_floor"]
    # the cut gives every leftover vertex its cross floor, from scratch
    assert (cross[trace.w2] >= fpsi[trace.w2]).all()


def test_refine_external_w1_accounting_and_trace_json():
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    rng = np.random.default_rng(7)
    labels = rng.choice(3, size=g.n, p=[0.4, 0.4, 0.2]).astype(np.int64)
    trace = refine_external(Counts(g, labels, 3), p, t, cut_seed=0)
    if trace.extract is not None and trace.extract.deleted:
        deleted = trace.extract.deleted_vertices
        assert len(trace.w1) <= len(deleted) + int(g.degree[deleted].sum())
    payload = trace.to_jsonable()
    assert set(payload) >= {"deleted", "w1_size", "absorbed", "w2", "checks"}


def test_min_outdegree_pipeline_vacuous_settings():
    g = gen_gnp(120, 0.25, seed=3)
    p = ParamSet(0.0, 0.09, EXTERNAL)
    tri = tripartition(g, p, seed=0, size_window="vacuous",
                       weight_budget="vacuous")
    assert tri.ok
    assert tri.conditions["floor_cross"] and tri.conditions["floor_z"]


def test_min_outdegree_pipeline_enforces_cross_floor():
    # large dense graph with d override chosen so degrees are active and the
    # goodness margin is comfortable
    g = gen_gnp(500, 0.5, seed=4)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=1.0)
    t = table_for(g, p)
    if not t.active.any():
        pytest.skip("no active degrees at this size")
    tri = tripartition(g, p, seed=1, size_window="vacuous",
                       weight_budget="vacuous")
    claims = tripartition_claims(EXTERNAL, table_floor("psi", p), (0, g.n))
    assert all(check_claims(g, tri.labels, 3,
                            claims["floor_cross"] + claims["floor_z"]))
    rows = tri.table.row_index(g.degree)
    active = tri.table.active[rows]
    fpsi = tri.table.fpsi[rows]
    counts = part_profile(g, tri.labels, 3)
    in_x = tri.labels == PART_A
    in_y = tri.labels == PART_B
    cross = np.where(in_x, counts[:, PART_B], counts[:, PART_A])
    assert ((cross >= fpsi) | ~((in_x | in_y) & active)).all()


def test_min_outdegree_stage_failure_propagates():
    g = gen_gnp(8, 0.5, seed=2)
    p = ParamSet(0.0, 0.09, EXTERNAL)
    tri = tripartition(g, p, seed=0, attempts=4, size_window=(3.9, 4.0))
    if not tri.ok:
        assert tri.diagnostics.get("stage") in ("stage1", "conditions")


def test_absorption_monotone_progress():
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    rng = np.random.default_rng(11)
    labels = rng.choice(3, size=g.n, p=[0.4, 0.4, 0.2]).astype(np.int64)
    trace = refine_external(Counts(g, labels, 3), p, t, cut_seed=2)
    # each vertex is absorbed at most once and W2 plus absorbed plus the cut
    # parts account for all of W1
    absorbed_ids = [a.vertex for a in trace.absorbed]
    assert len(absorbed_ids) == len(set(absorbed_ids))
    accounted = set(absorbed_ids) | set(trace.w2.tolist())
    assert accounted == set(trace.w1.tolist())


def test_skip_cut_ablation():
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    rng = np.random.default_rng(5)
    labels = rng.choice(3, size=g.n, p=[0.4, 0.4, 0.2]).astype(np.int64)
    trace = refine_external(Counts(g, labels, 3), p, t, cut_seed=1, skip_cut=True)
    # everything left after absorption lands on one side
    assert len(trace.wcut[1]) == 0
    assert len(trace.wcut[0]) == len(trace.w2)
