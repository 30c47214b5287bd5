import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart import certify
from degpart.gen import gen_gnp
from degpart.graph import Counts, Graph, part_profile
from degpart.pipelines import tripartition
from degpart.refine_ext import refine_external
from degpart.stage1 import PART_A, PART_B, PART_C, stage_one
from degpart.thresholds import EXTERNAL, ParamSet, build_threshold_table

from conftest import mixed_labels, tripartitions
from reference_refine import plain, recount_facts, ref_refine_external

PART_X, PART_Y, PART_Z = PART_A, PART_B, PART_C


def table_for(graph, params):
    return build_threshold_table(params, np.unique(graph.degree))


def test_vacuous_thresholds_refinement_is_identity():
    g = gen_gnp(80, 0.2, seed=0)
    p = ParamSet(0.0, 0.09, EXTERNAL)  # default constant, nothing active
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=0, size_window="vacuous",
                    weight_budget="vacuous")
    counts = Counts(g, res.labels, 3)
    trace = refine_external(counts, t)
    assert trace.extract is None or trace.extract.deleted == []
    assert len(trace.w1) == 0
    assert (counts.labels == res.labels).all()


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
    counts = Counts(g, labels, 3)
    trace = refine_external(counts, t, cut_seed=1)
    facts = recount_facts(g, t, labels, counts.labels, trace.w2)
    assert facts["w2_side_floors"] and facts["w2_all_active"]
    # every absorbed vertex witnessed enough cross neighbors at its move
    assert all(a.witnessed_cross >= a.threshold for a in trace.absorbed)
    # membership: every quarantined vertex got a side
    assert not np.isin(trace.w1, np.nonzero(counts.labels == PART_C)[0]).any()


def thin_y_trace(rng_seed):
    """Crafted labels with a thin Y side, so the extraction deletes."""
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    rng = np.random.default_rng(rng_seed)
    labels = rng.choice(3, size=g.n, p=[0.7, 0.1, 0.2]).astype(np.int64)
    out = Counts(g, labels, 3)
    trace = refine_external(out, t, cut_seed=1)
    counts = part_profile(g, out.labels, 3)
    cross = np.where(out.labels == PART_A, counts[:, PART_B], counts[:, PART_A])
    facts = recount_facts(g, t, labels, out.labels, trace.w2)
    return g, t.fpsi[t.row_index(g.degree)], trace, cross, facts


def test_refine_external_thin_y_quarantines_and_absorbs():
    g, fpsi, trace, cross, _ = thin_y_trace(0)
    assert len(trace.w1) == 57 and len(trace.w2) == 0
    assert sorted(a.vertex for a in trace.absorbed) == trace.w1.tolist()
    assert all(a.witnessed_cross >= a.threshold for a in trace.absorbed)
    # each absorbed vertex keeps its cross floor in the output, from scratch
    assert (cross[trace.w1] >= fpsi[trace.w1]).all()


def replay_absorption(g, labels, w1, fpsi):
    """The absorption rule from scratch: passes in ascending id, each vertex
    probing X then Y for floor(psi) neighbors among the current sides, the
    probe order reversed after every absorption, until a pass absorbs none."""
    side = {v: int(labels[v]) for v in range(g.n)
            if labels[v] in (PART_A, PART_B) and v not in set(w1.tolist())}
    pending, probe, absorbed = w1.tolist(), [PART_A, PART_B], []
    while True:
        rest = []
        for v in pending:
            count = {s: sum(side.get(w) == s for w in g.neighbors(v).tolist())
                     for s in probe}
            seen = next((s for s in probe if count[s] >= fpsi[v]), None)
            if seen is None:
                rest.append(v)
                continue
            side[v] = PART_B if seen == PART_A else PART_A
            absorbed.append((v, side[v], count[seen]))
            probe.reverse()
        if rest == pending:
            return absorbed, rest
        pending = rest


@pytest.mark.parametrize("rng_seed,probs", [
    (0, [0.7, 0.1, 0.2]), (0, [0.1, 0.7, 0.2]), (9, [0.7, 0.1, 0.2])])
def test_absorption_order_matches_the_rule(rng_seed, probs):
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    labels = np.random.default_rng(rng_seed).choice(3, size=g.n, p=probs)
    trace = refine_external(Counts(g, labels, 3), t, cut_seed=1)
    absorbed, w2 = replay_absorption(g, labels, trace.w1,
                                     t.fpsi[t.row_index(g.degree)])
    assert len(absorbed) > 10
    assert [(a.vertex, a.destination, a.witnessed_cross)
            for a in trace.absorbed] == absorbed
    assert trace.w2.tolist() == w2


def test_refine_external_thin_y_reaches_the_cut():
    g, fpsi, trace, cross, facts = thin_y_trace(2)
    assert len(trace.w1) == len(trace.w2) == g.n and trace.absorbed == []
    w_plus, w_minus = trace.wcut
    # the cut splits W2 and puts vertices on both sides
    assert len(w_plus) and len(w_minus)
    assert sorted(w_plus.tolist() + w_minus.tolist()) == trace.w2.tolist()
    assert facts["w2_inner_floor"]
    # the cut gives every leftover vertex its cross floor, from scratch
    assert (cross[trace.w2] >= fpsi[trace.w2]).all()


def test_refine_external_w1_accounting_and_trace_json():
    g = gen_gnp(90, 0.4, seed=8)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    rng = np.random.default_rng(7)
    labels = rng.choice(3, size=g.n, p=[0.4, 0.4, 0.2]).astype(np.int64)
    trace = refine_external(Counts(g, labels, 3), t, cut_seed=0)
    if trace.extract is not None and trace.extract.deleted:
        deleted = trace.extract.deleted_vertices
        assert len(trace.w1) <= len(deleted) + int(g.degree[deleted].sum())


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
    claims = certify.statement({"shape": "tripartition", "mode": EXTERNAL, "c": p.c,
                                "eps": p.eps, "d_const": p.d}, g.n)
    assert all(certify.judge(certify.recount(g, tri.labels, 3),
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
    trace = refine_external(Counts(g, labels, 3), t, cut_seed=2)
    # each vertex is absorbed at most once and W2 plus absorbed plus the cut
    # parts account for all of W1
    absorbed_ids = [a.vertex for a in trace.absorbed]
    assert len(absorbed_ids) == len(set(absorbed_ids))
    accounted = set(absorbed_ids) | set(trace.w2.tolist())
    assert accounted == set(trace.w1.tolist())


# thin-Y labels on which quarantine takes every vertex and none is absorbed,
# so all of W1 is left to the cut
W2_CASE = (gen_gnp(20, 0.8, 2), mixed_labels(20, [0.7, 0.1, 0.2], 2))


def test_the_w2_case_reaches_the_cut():
    g, labels = W2_CASE
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    trace = refine_external(Counts(g, labels, 3), table_for(g, p), cut_seed=1)
    assert len(trace.w2) == len(trace.w1) == 20
    assert len(trace.wcut[0]) and len(trace.wcut[1])


# vertex 0 alone in X, the rest in Z: quarantine takes 0..5 and absorbs none,
# and vertex 1 is left with one W2 neighbour (0) against a cross floor of 1
INNER_FLOOR_CASE = (
    Graph.from_edges(11, [(0, v) for v in range(1, 6)]
                     + [(1, v) for v in range(6, 11)]
                     + [(u, v) for u in range(2, 6) for v in range(u + 1, 6)]
                     + [(u, v) for u in range(2, 6) for v in (6, 7)]),
    np.array([PART_X] + [PART_Z] * 10))


def test_a_leftover_vertex_below_twice_its_floor_fails_the_inner_floor():
    g, labels = INNER_FLOOR_CASE
    p = ParamSet(0.0, 0.02, EXTERNAL, d_const=0.005)
    t = table_for(g, p)
    counts = Counts(g, labels, 3)
    trace = refine_external(counts, t)
    assert trace.w1.tolist() == trace.w2.tolist() == list(range(6))
    assert trace.absorbed == []
    # the entry goodness fails, so the pass lets the miss through unasserted
    facts = recount_facts(g, t, labels, counts.labels, trace.w2)
    assert not facts["entry_goodness"]
    assert not facts["w2_inner_floor"]
    assert facts["w2_side_floors"] and facts["w2_all_active"]


# Y holds 10 and 13, the rest is Z, and the entry goodness fails: quarantine
# takes 12 vertices, absorbs none, and leaves vertex 12 below twice its cross
# floor inside W2.  The pass must then not rely on the cut: 12 ends below its
# cross floor, and asserting the floor there would be wrong.
CUT_UNGUARDED_CASE = (gen_gnp(24, 0.3, 49),
                      np.where(np.isin(np.arange(24), [10, 13]), PART_Y, PART_Z))


def test_the_cut_floor_is_asserted_only_above_the_inner_floor():
    g, labels = CUT_UNGUARDED_CASE
    p = ParamSet(0.0, 0.02, EXTERNAL, d_const=0.001)
    t = table_for(g, p)
    counts = Counts(g, labels, 3)
    trace = refine_external(counts, t, cut_seed=1)
    assert len(trace.w2) == 12 and trace.absorbed == []
    facts = recount_facts(g, t, labels, counts.labels, trace.w2)
    assert not facts["entry_goodness"] and not facts["w2_inner_floor"]
    profile = part_profile(g, counts.labels, 3)
    fpsi = t.fpsi[t.row_index(g.degree)]
    assert profile[12, PART_X if counts.labels[12] == PART_Y else PART_Y] < fpsi[12]


def outcome(refine, counts, *args):
    """The repr of every field of the trace and of the counts it left; an
    AssertionError's type and message if the run raised one."""
    try:
        trace = refine(counts, *args)
    except AssertionError as exc:
        return "AssertionError", str(exc)
    return repr((plain(trace), counts.labels.tolist(), counts.matrix.tolist(),
                 counts.sizes.tolist()))


@settings(max_examples=300, deadline=None)
@given(tripartitions(), st.sampled_from([0.02, 0.09]),
       st.sampled_from([0.001, 0.005, 0.02, 0.1]), st.integers(0, 3))
@example(W2_CASE, 0.09, 0.02, 1)
@example(INNER_FLOOR_CASE, 0.02, 0.005, 0)
@example(CUT_UNGUARDED_CASE, 0.02, 0.001, 1)
def test_refine_external_matches_the_reference(case, eps, d_const, cut_seed):
    g, labels = case
    p = ParamSet(0.0, eps, EXTERNAL, d_const=d_const)
    t = table_for(g, p)
    counts = Counts(g, labels, 3)
    got = outcome(refine_external, counts.copy(), t, cut_seed)
    want = outcome(ref_refine_external, counts.copy(), t, cut_seed)
    assert got == want
