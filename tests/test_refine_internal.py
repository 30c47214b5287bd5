import json
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart.certify import check_claims, table_floor, tripartition_claims
from degpart.dense import extract_dense
from degpart.gen import complete_graph, gen_gnp
from degpart.graph import Counts, part_profile
from degpart.pipelines import tripartition
from degpart.refine_int import (Evacuation, InternalRefineTrace,
                                _evacuee_landing_is_good, refine_internal_once)
from degpart.stage1 import PART_A, PART_B, PART_C, goodness_map, stage_one
from degpart.thresholds import INTERNAL, ParamSet, build_threshold_table

from conftest import mixed_labels, tripartitions


def table_for(graph, params):
    return build_threshold_table(params, np.unique(graph.degree))


def test_vacuous_thresholds_refinement_is_identity():
    g = gen_gnp(80, 0.2, seed=0)
    p = ParamSet(0.0, 0.25, INTERNAL)  # default constant, nothing active
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=0, size_window="vacuous",
                    weight_budget="vacuous")
    counts = Counts(g, res.labels, 3)
    trace = refine_internal_once(counts, p, t)
    assert (counts.labels == res.labels).all()
    assert trace.evacuations == [] and trace.patch == {}
    assert len(trace.a_star) == int((res.labels == PART_A).sum())


def active_setup(n=250, p_edge=0.3, seed=3, eps=0.02, d=0.05):
    g = gen_gnp(n, p_edge, seed=seed)
    params = ParamSet(0.0, eps, INTERNAL, d_const=d)
    t = table_for(g, params)
    assert t.active.any()
    res = stage_one(g, params, t, seed=seed, size_window="vacuous",
                    weight_budget="vacuous")
    assert res.ok
    return g, params, t, res


def test_refine_enforces_own_floor_with_active_thresholds():
    g, params, t, res = active_setup()
    out = Counts(g, res.labels, 3)
    trace = refine_internal_once(out, params, t)
    assert trace.checks["floor_a"]
    assert trace.checks["b_grew_only"] and trace.checks["c_shrank_only"]
    # from-scratch recount of the floor
    rows = t.row_index(g.degree)
    fphi = t.fphi[rows]
    active = t.active[rows]
    counts = part_profile(g, out.labels, 3)
    in_a = out.labels == PART_A
    assert ((counts[:, PART_A] >= fphi) | ~(in_a & active)).all()


def test_refine_trace_replay_evacuations_sound():
    g, params, t, res = active_setup(seed=11)
    trace = refine_internal_once(Counts(g, res.labels, 3), params, t)
    rows = t.row_index(g.degree)
    fphi = t.fphi[rows]
    # replay: at each evacuation the recorded joint degree was below the
    # floor, and the absorbed set was exactly the evacuee's C-neighborhood
    lab = trace.labels_in.copy()
    for ev in trace.evacuations:
        joint = sum(1 for w in g.neighbors(ev.vertex).tolist()
                    if lab[w] in (PART_A, PART_C))
        assert joint == ev.joint_degree_at_move
        assert joint < fphi[ev.vertex]
        expect_absorbed = [w for w in g.neighbors(ev.vertex).tolist()
                           if lab[w] == PART_C]
        assert expect_absorbed == ev.absorbed
        lab[ev.vertex] = PART_B
        for w in ev.absorbed:
            lab[w] = PART_B
    # after evacuations, patches pull only C-neighbors of the deficient vertex
    for x, rx in trace.patch.items():
        nb = set(g.neighbors(x).tolist())
        for w in rx:
            assert w in nb and lab[w] == PART_C


def test_refine_c_goodness_stable_per_step_small_instance():
    g, params, t, res = active_setup(n=60, p_edge=0.4, seed=21)
    trace = refine_internal_once(Counts(g, res.labels, 3), params, t)
    # surviving C vertices never lose A-side degree at any evacuation step
    lab = trace.labels_in.copy()
    for ev in trace.evacuations:
        before = part_profile(g, lab, 3)
        lab2 = lab.copy()
        lab2[ev.vertex] = PART_B
        for w in ev.absorbed:
            lab2[w] = PART_B
        after = part_profile(g, lab2, 3)
        still_c = lab2 == PART_C
        assert (after[still_c, PART_A] == before[still_c, PART_A]).all()
        lab = lab2


def test_refine_new_b_vertices_good_and_contained():
    g, params, t, res = active_setup(seed=5)
    trace = refine_internal_once(Counts(g, res.labels, 3), params, t)
    assert trace.precond["goodness_ok"]
    assert trace.checks["new_b_good"]
    assert trace.checks["bad_b_contained"]
    assert trace.checks["arithmetic_fact"]


def test_refine_smoke_k9_floor_one():
    # floor(phi(8)) == 1 at these overrides: every final A vertex keeps an
    # own-part neighbor
    g = complete_graph(9)
    params = ParamSet(0.0, 0.02, INTERNAL, d_const=0.1)
    t = table_for(g, params)
    k = int(t.row_index(np.array([8]))[0])
    assert t.fphi[k] == 1
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    out = Counts(g, labels, 3)
    refine_internal_once(out, params, t)
    counts = part_profile(g, out.labels, 3)
    in_a = out.labels == PART_A
    assert (counts[in_a, PART_A] >= 1).all()


def test_min_indegree_pipeline_vacuous_settings():
    g = gen_gnp(100, 0.2, seed=9)
    p = ParamSet(0.0, 0.25, INTERNAL)
    tri = tripartition(g, p, seed=0, size_window="vacuous",
                       weight_budget="vacuous")
    assert tri.ok
    assert set(tri.conditions) == {"size_window", "floor_a", "floor_b", "floor_c"}
    assert tri.conditions["floor_a"] and tri.conditions["floor_b"]
    # with nothing active both refinement passes are the identity
    assert (tri.labels == tri.stage1.labels).all()


def test_min_indegree_seeded_nonzero_c():
    # c=0.3, eps=0.17, d=1: all degrees inactive at this scale, sizes land in
    # the target window and the certificate-grade conditions hold
    g = gen_gnp(1500, 0.05, seed=17)
    p = ParamSet(0.3, 0.17, INTERNAL, d_const=1.0)
    tri = tripartition(g, p, seed=4)
    assert tri.ok
    assert tri.conditions["size_window"]
    import math
    lo = math.floor((1 - 0.3 - 3 * 0.17) / 2 * g.n)
    hi = math.ceil((1 - 0.3 - 0.17) / 2 * g.n)
    sizes = np.bincount(tri.labels, minlength=3)
    assert lo <= sizes[0] <= hi and lo <= sizes[1] <= hi


def test_min_indegree_pipeline_active_regime():
    g = gen_gnp(250, 0.3, seed=13)
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    tri = tripartition(g, p, seed=2, size_window="vacuous",
                       weight_budget="vacuous")
    # the two refinement passes enforce the floors on both sides
    claims = tripartition_claims(INTERNAL, table_floor("phi", p), (0, g.n))
    assert all(check_claims(g, tri.labels, 3,
                            claims["floor_a"] + claims["floor_b"]))
    assert tri.conditions["floor_a"] and tri.conditions["floor_b"]


def test_min_indegree_stage_failure_propagates():
    g = gen_gnp(8, 0.5, seed=2)
    p = ParamSet(0.0, 0.25, INTERNAL)
    tri = tripartition(g, p, seed=0, attempts=4, size_window=(3.9, 4.0))
    if not tri.ok:
        assert tri.diagnostics.get("stage") in ("stage1", "conditions")


def test_isolated_vertices_unconstrained():
    from degpart.graph import Graph
    g = Graph.from_edges(30, [(i, i + 1) for i in range(20)])
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    tri = tripartition(g, p, seed=1, size_window="vacuous",
                       weight_budget="vacuous")
    assert tri.ok
    # degree-0 and low-degree vertices land somewhere without constraint
    rows = tri.table.row_index(g.degree)
    assert not tri.table.active[rows][g.degree == 0].any()


def test_the_patch_pulls_donors_and_meets_the_floor():
    # large C (c=0.5) with small degrees: some A vertices sit below the own
    # floor but hold enough C-neighbors, so the patch step has real work
    g = gen_gnp(600, 0.025, seed=4)
    params = ParamSet(0.5, 0.005, INTERNAL, d_const=0.01)
    t = table_for(g, params)
    res = stage_one(g, params, t, seed=4, size_window="vacuous",
                    weight_budget="vacuous")
    counts = Counts(g, res.labels, 3)
    trace = refine_internal_once(counts, params, t)
    assert trace.patch and trace.checks["floor_a"]
    # the patched vertices stay in A and their donors joined it from C
    for x, rx in trace.patch.items():
        assert counts.labels[x] == PART_A and trace.labels_in[x] == PART_A
        assert (counts.labels[rx] == PART_A).all()
        assert (trace.labels_in[rx] == PART_C).all()


# -- reference implementation: the pass on per-vertex numpy reads ------------
# refine_internal_once must give exactly its trace, labels and counts.


def ref_refine_internal_once(counts, params, table):
    """``refine_internal_once`` with per-vertex numpy reads: the evacuation
    queue and the patch index the arrays with numpy scalars and read each
    row through ``graph.neighbors``."""
    graph, lab = counts.graph, counts.labels
    n = graph.n
    labels_in = lab.copy()
    rows = table.rows_of(graph)
    active = table.active[rows]
    fphi = table.fphi[rows]

    gm = goodness_map(counts, table)
    in_a = lab == PART_A
    weight_a = int(graph.degree[in_a & active & ~gm.good_a].sum())
    precond = {
        "goodness_ok": not bool(((lab == PART_C) & active & ~gm.both_good).any()),
        "weight_a": weight_a,
        "weight_ok_entry": weight_a <= params.eps ** 2 * n / 250.0,
        "weight_ok_stage": weight_a <= params.eps ** 2 * n / 1e4,
    }
    arithmetic_ok = _evacuee_landing_is_good(table)

    # step 1: the dense core of G[A], on the counts of A
    target = np.where(in_a & active, fphi, 0)
    extract = None
    if target.any():
        extract = extract_dense(counts, (PART_A,), target, table.mu[rows])
        a_star = extract.surviving
    else:
        a_star = np.nonzero(in_a)[0]

    # step 2: evacuation of joint-degree-deficient A vertices
    dac = counts.matrix[:, PART_A] + counts.matrix[:, PART_C]
    constrained = active & (fphi >= 1)
    evacuations: list[Evacuation] = []
    queue = deque(np.nonzero(in_a & constrained & (dac < fphi))[0].tolist())
    in_c = lab == PART_C
    while queue:
        v = queue.popleft()
        if not in_a[v] or dac[v] >= fphi[v]:
            continue
        absorbed = [w for w in graph.neighbors(v).tolist() if in_c[w]]
        evacuations.append(Evacuation(int(v), int(graph.degree[v]), int(dac[v]),
                                      absorbed))
        moved = [v] + absorbed
        for u in moved:
            in_c[u] = False
        in_a[v] = False
        for u in moved:
            for w in graph.neighbors(u).tolist():
                if in_a[w]:
                    dac[w] -= 1
                    if constrained[w] and dac[w] < fphi[w]:
                        queue.append(w)
    counts.move([u for e in evacuations for u in [e.vertex] + e.absorbed], PART_B)

    assert in_a[a_star].all(), "extracted core lost vertices during evacuation"

    # step 3: patch deficient A vertices from their C-neighborhoods
    d_a = counts.matrix[:, PART_A]
    patch: dict[int, list[int]] = {}
    for v in np.flatnonzero(in_a & constrained & (d_a < fphi)).tolist():
        need = int(fphi[v] - d_a[v])
        donors = [w for w in graph.neighbors(v).tolist() if in_c[w]]
        assert len(donors) >= need, f"vertex {v} of A has too few C donors"
        patch[v] = donors[:need]
    counts.move(sorted({w for rx in patch.values() for w in rx}), PART_A)

    # the pass contract, checked on the maintained counts
    gm2 = goodness_map(counts, table)
    in_a2, in_b2, in_c2 = (lab == PART_A), (lab == PART_B), (lab == PART_C)
    in_b0, in_c0 = labels_in == PART_B, labels_in == PART_C
    drift = params.eps * n / 500.0
    sz = lambda m: int(m.sum())
    checks = {
        "arithmetic_fact": arithmetic_ok,
        "b_grew_only": bool((in_b0 <= in_b2).all()),
        "c_shrank_only": bool((in_c2 <= in_c0).all()),
        "size_drift_a": abs(sz(in_a2) - sz(labels_in == PART_A)) <= drift,
        "size_drift_b": sz(in_b0) <= sz(in_b2) <= sz(in_b0) + drift,
        "size_drift_c": sz(in_c0) - drift <= sz(in_c2) <= sz(in_c0),
        "floor_a": bool((~(active & in_a2) | (d_a >= fphi)).all()),
        "c_both_good": not bool((in_c2 & active & ~gm2.both_good).any()),
        "new_b_good": not bool((in_b2 & ~in_b0 & active & ~gm2.good_b).any()),
        "bad_b_contained": bool(
            ((in_b2 & active & ~gm2.good_b) <= (in_b0 & active & ~gm.good_b)).all()),
    }
    assert checks["b_grew_only"] and checks["c_shrank_only"]
    if precond["goodness_ok"]:
        # patch donors come from C and are A-good, so the floor cannot
        # miss unless the entry goodness precondition already failed
        assert checks["floor_a"], \
            "a vertex of A missed its own-degree floor after the patch"
    if precond["goodness_ok"] and arithmetic_ok:
        assert checks["new_b_good"], \
            "an evacuated vertex landed in B without B-goodness"
    guaranteed = precond["goodness_ok"] and precond["weight_ok_entry"] \
        and all(checks.values())
    return InternalRefineTrace(a_star, extract, evacuations, patch, labels_in,
                               precond, checks, guaranteed)


# On true counts the patch cannot run out of donors: after step 2 every
# constrained vertex of A has d_A + d_C >= floor(phi).  Phantom C-neighbours
# added to the count of the lowest vertex of A keep it out of the
# evacuation, so only they can starve its patch, and the pass asserts.
FAILED_PATCH_CASE = (gen_gnp(9, 0.8, 1), mixed_labels(9, [0.15, 0.8, 0.05], 2))


def test_the_failed_patch_case_fails_after_an_evacuation():
    g, labels = FAILED_PATCH_CASE
    params = ParamSet(0.0, 0.02, INTERNAL, d_const=0.005)
    with pytest.raises(AssertionError, match="vertex 3 of A has too few C donors"):
        refine_internal_once(with_phantoms(Counts(g, labels, 3), 1), params,
                             table_for(g, params))


def with_phantoms(counts, phantom):
    in_a = np.flatnonzero(counts.labels == PART_A)
    if len(in_a):
        counts.matrix[in_a[0], PART_C] += phantom
    return counts


def outcome(refine, counts, *args):
    """The trace as JSON text, the labels in and the A* core, and the counts
    it left; an AssertionError's type if the run raised one."""
    try:
        trace = refine(counts, *args)
    except AssertionError:
        return "AssertionError"
    return (json.dumps(trace.to_jsonable()), trace.labels_in.tolist(),
            trace.a_star.tolist(), counts.labels.tolist(), counts.matrix.tolist(),
            counts.sizes.tolist())


@settings(max_examples=300, deadline=None)
@given(tripartitions(), st.sampled_from([0.02, 0.1]),
       st.sampled_from([0.005, 0.05, 0.2]), st.integers(0, 3))
@example(FAILED_PATCH_CASE, 0.02, 0.005, 1)
def test_refine_internal_once_matches_the_reference(case, eps, d_const, phantom):
    g, labels = case
    params = ParamSet(0.0, eps, INTERNAL, d_const=d_const)
    t = table_for(g, params)
    counts = with_phantoms(Counts(g, labels, 3), phantom)
    got = outcome(refine_internal_once, counts.copy(), params, t)
    want = outcome(ref_refine_internal_once, counts.copy(), params, t)
    assert got == want
