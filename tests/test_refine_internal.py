import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart import certify
from degpart.gen import gen_gnp
from degpart.graph import Counts, part_profile
from degpart.pipelines import tripartition
from degpart.refine_int import _evacuee_landing_is_good, refine_internal_once
from degpart.stage1 import PART_A, PART_B, PART_C, stage_one
from degpart.thresholds import INTERNAL, ParamSet, build_threshold_table

from conftest import complete_graph, mixed_labels, tripartitions
from reference_refine import plain, recount_facts, ref_refine_internal_once


def table_for(graph, params):
    return build_threshold_table(params, np.unique(graph.degree))


def test_vacuous_thresholds_refinement_is_identity():
    g = gen_gnp(80, 0.2, seed=0)
    p = ParamSet(0.0, 0.25, INTERNAL)  # default constant, nothing active
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=0, size_window="vacuous",
                    weight_budget="vacuous")
    counts = Counts(g, res.labels, 3)
    trace = refine_internal_once(counts, t, PART_A)
    assert (counts.labels == res.labels).all()
    assert trace.evacuations == [] and trace.patch == {}
    assert len(trace.a_star) == int((res.labels == PART_A).sum())


def active_setup(n=250, p_edge=0.3, seed=3, eps=0.02, d=0.05, stage_seed=None):
    g = gen_gnp(n, p_edge, seed=seed)
    params = ParamSet(0.0, eps, INTERNAL, d_const=d)
    t = table_for(g, params)
    assert t.active.any()
    res = stage_one(g, params, t, seed=seed if stage_seed is None else stage_seed,
                    size_window="vacuous", weight_budget="vacuous")
    assert res.ok
    return g, params, t, res


def test_refine_enforces_own_floor_with_active_thresholds():
    g, params, t, res = evacuating_setup()
    rows = t.row_index(g.degree)
    fphi = t.fphi[rows]
    active = t.active[rows]
    for side in (PART_A, PART_B):
        out = Counts(g, res.labels, 3)
        trace = refine_internal_once(out, t, side)
        assert len(trace.evacuations) > 0
        # the other side only grew and C only shrank
        other = PART_A + PART_B - side
        assert ((res.labels == other) <= (out.labels == other)).all()
        assert ((out.labels == PART_C) <= (res.labels == PART_C)).all()
        # from-scratch recount of the floor
        counts = part_profile(g, out.labels, 3)
        in_s = out.labels == side
        assert ((counts[:, side] >= fphi) | ~(in_s & active)).all()


def evacuating_setup():
    """G(400, 0.03) seed 1 at eps 0.02 and d_const 0.01, with stage one at
    seed 0: a pass on either side of these labels evacuates one vertex."""
    return active_setup(n=400, p_edge=0.03, seed=1, d=0.01, stage_seed=0)


def test_refine_trace_replay_evacuations_sound():
    g, params, t, res = evacuating_setup()
    rows = t.row_index(g.degree)
    fphi = t.fphi[rows]
    for side in (PART_A, PART_B):
        trace = refine_internal_once(Counts(g, res.labels, 3), t, side)
        assert len(trace.evacuations) > 0
        # replay: at each evacuation the recorded joint degree was below the
        # floor, and the absorbed set was exactly the evacuee's C-neighborhood
        lab = res.labels.copy()
        for ev in trace.evacuations:
            joint = sum(1 for w in g.neighbors(ev.vertex).tolist()
                        if lab[w] in (side, PART_C))
            assert joint == ev.joint_degree_at_move
            assert joint < fphi[ev.vertex]
            expect_absorbed = [w for w in g.neighbors(ev.vertex).tolist()
                               if lab[w] == PART_C]
            assert expect_absorbed == ev.absorbed
            lab[[ev.vertex] + ev.absorbed] = PART_A + PART_B - side
        # after evacuations, patches pull only C-neighbors of the deficient
        # vertex
        for x, rx in trace.patch.items():
            nb = set(g.neighbors(x).tolist())
            for w in rx:
                assert w in nb and lab[w] == PART_C


def test_refine_c_goodness_stable_per_step_small_instance():
    g, params, t, res = evacuating_setup()
    for side in (PART_A, PART_B):
        trace = refine_internal_once(Counts(g, res.labels, 3), t, side)
        assert len(trace.evacuations) > 0
        # surviving C vertices never lose side degree at any evacuation step
        lab = res.labels.copy()
        for ev in trace.evacuations:
            before = part_profile(g, lab, 3)
            lab2 = lab.copy()
            lab2[[ev.vertex] + ev.absorbed] = PART_A + PART_B - side
            after = part_profile(g, lab2, 3)
            still_c = lab2 == PART_C
            assert (after[still_c, side] == before[still_c, side]).all()
            lab = lab2


def test_refine_new_b_vertices_good_and_contained():
    g, params, t, res = evacuating_setup()
    assert _evacuee_landing_is_good(t)
    for side in (PART_A, PART_B):
        out = Counts(g, res.labels, 3)
        trace = refine_internal_once(out, t, side)
        assert len(trace.evacuations) > 0
        facts = recount_facts(g, t, res.labels, out.labels, side=side)
        assert facts["entry_goodness"]
        # the other side grew by the evacuees and what they took from C, C
        # shrank by that and the patch pulls, and side by the evacuees less
        # the pulls; one vertex is above eps*n/500 here, so the size-drift
        # bound, which binds only asymptotically, misses
        moved = sum(1 + len(e.absorbed) for e in trace.evacuations)
        pulled = sum(len(rx) for rx in trace.patch.values())
        before, after = (np.bincount(lab, minlength=3) for lab in (res.labels, out.labels))
        other = PART_A + PART_B - side
        assert after[other] - before[other] == moved
        assert before[PART_C] - after[PART_C] == moved - len(trace.evacuations) + pulled
        assert after[side] - before[side] == pulled - len(trace.evacuations)
        assert not facts["size_drift"]
        assert facts["new_b_good"]
        assert facts["bad_b_contained"]


@pytest.mark.parametrize("side", [PART_A, PART_B])
def test_the_landing_check_runs_when_c_enters_both_good(side):
    # every active C vertex enters both-good, so the pass checks where its
    # evacuee lands: lowered below its goodness floor toward the other side
    # (a count the pass reads nowhere else), the evacuee trips the check
    g, params, t, res = evacuating_setup()
    other = PART_A + PART_B - side
    done = Counts(g, res.labels, 3)
    v = refine_internal_once(done, t, side).evacuations[0].vertex
    thr = t.fthr_int[t.row_index(g.degree)][v]
    counts = Counts(g, res.labels, 3)
    counts.matrix[v, other] -= done.matrix[v, other] - thr + 1
    with pytest.raises(AssertionError,
                       match=f"landed in {'AB'[other]} without goodness there"):
        refine_internal_once(counts, t, side)


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
    refine_internal_once(out, t, PART_A)
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
    claims = certify.statement({"shape": "tripartition", "mode": INTERNAL, "c": p.c,
                                "eps": p.eps, "d_const": p.d}, g.n)
    assert all(certify.judge(certify.recount(g, tri.labels, 3),
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
    trace = refine_internal_once(counts, t, PART_A)
    assert trace.patch
    # every active vertex of A meets its own floor, from scratch
    rows = t.row_index(g.degree)
    in_a = counts.labels == PART_A
    own = part_profile(g, counts.labels, 3)[:, PART_A]
    assert ((own >= t.fphi[rows]) | ~(in_a & t.active[rows])).all()
    # C keeps both goodness floors and B takes no vertex that is not B-good;
    # eps*n/500 is below one vertex here, so the size-drift bound, which
    # binds only asymptotically, misses once the pass moves anything
    facts = recount_facts(g, t, res.labels, counts.labels)
    assert facts["entry_goodness"] and facts["c_both_good"]
    assert facts["new_b_good"] and facts["bad_b_contained"]
    assert not facts["size_drift"]
    # the patched vertices stay in A and their donors joined it from C
    for x, rx in trace.patch.items():
        assert counts.labels[x] == PART_A and res.labels[x] == PART_A
        assert (counts.labels[rx] == PART_A).all()
        assert (res.labels[rx] == PART_C).all()


# On true counts the patch cannot run out of donors: after step 2 every
# constrained vertex of A has d_A + d_C >= floor(phi).  Phantom C-neighbours
# added to the count of the lowest vertex of A keep it out of the
# evacuation, so only they can starve its patch, and the pass asserts.
FAILED_PATCH_CASE = (gen_gnp(9, 0.8, 1), mixed_labels(9, [0.15, 0.8, 0.05], 2))


def test_the_failed_patch_case_fails_after_an_evacuation():
    g, labels = FAILED_PATCH_CASE
    params = ParamSet(0.0, 0.02, INTERNAL, d_const=0.005)
    with pytest.raises(AssertionError, match="vertex 3 of A has too few C donors"):
        refine_internal_once(with_phantoms(Counts(g, labels, 3), 1, PART_A),
                             table_for(g, params), PART_A)


def with_phantoms(counts, phantom, side):
    in_side = np.flatnonzero(counts.labels == side)
    if len(in_side):
        counts.matrix[in_side[0], PART_C] += phantom
    return counts


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
@given(tripartitions(), st.sampled_from([0.02, 0.1]),
       st.sampled_from([0.005, 0.05, 0.2]), st.integers(0, 3),
       st.sampled_from([PART_A, PART_B]))
@example(FAILED_PATCH_CASE, 0.02, 0.005, 1, PART_A)
def test_refine_internal_once_matches_the_reference(case, eps, d_const, phantom, side):
    g, labels = case
    params = ParamSet(0.0, eps, INTERNAL, d_const=d_const)
    t = table_for(g, params)
    counts = with_phantoms(Counts(g, labels, 3), phantom, side)
    got = outcome(refine_internal_once, counts.copy(), t, side)
    want = outcome(ref_refine_internal_once, counts.copy(), t, side)
    assert got == want
