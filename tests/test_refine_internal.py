import numpy as np

from degpart.certify import check_claims, table_floor, tripartition_claims
from degpart.gen import complete_graph, gen_gnp
from degpart.graph import part_profile
from degpart.pipelines import tripartition
from degpart.refine_int import refine_internal_once
from degpart.stage1 import PART_A, PART_B, PART_C, stage_one
from degpart.thresholds import INTERNAL, ParamSet, build_threshold_table


def table_for(graph, params):
    return build_threshold_table(params, np.unique(graph.degree))


def test_vacuous_thresholds_refinement_is_identity():
    g = gen_gnp(80, 0.2, seed=0)
    p = ParamSet(0.0, 0.25, INTERNAL)  # default constant, nothing active
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=0, size_window="vacuous",
                    weight_budget="vacuous")
    trace = refine_internal_once(g, res.labels, p, t)
    assert trace.ok
    assert (trace.labels_out == res.labels).all()
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
    trace = refine_internal_once(g, res.labels, params, t)
    assert trace.ok
    assert trace.checks["floor_a"]
    assert trace.checks["b_grew_only"] and trace.checks["c_shrank_only"]
    # from-scratch recount of the floor
    rows = t.row_index(g.degree)
    fphi = t.fphi[rows]
    active = t.active[rows]
    counts = part_profile(g, trace.labels_out, 3)
    in_a = trace.labels_out == PART_A
    assert ((counts[:, PART_A] >= fphi) | ~(in_a & active)).all()


def test_refine_trace_replay_evacuations_sound():
    g, params, t, res = active_setup(seed=11)
    trace = refine_internal_once(g, res.labels, params, t)
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
    trace = refine_internal_once(g, res.labels, params, t)
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
    trace = refine_internal_once(g, res.labels, params, t)
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
    trace = refine_internal_once(g, labels, params, t)
    assert trace.ok
    counts = part_profile(g, trace.labels_out, 3)
    in_a = trace.labels_out == PART_A
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


def test_skip_patch_ablation_reports_honestly():
    # large C (c=0.5) with small degrees: some A vertices sit below the own
    # floor but hold enough C-neighbors, so the patch step has real work
    g = gen_gnp(600, 0.025, seed=4)
    params = ParamSet(0.5, 0.005, INTERNAL, d_const=0.01)
    t = table_for(g, params)
    res = stage_one(g, params, t, seed=4, size_window="vacuous",
                    weight_budget="vacuous")
    full = refine_internal_once(g, res.labels, params, t)
    assert full.patch and full.checks["floor_a"]
    ablated = refine_internal_once(g, res.labels, params, t, skip_patch=True)
    assert ablated.patch == {}
    assert not ablated.checks["floor_a"]
    assert not ablated.guaranteed
