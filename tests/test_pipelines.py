import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from degpart import certify
from degpart.certify import verify_certificate
from degpart.cuts import BiasVector
from degpart.gen import complete_graph, cycle_graph, gen_gnp
from degpart.graph import Counts, Graph, part_profile
from degpart.oracle import best_bisection
from degpart.pipelines import (_exact_min_ratio, _make_report, bisect_dual,
                               bisect_external, bisect_internal,
                               bisect_with_cut_average, distribute_c_for_balance,
                               partition_stats, r_partition,
                               random_bisection_stats, tripartition,
                               tripartition_exact)
from degpart.refine_ext import refine_external
from degpart.refine_int import refine_internal_once
from degpart.stage1 import PART_A, PART_B, stage_one
from degpart.thresholds import EXTERNAL, INTERNAL, ParamSet, build_threshold_table

VAC = {"size_window": "vacuous", "weight_budget": "vacuous"}


def test_bisect_internal_k4():
    g = complete_graph(4)
    r = bisect_internal(g, seed=0)
    assert r.ok and r.stats["sizes"] == [2, 2]
    # every bisection of K4 gives (own, cross) = (1, 2) at every vertex
    assert r.stats["min_own_degree"] == 1
    assert r.stats["min_own_ratio"] == pytest.approx(1 / 3)
    assert verify_certificate(g, r.labels, r.certificate, r=2).passed


def test_bisect_internal_odd_n_differs_by_one():
    g = gen_gnp(31, 0.3, seed=1)
    r = bisect_internal(g, seed=0)
    assert r.ok
    sizes = sorted(r.stats["sizes"])
    assert sizes[1] - sizes[0] == 1


def test_bisect_external_k4():
    # the asymptotic size window is empty at n=4, so pin an explicit one;
    # every bisection of K4 then gives cross-degree 2 = (2/3) d
    g = complete_graph(4)
    r = bisect_external(g, seed=0, size_window=(0, 2))
    assert r.ok
    assert r.stats["min_cross_degree"] == 2
    assert r.stats["min_cross_ratio"] == pytest.approx(2 / 3)


def test_bisect_external_c4_reaches_proper_bipartition():
    g = cycle_graph(4)
    best = 0.0
    for seed in range(8):
        r = bisect_external(g, seed=seed, size_window=(0, 2))
        if r.ok:
            best = max(best, r.stats["min_cross_ratio"])
    assert best == pytest.approx(1.0)


def test_bisect_requires_c_zero_and_matching_mode():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        bisect_internal(g, ParamSet(0.1, 0.2, INTERNAL))
    with pytest.raises(ValueError):
        bisect_external(g, ParamSet(0.0, 0.09, INTERNAL))


def test_bisect_internal_active_regime_floor_claim():
    g = gen_gnp(250, 0.3, seed=13)
    params = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    r = bisect_internal(g, params, seed=2, **VAC)
    assert r.ok
    table = None
    kinds = [c["kind"] for c in r.certificate.claims]
    assert "degree_floor" in kinds
    assert verify_certificate(g, r.labels, r.certificate, r=2).passed
    # C-origin vertices carry the doubled floor, so the folded bisection
    # keeps everyone above floor(phi)
    from degpart.thresholds import build_threshold_table
    table = build_threshold_table(params, np.unique(g.degree))
    rows = table.row_index(g.degree)
    counts = part_profile(g, r.labels, 2)
    own = counts[np.arange(g.n), r.labels]
    need = table.fphi[rows]
    assert ((own >= need) | ~table.active[rows]).all()


def test_tripartition_exact_k0_vacuous():
    g = gen_gnp(60, 0.3, seed=2)
    p = ParamSet(0.0, 0.4, INTERNAL, relaxed=True)
    r = tripartition_exact(g, 0, p, seed=0)
    assert r.diagnostics["conditions"]["floor_ab"]
    assert r.diagnostics["conditions"]["floor_c"]


def test_tripartition_exact_complete_graph():
    g = complete_graph(60)
    p = ParamSet(0.5, 0.5, INTERNAL, relaxed=True)
    r = tripartition_exact(g, 3, p, seed=0)
    assert r.ok
    assert r.diagnostics["min_degree_hypothesis"]["ok"]
    assert verify_certificate(g, r.labels, r.certificate, r=3).passed


def test_tripartition_exact_vacuous_windows():
    g = gen_gnp(60, 0.3, seed=2)
    p = ParamSet(0.5, 0.5, INTERNAL, d_const=1.0, relaxed=True)
    r = tripartition_exact(g, 1, p, seed=0, **VAC)
    assert r.diagnostics["conditions"]["size_window"]
    assert verify_certificate(g, r.labels, r.certificate, r=3).passed


def test_tripartition_exact_hypothesis_shortfall_flagged():
    g = cycle_graph(20)  # min degree 2
    p = ParamSet(0.0, 0.5, INTERNAL, relaxed=True)
    r = tripartition_exact(g, 3, p, seed=0)
    assert not r.diagnostics["min_degree_hypothesis"]["ok"]
    assert not r.guaranteed


def test_tripartition_exact_external_variant():
    g = complete_graph(60)
    p = ParamSet(0.5, 0.5, EXTERNAL, relaxed=True)
    r = tripartition_exact(g, 3, p, seed=1)
    if r.ok:
        counts = part_profile(g, r.labels, 3)
        in_a, in_b = r.labels == 0, r.labels == 1
        cross = np.where(in_a, counts[:, 1], counts[:, 0])
        assert (cross[in_a | in_b] >= 3).all()


def test_bisect_dual_k20():
    g = complete_graph(20)
    r = bisect_dual(g, 2, 0.5, INTERNAL, seed=0)
    assert r.ok
    assert r.diagnostics["secondary_count"] == 20
    assert r.diagnostics["secondary_ok"]
    assert verify_certificate(g, r.labels, r.certificate, r=2).passed


def test_bisect_dual_external_primary():
    g = complete_graph(20)
    r = bisect_dual(g, 2, 0.5, EXTERNAL, seed=0)
    assert r.ok
    assert r.diagnostics["secondary_count"] == 20


def test_cut_average_k60():
    g = complete_graph(60)
    r = bisect_with_cut_average(g, 3, 0.5, seed=0)
    assert r.ok
    assert r.diagnostics["cut_edges"] >= r.diagnostics["cut_bound"]
    assert r.diagnostics["cut_avg_degree"] >= 3
    assert r.stats["sizes"] == [30, 30]
    assert verify_certificate(g, r.labels, r.certificate, r=2).passed


def test_cut_average_infeasible_split_is_failure():
    # force |A| past floor(n/2) with an asymmetric stage window
    g = complete_graph(9)
    r = bisect_with_cut_average(g, 0, 0.5, seed=0, attempts=256,
                                size_window=((5, 9), (0, 4)),
                                weight_budget="vacuous")
    assert not r.ok
    assert r.diagnostics.get("failure") == "C split infeasible"


def test_distribute_c_balance_prefers_neighbors():
    g = complete_graph(6)
    labels = np.array([0, 0, 1, 1, 2, 2])
    out, feasible = distribute_c_for_balance(Counts(g, labels, 3), prefer="own")
    assert feasible
    sizes = np.bincount(out, minlength=3)
    assert sizes[2] == 0 and abs(sizes[0] - sizes[1]) <= 0


def test_distribute_c_infeasible_slots_fill_the_smaller_side():
    g = complete_graph(8)
    labels = np.array([0, 0, 0, 1, 2, 2, 2, 2])
    out, feasible = distribute_c_for_balance(Counts(g, labels, 3), cap_a=9)
    assert not feasible
    # |A| = 3, |B| = 1: B takes C until the sides tie, then A, then B
    assert out.tolist() == [0, 0, 0, 1, 1, 1, 0, 1]


def test_r_partition_exact_sizes_k10():
    g = complete_graph(10)
    bias = BiasVector((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
    r = r_partition(g, bias, EXTERNAL, seed=0)
    assert r.stats["sizes"] == [2, 3, 5]
    counts = part_profile(g, r.labels, 3)
    own = counts[np.arange(10), r.labels]
    # on K10 the own-part degree is the part size minus one
    alphas = [0.2, 0.3, 0.5]
    for v in range(10):
        assert own[v] <= alphas[int(r.labels[v])] * 9 + 1
    assert verify_certificate(g, r.labels, r.certificate, r=3).passed


def test_r_partition_c4_half_half_guarantee():
    g = cycle_graph(4)
    bias = BiasVector((Fraction(1, 2), Fraction(1, 2)))
    r = r_partition(g, bias, EXTERNAL, seed=0)
    assert r.stats["sizes"] == [2, 2]
    # the local-optimum guarantee d_cross >= (1-alpha)*d = 1 pre-repair;
    # some seed reaches the proper bipartition (ratio 1)
    best = max(r_partition(g, bias, EXTERNAL, seed=s).stats["min_cross_ratio"]
               for s in range(8))
    assert best == pytest.approx(1.0)


def test_r_partition_internal_mode_own_floor():
    g = gen_gnp(40, 0.4, seed=6)
    bias = BiasVector((Fraction(1, 2), Fraction(1, 2)))
    r = r_partition(g, bias, INTERNAL, seed=1)
    assert r.diagnostics["pre_repair"]["local_optimum_certified"]
    assert r.stats["sizes"] == [20, 20]


def test_r_partition_rejects_bad_alpha():
    g = complete_graph(10)
    # alpha_0 * n = 0.4 and the remainder goes to part 1: part 0 rounds to 0
    with pytest.raises(ValueError):
        r_partition(g, BiasVector((Fraction(1, 25), Fraction(24, 25))), EXTERNAL)
    with pytest.raises(ValueError):
        BiasVector((Fraction(0), Fraction(1)))


def test_pipeline_values_never_beat_oracle():
    for seed in range(10):
        g = gen_gnp(10, 0.4, seed=seed)
        rint = bisect_internal(g, seed=seed)
        rext = bisect_external(g, seed=seed)
        if rint.ok:
            oracle_own, _ = best_bisection(g, "min-own-degree")
            assert rint.stats["min_own_degree"] <= oracle_own
        if rext.ok:
            oracle_cross, _ = best_bisection(g, "min-cross-degree")
            assert rext.stats["min_cross_degree"] <= oracle_cross


def test_partition_stats_exactness():
    g = cycle_graph(6)
    labels = np.array([0, 1, 0, 1, 0, 1])
    s = partition_stats(g, labels, 2)
    assert s["min_own_degree"] == 0 and s["min_cross_degree"] == 2
    assert s["cut_edges"] == 6 and s["cut_avg_degree"] == 2.0
    assert s["min_cross_ratio_frac"] == [1, 1]


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1,
                max_size=30))
@example([(0, 0), (3, 0)])                        # no positive denominator
@example([(0, 5), (2, 4), (1, 2), (3, 6)])        # a zero numerator, then ties
@example([(100000009, 100000010), (100000008, 100000009)])  # equal as floats
def test_exact_min_ratio_matches_fractions(pairs):
    num = np.array([a for a, _ in pairs], dtype=np.int64)
    den = np.array([b for _, b in pairs], dtype=np.int64)
    expect = min((Fraction(a, b) for a, b in pairs if b > 0), default=math.inf)
    got = _exact_min_ratio(num, den)
    assert got == expect and type(got) is type(expect)


def test_random_bisection_stats_deterministic():
    g = gen_gnp(30, 0.3, seed=0)
    a = random_bisection_stats(g, seed=5)
    b = random_bisection_stats(g, seed=5)
    assert a == b


def test_report_json_round_trip():
    from degpart.pipelines import PipelineReport
    g = complete_graph(4)
    r = bisect_internal(g, seed=0, **VAC)
    back = PipelineReport.from_jsonable(r.to_jsonable())
    assert (back.labels == r.labels).all()
    assert verify_certificate(g, back.labels, back.certificate, r=back.r).passed


def test_guarantee_requires_configured_threshold():
    g = complete_graph(20)
    r = bisect_dual(g, 1, 0.5, INTERNAL, seed=0)
    assert not r.guaranteed  # no n threshold configured
    r2 = bisect_dual(g, 1, 0.5, INTERNAL, seed=0, n_guarantee_threshold=10)
    assert r2.guaranteed == r2.ok


def test_derived_pipelines_write_the_stage_log():
    g = complete_graph(20)
    for run in (lambda log: tripartition_exact(
                    g, 1, ParamSet(0.5, 0.5, INTERNAL, relaxed=True), seed=0,
                    stage_log=log),
                lambda log: bisect_dual(g, 1, 0.5, INTERNAL, seed=0, stage_log=log),
                lambda log: bisect_with_cut_average(g, 1, 0.5, seed=0,
                                                    stage_log=log)):
        log = io.StringIO()
        rep = run(log)
        lines = [json.loads(ln) for ln in log.getvalue().splitlines()]
        assert len(lines) == rep.diagnostics["stage1_attempts"]


# -- one maintained count per run --------------------------------------------

BINDING = [  # (graph, params, seed): floors active on every vertex
    (lambda: gen_gnp(400, 0.03, seed=1), ParamSet(0.0, 0.02, INTERNAL, d_const=0.01), 1),
    (lambda: gen_gnp(400, 0.03, seed=0), ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01), 0),
    (lambda: gen_gnp(250, 0.3, seed=13), ParamSet(0.0, 0.02, INTERNAL, d_const=0.05), 1),
    (lambda: gen_gnp(250, 0.3, seed=13), ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01), 1),
]


def assert_recounted(g, counts):
    assert (counts.matrix == part_profile(g, counts.labels, 3)).all()
    assert (counts.sizes == np.bincount(counts.labels, minlength=3)).all()


@pytest.mark.parametrize("make, params, seed", BINDING)
def test_maintained_counts_equal_a_recount_after_every_stage(make, params, seed):
    g = make()
    table = build_threshold_table(params, np.unique(g.degree))
    assert table.active[table.row_index(g.degree)].all()
    s1 = stage_one(g, params, table, seed=seed, **VAC)
    assert_recounted(g, s1.counts)
    assert (s1.counts.labels == s1.labels).all()
    counts = s1.counts.copy()
    if params.mode == INTERNAL:
        traces = []
        for swap in (False, True):
            if swap:
                counts.swap(PART_A, PART_B)
            labels = counts.labels.copy()
            traces.append(refine_internal_once(counts, params, table))
            assert_recounted(g, counts)
            # the pass behaves as it does on a fresh count of its labels
            fresh = refine_internal_once(Counts(g, labels, 3), params, table)
            for got in (fresh, traces[-1]):
                assert (got.labels_out == counts.labels).all()
            assert (fresh.precond, fresh.checks) == (traces[-1].precond,
                                                     traces[-1].checks)
            if swap:
                counts.swap(PART_A, PART_B)
                assert_recounted(g, counts)
        work = sum(len(t.evacuations) + len(t.patch) for t in traces)
    else:
        labels = counts.labels.copy()
        trace = refine_external(counts, params, table, cut_seed=seed)
        assert_recounted(g, counts)
        fresh = refine_external(Counts(g, labels, 3), params, table, cut_seed=seed)
        assert (trace.labels_out == counts.labels).all()
        assert (fresh.labels_out == counts.labels).all()
        assert (fresh.precond, fresh.checks) == (trace.precond, trace.checks)
        work = len(trace.w1)
    tri = tripartition(g, params, table, seed=seed, **VAC)
    assert tri.ok and (tri.labels == counts.labels).all()
    assert_recounted(g, tri.counts)
    if g.n == 400:  # sparse enough that the refinement moves vertices
        assert work > 0


def test_maintained_counts_follow_the_w2_cut():
    # a thin Y side: extraction deletes every vertex, and the cut places them
    g = gen_gnp(90, 0.4, seed=0)
    params = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    table = build_threshold_table(params, np.unique(g.degree))
    rng = np.random.default_rng(2)
    counts = Counts(g, rng.choice(3, size=g.n, p=[0.7, 0.1, 0.2]), 3)
    trace = refine_external(counts, params, table, cut_seed=1)
    assert len(trace.w2) == g.n
    assert (trace.labels_out == counts.labels).all()
    assert_recounted(g, counts)


def count_cross_subgraph(monkeypatch) -> list:
    """Wrap Graph.cross_subgraph; returns the call log."""
    calls = []
    original = Graph.cross_subgraph

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)
    monkeypatch.setattr(Graph, "cross_subgraph", counted)
    return calls


def test_no_active_vertex_builds_no_cross_subgraph(monkeypatch):
    g = gen_gnp(400, 0.05, seed=3)
    params = ParamSet(0.0, 0.09, EXTERNAL, d_const=1.0)
    table = build_threshold_table(params, np.unique(g.degree))
    assert not table.active.any()
    calls = count_cross_subgraph(monkeypatch)
    report = bisect_external(g, params, seed=3)
    assert report.diagnostics["stage1_attempts"] >= 1
    assert calls == []


@pytest.mark.parametrize("make, params, seed",
                         [b for b in BINDING if b[1].mode == EXTERNAL])
def test_refine_external_builds_one_cross_subgraph(monkeypatch, make, params, seed):
    g = make()
    table = build_threshold_table(params, np.unique(g.degree))
    counts = stage_one(g, params, table, seed=seed, **VAC).counts
    calls = count_cross_subgraph(monkeypatch)
    refine_external(counts, params, table, cut_seed=seed)
    assert len(calls) == 1


def count_part_profile(monkeypatch) -> list:
    """Wrap part_profile in every degpart namespace; returns the call log."""
    calls = []
    original = sys.modules["degpart.graph"].part_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("degpart") and getattr(module, "part_profile",
                                                  None) is original:
            monkeypatch.setattr(module, "part_profile", counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda g: bisect_internal(g, ParamSet(0.0, 0.02, INTERNAL, d_const=0.01),
                              seed=1, **VAC),
    lambda g: bisect_external(g, ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01),
                              seed=0, **VAC),
    lambda g: bisect_internal(g, ParamSet(0.0, 0.25, INTERNAL, d_const=1.0), seed=3),
    lambda g: bisect_external(g, ParamSet(0.0, 0.09, EXTERNAL, d_const=1.0), seed=3),
])
def test_a_bisection_counts_once_per_attempt_and_once_for_its_output(monkeypatch,
                                                                     run):
    g = gen_gnp(400, 0.03, seed=1)
    calls = count_part_profile(monkeypatch)
    report = run(g)
    assert 2 <= len(calls) <= report.diagnostics["stage1_attempts"] + 1


def test_make_report_refuses_a_claim_its_labels_break():
    g = complete_graph(4)
    labels = np.array([0, 0, 0, 1])
    broken = [certify.claim_balance(1)]
    with pytest.raises(AssertionError, match="verifier rejects"):
        _make_report(g, "bisect", {"mode": INTERNAL}, labels, 2, broken, True, 0, {})
    # a count handed in is the emitted labels' own count: it judges the same
    with pytest.raises(AssertionError, match="verifier rejects"):
        _make_report(g, "bisect", {"mode": INTERNAL}, labels, 2, broken, True, 0, {},
                     counted=certify.recount(g, labels, 2))
    floor = certify.claim_degree_floor("all", "own", certify.const_floor(1))
    with pytest.raises(AssertionError, match="verifier rejects"):
        _make_report(g, "bisect", {"mode": INTERNAL}, labels, 2, [floor], True, 0, {})
