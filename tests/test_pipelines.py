import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart import certify, pipelines
from degpart.certify import verify_certificate, verify_report
from degpart.cuts import BiasVector, biased_max_r_cut, check_biased_local_min
from degpart.gen import gen_gnp
from degpart.graph import Counts, Graph, part_profile
from degpart.oracle import best_bisection
from degpart.pipelines import (_exact_min_ratio, _make_report, _repair,
                               bisect_dual, bisect_external, bisect_internal,
                               bisect_with_cut_average, distribute_c_for_balance,
                               partition_stats, r_partition,
                               random_bisection_stats, run_shape,
                               tripartition, tripartition_exact)
from degpart.refine_ext import refine_external
from degpart.refine_int import refine_internal_once
from degpart.stage1 import PART_A, PART_B, stage_one
from degpart.thresholds import EXTERNAL, INTERNAL, ParamSet, build_threshold_table

from conftest import complete_graph, cycle_graph
from reference_refine import plain, recount_facts

from test_golden import RUNS

VAC = {"size_window": "vacuous", "weight_budget": "vacuous"}


@pytest.fixture(autouse=True)
def every_ok_report_certifies_its_statement(monkeypatch):
    """Each ok report a test here makes must pass ``verify_report`` with its
    statement certified: the claims a pipeline gates on are its statement."""
    made, make = [], pipelines._make_report

    def keep(counted, *args, **kwargs):
        made.append((counted.graph, make(counted, *args, **kwargs)))
        return made[-1][1]
    monkeypatch.setattr(pipelines, "_make_report", keep)
    yield
    for graph, report in made:
        if report.ok:
            result = verify_report(graph, report)
            assert result.passed and result.statement is True, result.reason


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


def test_the_shapes_take_no_threshold_table():
    g = complete_graph(4)
    params = ParamSet(0.0, 0.25, INTERNAL)
    table = build_threshold_table(params, np.unique(g.degree))
    for run in (lambda **kw: bisect_internal(g, params, **kw),
                lambda **kw: bisect_external(g, **kw),
                lambda **kw: tripartition_exact(g, 1, ParamSet(0.2, 0.2, INTERNAL),
                                                **kw),
                lambda **kw: bisect_dual(g, 1, 0.25, **kw),
                lambda **kw: bisect_with_cut_average(g, 1, 0.25, **kw)):
        with pytest.raises(TypeError):
            run(table=table)


@pytest.mark.parametrize("k", [-1, 1.5, True])
@pytest.mark.parametrize("shape", ["tripart", "dual", "cutavg"])
def test_the_derived_shapes_refuse_a_k_that_is_no_integer_floor(monkeypatch, shape, k):
    # on G(200, 0.3) dual and cutavg certified k=-1 (a floor of -1, a cut
    # bound of -126), and k=1.5 ran as the floor 1 with diagnostics of 1.5
    g = gen_gnp(200, 0.3, 1)
    monkeypatch.setattr(pipelines, "stage_one", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match=rf"^k must be an integer >= 0, got {k!r}$"):
        pipelines.run_shape(g, shape, INTERNAL, k=k)


def test_numpy_integer_k_and_attempts_are_recorded_as_ints():
    r = bisect_dual(complete_graph(6), np.int64(1), 0.25, seed=0, **VAC)
    assert type(r.diagnostics["k"]) is int and r.diagnostics["k"] == 1
    assert json.dumps(r.to_jsonable())
    # a failed stage one reports the attempts it was given; an np.int64 there
    # made the report unwritable as JSON
    r = bisect_internal(gen_gnp(12, 0.4, 1), seed=0, attempts=np.int64(1),
                        size_window=(5.9, 6.0))
    assert not r.ok and type(r.diagnostics["stage1_attempts"]) is int
    assert json.dumps(r.to_jsonable())


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


def test_tripartition_exact_asymmetric_window():
    # stage one takes ((loA, hiA), (loB, hiB)); each side is claimed against
    # its own window (a float() of the pair used to raise TypeError)
    g = gen_gnp(100, 0.3, seed=1)
    p = ParamSet(0.5, 0.3, INTERNAL, relaxed=True)
    r = tripartition_exact(g, 1, p, seed=1, size_window=((10, 30), (5, 25)))
    windows = [(c["part"], c["lo"], c["hi"]) for c in r.certificate.claims
               if c["kind"] == "part_size_window"]
    assert windows == [(0, 10.0, 30.0), (1, 5.0, 25.0)]
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
    # ceil((1 - 0.5) * 20) = 10 vertices must meet the secondary floor
    assert certify.claim_count_meeting_floor("cross", 2, 10) in r.certificate.claims
    assert verify_certificate(g, r.labels, r.certificate, r=2).passed


def test_bisect_dual_external_primary():
    g = complete_graph(20)
    r = bisect_dual(g, 2, 0.5, EXTERNAL, seed=0)
    assert r.ok
    assert r.diagnostics["secondary_count"] == 20


def test_a_dual_run_short_of_the_secondary_count_is_not_ok(monkeypatch):
    # two disjoint K_10, one per side: every vertex keeps 9 own neighbours
    # (primary k=2 holds) and none has a cross neighbour, so the count of
    # vertices meeting the secondary floor, 0, misses ceil((1 - 0.25) 20) = 15
    g = Graph.from_edges(20, [(u, v) for base in (0, 10) for u in range(base, base + 10)
                              for v in range(u + 1, base + 10)])
    labels = np.repeat([0, 1], 10)
    monkeypatch.setattr(pipelines, "_fold",
                        lambda tri, prefer: certify.recount(g, labels, 2))
    r = bisect_dual(g, 2, 0.25, INTERNAL, seed=0, **VAC)
    assert not r.ok and r.diagnostics["secondary_count"] == 0
    result = verify_report(g, r)
    assert result.statement is False and "'secondary'" in result.reason
    # the claim the statement asks for fails on these labels
    wanted = certify.claim_count_meeting_floor("cross", 2, 15)
    edited = dataclasses.replace(r.certificate, claims=r.certificate.claims + [wanted])
    res = verify_certificate(g, r.labels, edited, r=2)
    assert not res.passed and res.failed_claim == wanted


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


def test_cut_average_split_failure_reports_attempts_and_hypothesis():
    # this report used to carry only failure, cap_a and size_c
    r = bisect_with_cut_average(gen_gnp(6, 0.6, seed=0), 0, 0.5, seed=6,
                                attempts=1, **VAC)
    assert not r.ok
    assert r.diagnostics == {
        "failure": "C split infeasible", "cap_a": 2, "size_c": 1,
        "stage1_attempts": 1,
        "stage1_log": [{"attempt": 0, "sizes": [1, 4, 1], "weight": 0, "violated": []}],
        "min_degree_hypothesis": {"required": 0.0, "actual": 1, "ok": True}}
    assert r.labels.tolist() == [1, 0, 1, 1, 2, 1]
    assert r.certificate.claims == [
        certify.claim_extremal_stat("min_own_degree", 0),
        certify.claim_extremal_stat("min_cross_degree", 0),
        certify.claim_extremal_ratio("own", 0, 1),
        certify.claim_extremal_ratio("cross", 0, 1)]


def test_distribute_c_balance_prefers_neighbors():
    g = complete_graph(6)
    labels = np.array([0, 0, 1, 1, 2, 2])
    out = distribute_c_for_balance(Counts(g, labels, 3), prefer="own")
    sizes = np.bincount(out, minlength=3)
    assert sizes[2] == 0 and abs(sizes[0] - sizes[1]) <= 0


def test_distribute_c_infeasible_slots_fill_the_smaller_side():
    g = complete_graph(8)
    labels = np.array([0, 0, 0, 1, 2, 2, 2, 2])
    out = distribute_c_for_balance(Counts(g, labels, 3), cap_a=9)
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
    # the search it ran ends at a local optimum of the maximized objective
    local = biased_max_r_cut(g, bias, seed=1, maximize=True)
    assert r.diagnostics["pre_repair"]["moves"] == local.moves
    assert check_biased_local_min(Counts(g, local.labels, 2), bias, maximize=True) == []
    assert r.stats["sizes"] == [20, 20]


def test_r_partition_rejects_bad_alpha():
    g = complete_graph(10)
    # alpha_0 * n = 0.4 and the remainder goes to part 1: part 0 rounds to 0
    with pytest.raises(ValueError):
        r_partition(g, BiasVector((Fraction(1, 25), Fraction(24, 25))), EXTERNAL)
    with pytest.raises(ValueError):
        BiasVector((Fraction(0), Fraction(1)))


@pytest.mark.parametrize("mode", [INTERNAL, EXTERNAL])
def test_r_partition_float_biases_run_as_their_fractions(mode):
    # floats snap to the p/q they stand for, so the run is the exact one
    g = gen_gnp(400, 0.05, seed=3)
    runs = [r_partition(g, BiasVector(alpha), mode, seed=3)
            for alpha in [(1 / 5, 3 / 10, 1 / 2), ("1/5", "3/10", "1/2")]]
    floats, exact = runs
    assert floats.labels.tolist() == exact.labels.tolist()
    assert floats.certificate.claims == exact.certificate.claims
    assert (floats.ok, floats.params, floats.diagnostics) == \
        (exact.ok, exact.params, exact.diagnostics)


# -- the size repair against the per-mover loop it replaced -------------------


def loop_repair(labels, degree, targets):
    """The size repair one mover at a time, as r_partition ran it before the
    sorted form: the reference for ``_repair``."""
    r = len(targets)
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=r).tolist()
    deltas = [s - t for s, t in zip(sizes, targets)]
    movers = []
    for j in range(r):
        if deltas[j] > 0:
            members = np.nonzero(labels == j)[0]
            order = np.lexsort((members, degree[members]))
            movers.extend(members[order][: deltas[j]].tolist())
    movers.sort(key=lambda v: (int(degree[v]), v))
    for v in movers:
        src = int(labels[v])
        dst = min(range(r), key=lambda q: (sizes[q] - targets[q], q))
        labels[v] = dst
        sizes[src] -= 1
        sizes[dst] += 1
    return labels, len(movers)


def largest_remainder(weights, total):
    quotas = [Fraction(w * total, sum(weights)) for w in weights]
    sizes = [int(q) for q in quotas]
    order = sorted(range(len(weights)), key=lambda i: (sizes[i] - quotas[i], i))
    for i in order[:total - sum(sizes)]:
        sizes[i] += 1
    return sizes


@st.composite
def repair_cases(draw):
    """Labels drawn uniformly or all in one part, degrees in 0..5 (many
    ties), and targets of at least 1 by largest remainder."""
    r = draw(st.integers(2, 8))
    n = draw(st.integers(r, 60))
    if draw(st.booleans()):
        labels = [draw(st.integers(0, r - 1))] * n
    else:
        labels = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    degree = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 5), min_size=r, max_size=r))
    targets = [1 + size for size in largest_remainder(weights, n - r)]
    return np.array(labels, dtype=np.int64), np.array(degree, dtype=np.int64), targets


@settings(max_examples=300, deadline=None)
@given(repair_cases())
def test_repair_makes_the_loops_moves(case):
    labels, degree, targets = case
    before = labels.copy()
    got, movers = _repair(labels, degree, targets)
    want, want_movers = loop_repair(labels, degree, targets)
    assert movers == want_movers and got.tolist() == want.tolist()
    assert np.bincount(got, minlength=len(targets)).tolist() == targets
    assert (labels == before).all()


def test_repair_of_a_collapsed_search():
    # internal mode can collapse to sizes [n-2, 1, 1]: part 0 gives up its 30
    # lowest-(degree, id) members, and they fill the deficits 11 and 19
    rng = np.random.default_rng(5)
    labels = np.zeros(40, dtype=np.int64)
    labels[[3, 17]] = [1, 2]
    degree = rng.integers(0, 4, 40)
    targets = [8, 12, 20]
    got, movers = _repair(labels, degree, targets)
    want, want_movers = loop_repair(labels, degree, targets)
    assert (movers, got.tolist()) == (want_movers, want.tolist())
    assert movers == 30 and np.bincount(got).tolist() == targets
    part0 = [v for v in range(40) if v not in (3, 17)]
    stay = sorted(part0, key=lambda v: (degree[v], v))[30:]
    assert sorted(np.flatnonzero(got == 0).tolist()) == sorted(stay)


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
    s = partition_stats(certify.recount(g, labels, 2))
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
    assert back.stats == r.stats
    assert verify_certificate(g, back.labels, back.certificate, r=back.r).passed


def test_guarantee_requires_configured_threshold():
    g = complete_graph(20)
    r = bisect_dual(g, 1, 0.5, INTERNAL, seed=0)
    assert not r.guaranteed  # no n threshold configured
    r2 = bisect_dual(g, 1, 0.5, INTERNAL, seed=0, n_guarantee_threshold=10)
    assert r2.guaranteed == r2.ok


def assert_stage1_log(rep, ok_attempt=True):
    """The report's stage-one log: one record per attempt, in order, each
    naming its violated properties; on an ok run the last record violates
    nothing."""
    log = rep.diagnostics["stage1_log"]
    assert len(log) == rep.diagnostics["stage1_attempts"] >= 1
    assert [rec["attempt"] for rec in log] == list(range(len(log)))
    for rec in log:
        assert set(rec) == {"attempt", "sizes", "weight", "violated"}
        assert sum(rec["sizes"]) == rep.n and rec["weight"] >= 0
        assert set(rec["violated"]) <= {"size", "goodness", "weight"}
    assert all(rec["violated"] for rec in log[:-1])
    assert (log[-1]["violated"] == []) == ok_attempt
    return log


def test_derived_shapes_carry_the_stage_one_log():
    g = complete_graph(20)
    for shape, kw in (("tripart", dict(k=1, c=0.5, eps=0.5)),
                      ("dual", dict(k=1, eps=0.5)), ("cutavg", dict(k=1, eps=0.5))):
        rep = run_shape(g, shape, INTERNAL, seed=0, **kw)
        assert_stage1_log(rep)
        # an empty window fails every attempt, and each record says why
        rep = run_shape(g, shape, INTERNAL, seed=0, attempts=3, size_window=(1, 0), **kw)
        log = assert_stage1_log(rep, ok_attempt=False)
        assert len(log) == 3 and all("size" in rec["violated"] for rec in log)
        assert rep.diagnostics["failure"] == {"stage": "stage1",
                                              "violated": log[-1]["violated"]}
        assert json.loads(json.dumps(rep.to_jsonable()))["diagnostics"]["stage1_log"] == log


def test_the_stage_one_log_of_a_pinned_run():
    # G(60, 0.3) at seed 0, external bisection with d_const 0.02, seed 1 and
    # 3 attempts: the per-attempt lines this run wrote to a side file before
    # the log moved into the report
    rep = run_shape(gen_gnp(60, 0.3, seed=0), "bisect", EXTERNAL, d_const=0.02,
                    seed=1, attempts=3)
    assert assert_stage1_log(rep, ok_attempt=False) == [
        {"attempt": 0, "sizes": [25, 27, 8], "weight": 266, "violated": ["size", "weight"]},
        {"attempt": 1, "sizes": [23, 29, 8], "weight": 259, "violated": ["size", "weight"]},
        {"attempt": 2, "sizes": [26, 26, 8], "weight": 245, "violated": ["weight"]}]
    assert rep.diagnostics["failure"] == {"stage": "stage1", "violated": ["weight"]}


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
            before = counts.labels.copy()
            fresh = Counts(g, before, 3)
            traces.append(refine_internal_once(counts, table))
            assert_recounted(g, counts)
            # the pass behaves as it does on a fresh count of its labels
            fresh_trace = refine_internal_once(fresh, table)
            assert (fresh.labels == counts.labels).all()
            assert plain(fresh_trace) == plain(traces[-1])
            facts = recount_facts(g, table, before, counts.labels)
            facts.pop("size_drift")  # binds only asymptotically
            assert all(facts.values()), facts
            if swap:
                counts.swap(PART_A, PART_B)
                assert_recounted(g, counts)
        work = sum(len(t.evacuations) + len(t.patch) for t in traces)
    else:
        before = counts.labels.copy()
        fresh = Counts(g, before, 3)
        trace = refine_external(counts, table, cut_seed=seed)
        assert_recounted(g, counts)
        fresh_trace = refine_external(fresh, table, cut_seed=seed)
        assert (fresh.labels == counts.labels).all()
        assert plain(fresh_trace) == plain(trace)
        facts = recount_facts(g, table, before, counts.labels, trace.w2)
        assert all(facts.values()), facts
        work = len(trace.w1)
    tri = tripartition(g, params, seed=seed, **VAC)
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
    trace = refine_external(counts, table, cut_seed=1)
    assert len(trace.w2) == g.n
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
def test_refine_external_builds_no_cross_subgraph(monkeypatch, make, params, seed):
    # the extraction reads the cross degrees from the counts' X and Y columns
    g = make()
    table = build_threshold_table(params, np.unique(g.degree))
    counts = stage_one(g, params, table, seed=seed, **VAC).counts
    calls = count_cross_subgraph(monkeypatch)
    trace = refine_external(counts, table, cut_seed=seed)
    assert trace.extract is not None and calls == []


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


@pytest.mark.parametrize("mode", [EXTERNAL, INTERNAL])
def test_an_r_partition_counts_its_search_once_and_its_output_once(monkeypatch, mode):
    # the search's start; the emitted labels' recount
    g = gen_gnp(120, 0.1, seed=2)
    calls = count_part_profile(monkeypatch)
    report = r_partition(g, BiasVector(("1/5", "3/10", "1/2")), mode, seed=1)
    assert report.ok and len(calls) == 2
    monkeypatch.undo()
    bias = BiasVector(("1/5", "3/10", "1/2"))
    local = biased_max_r_cut(g, bias, seed=1, maximize=mode == INTERNAL)
    assert local.moves > 0
    assert report.diagnostics["pre_repair"] == {
        "objective_start": str(local.objective_start),
        "objective_end": str(local.objective_end), "moves": local.moves}


def test_make_report_refuses_a_claim_its_labels_break(monkeypatch):
    g = complete_graph(4)
    labels = np.array([0, 0, 0, 1])
    conditions = {"balance": [certify.claim_balance(1)],
                  "sizes": [certify.claim_part_sizes([3, 1])]}
    # the labels break the gated balance: it is left out and ok is False
    params = {"mode": INTERNAL, "statement": {"shape": "bisect"}}
    report = _make_report(certify.recount(g, labels, 2), params, conditions, 0,
                          {"conditions": None})
    assert not report.ok
    assert report.diagnostics["conditions"] == {"balance": False, "sizes": True}
    assert report.certificate.claims[0] == certify.claim_part_sizes([3, 1])
    assert certify.claim_balance(1) not in report.certificate.claims
    assert verify_certificate(g, labels, report.certificate, r=2).passed
    # the statistics' claims must all hold
    def one_too_high(counted):
        stats = partition_stats(counted)
        return dict(stats, min_own_degree=stats["min_own_degree"] + 1)
    monkeypatch.setattr(pipelines, "partition_stats", one_too_high)
    with pytest.raises(AssertionError, match="verifier rejects"):
        _make_report(certify.recount(g, labels, 2), params, {}, 0, {})


def test_no_claim_is_judged_twice_on_one_count(monkeypatch):
    # each emitted labeling's conditions and statistics are judged in one pass
    judged = []
    check = certify._check_claim

    def recording(ctx, claim):
        judged.append((ctx, json.dumps(claim, sort_keys=True)))
        return check(ctx, claim)
    monkeypatch.setattr(certify, "_check_claim", recording)
    reports = [RUNS[name]() for name in ("bisect-int", "bisect-ext", "tripart-int")]
    reports.append(r_partition(gen_gnp(60, 0.3, seed=2),
                               BiasVector((1 / 5, 3 / 10, 1 / 2)), INTERNAL, seed=1))
    assert all(report.certificate.claims for report in reports)
    assert len(judged) == len(set(judged))
