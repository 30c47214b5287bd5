import numpy as np
import pytest

from degpart.gen import complete_graph, gen_gnp
from degpart.stage1 import (PART_A, PART_B, PART_C, goodness_map,
                            random_tripartition_attempt, relocate_bad_from_c,
                            stage_one, tripartition_probabilities)
from degpart.thresholds import (EXTERNAL, INTERNAL, ParamSet,
                                build_threshold_table)


def table_for(graph, params):
    return build_threshold_table(params, np.unique(graph.degree))


def test_probabilities_formula():
    p = ParamSet(0.0, 0.25, INTERNAL)
    assert tripartition_probabilities(p) == (0.25, 0.25, 0.5)


def test_probabilities_boundary_rejected():
    # (1-c)/2 - eps = 0 at c=0.5, eps=0.25: mass zero on the sides
    p = ParamSet(0.5, 0.25, INTERNAL, relaxed=True)
    with pytest.raises(ValueError, match="positive"):
        tripartition_probabilities(p)


def test_random_tripartition_deterministic():
    g = complete_graph(4)
    p = ParamSet(0.0, 0.25, INTERNAL)
    a = random_tripartition_attempt(g, p, 11, 0)
    b = random_tripartition_attempt(g, p, 11, 0)
    assert (a == b).all()
    c = random_tripartition_attempt(g, p, 12, 0)
    assert a.shape == c.shape


def test_relocate_identity_when_no_bad():
    g = complete_graph(6)
    p = ParamSet(0.0, 0.25, INTERNAL)  # default constant: nothing active
    t = table_for(g, p)
    labels = np.array([0, 0, 1, 1, 2, 2])
    gm = goodness_map(g, labels, t)
    assert gm.both_good.all() and gm.weight == 0
    out = relocate_bad_from_c(g, labels, gm)
    assert (out == labels).all()


def test_relocate_splits_all_bad_c_evenly():
    # K10 with thresholds that are active and unreachable from an empty side
    g = complete_graph(10)
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    t = table_for(g, p)
    labels = np.full(10, PART_C)
    gm = goodness_map(g, labels, t)
    assert not gm.both_good.any()  # d_A = d_B = 0 below any active floor
    out = relocate_bad_from_c(g, labels, gm)
    sizes = np.bincount(out, minlength=3)
    assert sizes[PART_C] == 0 and sizes[PART_A] == 5 and sizes[PART_B] == 5


def test_relocate_weight_never_increases_and_goodness_monotone():
    g = gen_gnp(120, 0.3, seed=4)
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    t = table_for(g, p)
    labels = random_tripartition_attempt(g, p, 9, 0)
    gm = goodness_map(g, labels, t)
    out = relocate_bad_from_c(g, labels, gm)
    gm2 = goodness_map(g, out, t)
    assert gm2.weight <= gm.weight
    # parts 0 and 1 only grew, so goodness flags never decay
    assert (gm.good_a <= gm2.good_a).all()
    assert (gm.good_b <= gm2.good_b).all()
    # no bad active vertex remains in C
    in_c = out == PART_C
    assert not (in_c & gm2.active & ~gm2.both_good).any()


def test_stage_one_vacuous_windows_first_attempt():
    g = gen_gnp(50, 0.2, seed=1)
    p = ParamSet(0.0, 0.25, INTERNAL)
    res = stage_one(g, p, table_for(g, p), seed=0,
                    size_window="vacuous", weight_budget="vacuous")
    assert res.ok and res.attempts == 1


def test_stage_one_default_windows_fail_small_n():
    g = gen_gnp(8, 0.5, seed=2)
    p = ParamSet(0.0, 0.25, INTERNAL)
    res = stage_one(g, p, table_for(g, p), seed=0, attempts=8)
    # the default window around [1.8, 2.2] forces both sides to exactly 2
    # of 8 vertices; a miss names the violated property
    if not res.ok:
        assert res.violated and set(res.violated) <= {"size", "goodness", "weight"}
        assert sum(res.failure_counts.values()) >= res.attempts - 1


def test_stage_one_success_passes_independent_recount():
    g = gen_gnp(400, 0.3, seed=3)
    p = ParamSet(0.0, 0.15, INTERNAL, d_const=0.07)
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=5, size_window="vacuous",
                    weight_budget="vacuous")
    assert res.ok
    gm = goodness_map(g, res.labels, t)
    in_c = res.labels == PART_C
    assert not (in_c & gm.active & ~gm.both_good).any()
    assert gm.weight == res.weight


def test_stage_one_asymmetric_window():
    g = gen_gnp(60, 0.3, seed=6)
    p = ParamSet(0.0, 0.25, INTERNAL)
    res = stage_one(g, p, table_for(g, p), seed=1, attempts=64,
                    size_window=((10, 60), (0, 60)), weight_budget="vacuous")
    assert res.ok
    assert res.sizes[PART_A] >= 10


def test_stage_one_external_weight_budget_counts_active_only():
    g = gen_gnp(300, 0.3, seed=7)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=2, size_window="vacuous",
                    weight_budget="vacuous")
    gm = goodness_map(g, res.labels, t)
    recount = int(g.degree[gm.active & ~gm.both_good].sum())
    assert res.weight == recount
