from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpart.gen import gen_gnp
from degpart.graph import Counts
from degpart.stage1 import (PART_A, PART_B, PART_C, balancing_sides, goodness_map,
                            random_tripartition_attempt, relocate_bad_from_c,
                            stage_one, tripartition_probabilities)
from degpart.thresholds import (EXTERNAL, INTERNAL, ParamSet,
                                build_threshold_table)

from conftest import complete_graph


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


def sequential_sides(size_a, size_b, k):
    """One vertex at a time onto the smaller side, ties to A."""
    sides = []
    for _ in range(k):
        if size_a <= size_b:
            sides.append(PART_A)
            size_a += 1
        else:
            sides.append(PART_B)
            size_b += 1
    return sides


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 60))
def test_balancing_sides_matches_the_sequential_loop(size_a, size_b, k):
    assert balancing_sides(size_a, size_b, k).tolist() == \
        sequential_sides(size_a, size_b, k)


def test_relocate_identity_when_no_bad():
    g = complete_graph(6)
    p = ParamSet(0.0, 0.25, INTERNAL)  # default constant: nothing active
    t = table_for(g, p)
    labels = np.array([0, 0, 1, 1, 2, 2])
    counts = Counts(g, labels, 3)
    gm = goodness_map(counts, t)
    assert gm.both_good.all() and gm.weight == 0
    relocate_bad_from_c(counts, gm)
    assert (counts.labels == labels).all()


def test_relocate_splits_all_bad_c_evenly():
    # K10 with thresholds that are active and unreachable from an empty side
    g = complete_graph(10)
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    t = table_for(g, p)
    labels = np.full(10, PART_C)
    counts = Counts(g, labels, 3)
    gm = goodness_map(counts, t)
    assert not gm.both_good.any()  # d_A = d_B = 0 below any active floor
    relocate_bad_from_c(counts, gm)
    sizes = np.bincount(counts.labels, minlength=3)
    assert sizes[PART_C] == 0 and sizes[PART_A] == 5 and sizes[PART_B] == 5


def test_relocate_weight_never_increases_and_goodness_monotone():
    g = gen_gnp(120, 0.3, seed=4)
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    t = table_for(g, p)
    counts = Counts(g, random_tripartition_attempt(g, p, 9, 0), 3)
    gm = goodness_map(counts, t)
    relocate_bad_from_c(counts, gm)
    out = counts.labels
    gm2 = goodness_map(counts, t)
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
    t = table_for(g, p)
    # the default window, [1.8, 2.2] rounded outward to [1, 3], misses three
    # times at seed 3: each record names the violated property, and the best
    # attempt (the first of equals) is returned
    res = stage_one(g, p, t, seed=3, attempts=3)
    assert not res.ok and res.violated == ["size"]
    assert res.attempts == len(res.log) == 3
    assert [rec["attempt"] for rec in res.log] == [0, 1, 2]
    assert [rec["violated"] for rec in res.log] == [["size"]] * 3
    assert list(res.sizes) == res.log[0]["sizes"] == [4, 2, 2]
    # the fourth attempt holds, and the log keeps the misses before it
    ok = stage_one(g, p, t, seed=3, attempts=8)
    assert ok.ok and ok.attempts == len(ok.log) == 4
    assert ok.log[:3] == res.log
    assert ok.log[3] == {"attempt": 3, "sizes": list(ok.sizes), "weight": ok.weight,
                         "violated": []}


def test_stage_one_success_passes_independent_recount():
    g = gen_gnp(400, 0.3, seed=3)
    p = ParamSet(0.0, 0.15, INTERNAL, d_const=0.07)
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=5, size_window="vacuous",
                    weight_budget="vacuous")
    assert res.ok
    gm = goodness_map(Counts(g, res.labels, 3), t)
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


WINDOW_REFUSAL = ("size_window must be 'vacuous', (lo, hi) or ((loA, hiA), "
                  "(loB, hiB)) of finite reals, got ")
BUDGET_REFUSAL = "weight_budget must be 'vacuous' or a number, got "


@pytest.mark.parametrize("options,why", [
    ({"size_window": 5}, WINDOW_REFUSAL + "5"),
    ({"size_window": [1]}, WINDOW_REFUSAL + "[1]"),
    ({"size_window": 2 ** 100}, WINDOW_REFUSAL + str(2 ** 100)),
    ({"size_window": (0, 1, 2)}, WINDOW_REFUSAL + "(0, 1, 2)"),
    ({"size_window": "wide"}, WINDOW_REFUSAL + "'wide'"),
    ({"size_window": (0, float("inf"))}, WINDOW_REFUSAL + "(0, inf)"),
    ({"size_window": (float("nan"), 5)}, WINDOW_REFUSAL + "(nan, 5)"),
    ({"size_window": (True, 5)}, WINDOW_REFUSAL + "(True, 5)"),
    ({"size_window": ((0, 5), (1, "9"))}, WINDOW_REFUSAL + "((0, 5), (1, '9'))"),
    ({"size_window": ((0, 5), 7)}, WINDOW_REFUSAL + "((0, 5), 7)"),
    ({"weight_budget": "abc"}, BUDGET_REFUSAL + "'abc'"),
    ({"weight_budget": [1]}, BUDGET_REFUSAL + "[1]"),
    ({"weight_budget": float("nan")}, BUDGET_REFUSAL + "nan"),
    ({"weight_budget": False}, BUDGET_REFUSAL + "False"),
    # 2.5 and "3" used to end in Python's own TypeError messages, and True
    # ran one attempt
    ({"attempts": 0}, "attempts must be an integer >= 1, got 0"),
    ({"attempts": 2.5}, "attempts must be an integer >= 1, got 2.5"),
    ({"attempts": "3"}, "attempts must be an integer >= 1, got '3'"),
    ({"attempts": True}, "attempts must be an integer >= 1, got True")])
def test_stage_one_refuses_a_malformed_window_or_budget(options, why):
    g = gen_gnp(20, 0.3, seed=0)
    p = ParamSet(0.0, 0.25, INTERNAL)
    with pytest.raises(ValueError) as info:
        stage_one(g, p, table_for(g, p), **options)
    assert str(info.value) == why


def test_stage_one_takes_every_window_and_budget_form():
    # integers past float range and Fractions are finite reals
    g = gen_gnp(20, 0.3, seed=0)
    p = ParamSet(0.0, 0.25, INTERNAL)
    for window, budget in [((0, 20), 10 ** 400), ([0, 10 ** 400], None),
                           ([[0, 20], [Fraction(1, 2), 20.0]], float("inf")),
                           ((np.int64(0), np.float64(20)), np.int64(5))]:
        assert stage_one(g, p, table_for(g, p), size_window=window,
                         weight_budget=budget, attempts=1).ok


def test_stage_one_external_weight_budget_counts_active_only():
    g = gen_gnp(300, 0.3, seed=7)
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=0.02)
    t = table_for(g, p)
    res = stage_one(g, p, t, seed=2, size_window="vacuous",
                    weight_budget="vacuous")
    gm = goodness_map(Counts(g, res.labels, 3), t)
    recount = int(g.degree[gm.active & ~gm.both_good].sum())
    assert res.weight == recount
