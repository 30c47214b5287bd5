"""Flip searches and their local-optimum checkers.

``data/golden_cuts.json`` pins, for seeded flip searches on G(400, 0.05),
the sha256 of the labels, the move count and the objectives.  The labels
depend on the order in which vertices are visited, so the file is never
regenerated to follow a change of that order; it is made only by

    PYTHONPATH=src python tests/test_cuts.py > tests/data/golden_cuts.json
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart import cuts
from degpart.cuts import (BiasVector, _balanced_random_split, _move_thresholds,
                          _word_layout, biased_max_r_cut,
                          check_biased_local_min, local_maxcut)
from degpart.gen import gen_gnp
from degpart.graph import Counts, Graph, part_profile

from conftest import complete_graph, cycle_graph, graphs, watchdog

PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def test_local_maxcut_c4_reaches_proper_bipartition():
    g = cycle_graph(4)
    plus, minus, _ = local_maxcut(g, seed=0)
    assert ref_check_flip_local_optimum(g, plus, minus) == []
    side = np.zeros(4, dtype=int)
    side[minus] = 1
    counts = part_profile(g, side, 2)
    own = counts[np.arange(4), side]
    assert own.tolist() == [0, 0, 0, 0]


def test_local_maxcut_k3_every_split_is_local_opt():
    g = complete_graph(3)
    for seed in range(5):
        plus, minus, _ = local_maxcut(g, seed=seed)
        assert ref_check_flip_local_optimum(g, plus, minus) == []
        assert sorted((len(plus), len(minus))) == [1, 2]


def test_local_maxcut_petersen_invariant_all_seeds():
    g = Graph.from_edges(10, PETERSEN)
    for seed in range(8):
        plus, minus, _ = local_maxcut(g, seed=seed)
        assert ref_check_flip_local_optimum(g, plus, minus) == []


def test_local_maxcut_empty_and_subset():
    g = complete_graph(6)
    plus, minus, flips = local_maxcut(g, subset=[], seed=0)
    assert len(plus) == 0 and len(minus) == 0 and flips == 0
    plus, minus, _ = local_maxcut(g, subset=[0, 2, 4, 5], seed=1)
    assert sorted(np.concatenate([plus, minus]).tolist()) == [0, 2, 4, 5]
    assert ref_check_flip_local_optimum(g, plus, minus) == []


@pytest.mark.parametrize("subset, entry", [
    ([-10, 3], "entry 0 is -10"),  # used to wrap to vertex 0
    ([0.5, 1], "entry 0 is 0.5"),  # used to be cut to vertex 0
    ([0, 1, 12], "entry 2 is 12"),
    ([-1, 0, 1, 2], "entry 0 is -1"),
])
def test_local_maxcut_refuses_a_subset_of_no_vertex_ids(subset, entry):
    g = gen_gnp(10, 0.5, 0)
    with pytest.raises(ValueError, match=rf"subset {entry}, not a vertex id in \[0, 10\)"):
        local_maxcut(g, subset)


def test_bias_vector_validation():
    F = Fraction
    assert BiasVector((F(1, 2), F(1, 2))).alpha == (F(1, 2), F(1, 2))
    assert BiasVector(("1/5", "3/10", "1/2")).alpha == (F(1, 5), F(3, 10), F(1, 2))
    # floats snap to the p/q they stand for, numpy numbers included
    assert BiasVector((1 / 5, 3 / 10, 1 / 2)).alpha == (F(1, 5), F(3, 10), F(1, 2))
    assert BiasVector((1 / 3, 2 / 3)).alpha == (F(1, 3), F(2, 3))
    assert BiasVector((np.float64(0.25), np.float32(0.75))).alpha == (F(1, 4), F(3, 4))
    assert all(type(a) is Fraction for a in BiasVector((0.5, np.float64(0.5))).alpha)
    with pytest.raises(ValueError):
        BiasVector((F(1, 2), F(1, 3)))  # sums to 5/6
    with pytest.raises(ValueError):
        BiasVector((F(0), F(1)))  # entries must be in (0,1)
    with pytest.raises(ValueError):
        BiasVector((np.int64(1), np.int64(0)))
    with pytest.raises(ValueError, match="sum to 1"):
        BiasVector((0.5, 0.5001))  # 1/2 + 5001/10000
    # malformed entries are refused with their position
    for bad, why in [(None, "number"), ([1], "number"), (1j, "number"),
                     (float("nan"), "finite"), (float("inf"), "finite"),
                     (-float("inf"), "finite"), ("abc", "not a number"),
                     ("1/0", "not a number"), (0.3333333, "pass it as 'p/q'"),
                     (np.float64(0.1 + 0.2), "pass it as 'p/q'")]:
        with pytest.raises(ValueError, match=f"bias entry 1 .*{why}"):
            BiasVector(("1/2", bad))


def test_bias_weights_integer_scaling():
    bv = BiasVector((Fraction(2, 3), Fraction(1, 3)))
    assert bv.weights() == [3, 6]  # lcm(2,1)=2; 2*(3/2)=3, 2*(3/1)=6


def test_biased_cut_c4_half_half():
    g = cycle_graph(4)
    bv = BiasVector((Fraction(1, 2), Fraction(1, 2)))
    res = biased_max_r_cut(g, bv, seed=3)
    assert check_biased_local_min(Counts(g, res.labels, bv.r), bv) == []
    assert res.objective_end <= res.objective_start


def test_biased_cut_k3_lopsided():
    g = complete_graph(3)
    bv = BiasVector((Fraction(2, 3), Fraction(1, 3)))
    res = biased_max_r_cut(g, bv, seed=0)
    # every nontrivial 2-partition of K3 is a 2|1 split with one inner edge
    # in the pair part: scaled objective = w_0 * 1 = 3 or w_1 * 1 = 6
    assert res.objective_end in (3, 6)
    assert check_biased_local_min(Counts(g, res.labels, bv.r), bv) == []


def test_biased_cut_rejects_r_above_n():
    g = complete_graph(2)
    with pytest.raises(ValueError):
        biased_max_r_cut(g, BiasVector(("1/3", "1/3", "1/3")), seed=0)


def test_biased_cut_singleton_part_trivially_fine():
    g = complete_graph(5)
    bv = BiasVector((Fraction(9, 10), Fraction(1, 10)))
    res = biased_max_r_cut(g, bv, seed=1)
    assert check_biased_local_min(Counts(g, res.labels, bv.r), bv) == []


BIASES = [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)),
]


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=3, max_n=14), st.sampled_from(BIASES), st.integers(0, 5))
def test_biased_cut_exact_invariants(g, alpha, seed):
    bv = BiasVector(alpha)
    if bv.r > g.n:
        return
    res = biased_max_r_cut(g, bv, seed=seed)
    assert check_biased_local_min(Counts(g, res.labels, bv.r), bv) == []
    counts = part_profile(g, res.labels, bv.r)
    # d_own(x) <= alpha_i * d(x) for every x, exactly (cross-multiplied)
    for v in range(g.n):
        i = int(res.labels[v])
        own = int(counts[v, i])
        assert own * bv.alpha[i].denominator <= \
            bv.alpha[i].numerator * int(g.degree[v])


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=3, max_n=12), st.integers(0, 3))
def test_biased_cut_maximize_gives_own_floor(g, seed):
    bv = BiasVector((Fraction(1, 2), Fraction(1, 2)))
    res = biased_max_r_cut(g, bv, seed=seed, maximize=True)
    assert check_biased_local_min(Counts(g, res.labels, bv.r), bv, maximize=True) == []
    counts = part_profile(g, res.labels, 2)
    sizes = np.bincount(res.labels, minlength=2)
    for v in range(g.n):
        i = int(res.labels[v])
        if sizes[i] >= 2:
            assert 2 * counts[v, i] >= g.degree[v]  # own >= d/2 at alpha=1/2


def test_biased_half_half_matches_flip_invariant():
    g = gen_gnp(40, 0.2, seed=5)
    bv = BiasVector((Fraction(1, 2), Fraction(1, 2)))
    res = biased_max_r_cut(g, bv, seed=7)
    counts = part_profile(g, res.labels, 2)
    own = counts[np.arange(g.n), res.labels]
    cross = g.degree - own
    sizes = np.bincount(res.labels, minlength=2)
    movable = sizes[res.labels] >= 2
    assert (cross[movable] >= own[movable]).all()


# -- reference implementations: plain per-vertex sweeps and checks -----------
# The flip searches must make exactly the moves of these loops; the checkers
# must return exactly their violation lists.


def ref_local_maxcut(graph, subset=None, seed=0):
    if subset is None:
        ids = np.arange(graph.n, dtype=np.int64)
    else:
        ids = np.unique(np.asarray(subset, dtype=np.int64))
    if len(ids) == 0:
        return ids.copy(), ids.copy(), 0
    rng = np.random.default_rng(seed)
    side = np.full(graph.n, -1, dtype=np.int64)
    side[ids] = _balanced_random_split(ids, 2, rng)
    in_s = np.zeros(graph.n, dtype=bool)
    in_s[ids] = True

    own = np.zeros(graph.n, dtype=np.int64)
    cross = np.zeros(graph.n, dtype=np.int64)
    for v in ids.tolist():
        for w in graph.neighbors(v).tolist():
            if in_s[w]:
                if side[w] == side[v]:
                    own[v] += 1
                else:
                    cross[v] += 1

    flips = 0
    improved = True
    while improved:
        improved = False
        for v in ids.tolist():
            if own[v] > cross[v]:
                sv = side[v]
                side[v] = 1 - sv
                own[v], cross[v] = cross[v], own[v]
                for w in graph.neighbors(v).tolist():
                    if in_s[w]:
                        if side[w] == sv:
                            own[w] -= 1
                            cross[w] += 1
                        else:
                            own[w] += 1
                            cross[w] -= 1
                flips += 1
                improved = True
    return ids[side[ids] == 0], ids[side[ids] == 1], flips


def ref_biased_max_r_cut(graph, bias, seed=0, maximize=False):
    r = bias.r
    rng = np.random.default_rng(seed)
    ids = np.arange(graph.n, dtype=np.int64)
    labels = _balanced_random_split(ids, r, rng)
    w = bias.weights()
    counts = part_profile(graph, labels, r)
    part_size = np.bincount(labels, minlength=r)

    def objective():
        tot = 0
        for j in range(r):
            tot += w[j] * int(counts[labels == j, j].sum())
        return tot // 2

    f0 = objective()
    f_cur = f0
    moves = 0
    improved = True
    while improved:
        improved = False
        for v in range(graph.n):
            i = int(labels[v])
            if part_size[i] < 2:
                continue
            di = int(counts[v, i])
            cost_i = w[i] * di
            for j in range(r):
                if j == i:
                    continue
                dj = int(counts[v, j])
                cost_j = w[j] * dj
                better = cost_j < cost_i if not maximize else cost_j > cost_i
                if better:
                    labels[v] = j
                    part_size[i] -= 1
                    part_size[j] += 1
                    for u in graph.neighbors(v).tolist():
                        counts[u, i] -= 1
                        counts[u, j] += 1
                    f_cur = f_cur + (cost_j - cost_i)
                    moves += 1
                    improved = True
                    break
    return labels, f0, f_cur, moves


def ref_check_flip_local_optimum(graph, plus, minus):
    in_s = np.zeros(graph.n, dtype=bool)
    side = np.zeros(graph.n, dtype=np.int64)
    in_s[plus] = True
    in_s[minus] = True
    side[minus] = 1
    bad = []
    for v in np.concatenate([plus, minus]).tolist():
        own = cross = 0
        for wv in graph.neighbors(v).tolist():
            if in_s[wv]:
                if side[wv] == side[v]:
                    own += 1
                else:
                    cross += 1
        if cross < own:
            bad.append(v)
    return bad


def ref_check_biased_local_min(graph, labels, bias, maximize=False):
    r = bias.r
    counts = part_profile(graph, labels, r)
    sizes = np.bincount(labels, minlength=r)
    alpha = bias.alpha
    bad = []
    for v in range(graph.n):
        i = int(labels[v])
        if sizes[i] < 2:
            continue
        di = int(counts[v, i])
        for j in range(r):
            if j == i:
                continue
            dj = int(counts[v, j])
            lhs, rhs = alpha[j] * di, alpha[i] * dj
            ok = (lhs <= rhs) if not maximize else (lhs >= rhs)
            if not ok:
                bad.append((v, i, j, di, dj))
    return bad


# weights of 2**139: the flip search and the checker fall back to python ints
HUGE = (Fraction(2 ** 69 + 1, 2 ** 70), Fraction(2 ** 69 - 1, 2 ** 70))
# eight parts, weights near 2**528: python ints on a two-word layout
HUGE8 = tuple(Fraction(2 ** 66 + e, 2 ** 69) for e in (1, -1, 3, -3, 5, -5, 7, -7))


def star(d):
    """K_{1,d}: vertex 0 joined to 1..d."""
    return Graph.from_edges(d + 1, [(0, v) for v in range(1, d + 1)])


def with_examples(cases):
    """Apply @example(*case) for every case, in order."""
    def apply(test):
        for case in reversed(cases):
            test = example(*case)(test)
        return test
    return apply


THREE = BiasVector(("1/5", "3/10", "1/2"))
# stars whose max degree sits at and around each field width 2**k, r = 3: one
# word up to 2**14 - 1, then two words with no count field in word 0
STAR_CASES = [((star(d), THREE if d >= 2 else BiasVector(("1/3", "2/3"))), k, d % 2 == 0)
              for k in range(1, 15) for d in (2 ** k - 1, 2 ** k)]
# K_12 in 12 parts and 8 parts at max degree 40-44 take two words, no count
# field in word 0; K_11 in 11 parts fills one word; K_24 in 20 parts of
# biases 1:2:...:20 takes three words, no count field in word 0
LAYOUT_CASES = [
    ((complete_graph(12), BiasVector(tuple(Fraction(1, 12) for _ in range(12)))), 0, False),
    ((complete_graph(12), BiasVector(tuple(1 / 12 for _ in range(12)))), 1, True),
    ((complete_graph(11), BiasVector(tuple(Fraction(1, 11) for _ in range(11)))), 2, False),
    ((star(40), BiasVector(HUGE8)), 0, False),
    ((star(40), BiasVector(HUGE8)), 1, True),
    ((gen_gnp(48, 0.8, 3), BiasVector(HUGE8)), 2, False),
    ((gen_gnp(48, 0.8, 4), BiasVector(HUGE8[::-1])), 3, True),
    ((gen_gnp(24, 0.4, 5), BiasVector(HUGE[::-1])), 4, False),
    ((gen_gnp(24, 0.4, 6), BiasVector(HUGE[::-1])), 5, True),
    ((complete_graph(24), BiasVector(tuple(Fraction(k, 210) for k in range(1, 21)))), 6, False),
]

# (window, dense) of the flip kernel: a sweep runs a window of that many ids
# as one block when it holds at least dense candidates.  The shipped values
# seldom make a block on graphs this small, so the kernel tests also run with
# blocks everywhere, of one vertex, of five and of the shipped width, and
# with blocks off.
POLICIES = [(cuts._WINDOW, cuts._DENSE), (1, 0), (5, 0), (cuts._WINDOW, 0),
            (cuts._WINDOW, cuts._WINDOW + 1)]


# wall-time bound of one kernel run in these tests; a defect that corrupts
# the kernel's counts can make its search cycle forever
KERNEL_SECONDS = 20


def under_each_policy(run):
    """run() under each window policy of the flip kernel, in turn; a run
    past KERNEL_SECONDS raises TimeoutError naming its policy."""
    out = []
    for window, dense in POLICIES:
        with mock.patch.multiple(cuts, _WINDOW=window, _DENSE=dense), \
                watchdog(KERNEL_SECONDS, f"the flip kernel under policy "
                                         f"(window={window}, dense={dense})"):
            out.append(run())
    return out


@st.composite
def biases(draw, r):
    """Random biases from 1:1 to 1:60 lopsided, given as Fractions or as
    floats (which snap to the same Fractions)."""
    ks = draw(st.lists(st.integers(1, 60), min_size=r, max_size=r))
    if draw(st.booleans()):
        return BiasVector(tuple(Fraction(k, sum(ks)) for k in ks))
    return BiasVector(tuple(k / sum(ks) for k in ks))


@st.composite
def cut_cases(draw):
    """A graph and biases for 2 to 20 parts.  The kernel keeps a vertex's
    counts in two or three words from r = 10 on at max degree 16-23, and
    from r = 19 on at max degree 2-3."""
    r = draw(st.sampled_from([2, 3, 4]) | st.integers(5, 20))
    g = draw(graphs(min_n=r, max_n=24))
    return g, draw(biases(r))


@settings(max_examples=200, deadline=None)
@given(cut_cases(), st.integers(0, 7), st.booleans())
@example((complete_graph(6), BiasVector(("1/20", "19/20"))), 0, True)
@example((complete_graph(6), BiasVector(HUGE)), 1, False)
@example((gen_gnp(24, 0.4, 1), BiasVector(HUGE)), 2, True)
@example((gen_gnp(12, 0.7, 0), BiasVector((1 / 13, 5 / 13, 7 / 13))), 2, False)
@example((gen_gnp(12, 0.6, 2), BiasVector((5 / 13, 5 / 13, 3 / 13))), 3, True)
@with_examples(STAR_CASES + LAYOUT_CASES)
def test_biased_cut_matches_reference_sweep(case, seed, maximize):
    g, bv = case
    labels, f0, f_end, moves = ref_biased_max_r_cut(g, bv, seed=seed,
                                                    maximize=maximize)
    for res in under_each_policy(
            lambda: biased_max_r_cut(g, bv, seed=seed, maximize=maximize)):
        assert res.labels.tolist() == labels.tolist()
        assert (res.moves, res.objective_start, res.objective_end) == (moves, f0, f_end)
        assert type(res.objective_end) is type(f_end)


@pytest.mark.parametrize("n, p", [(600, 0.08), (2000, 0.002)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("maximize", [False, True])
def test_biased_cut_matches_reference_at_the_shipped_policy(n, p, seed, maximize):
    """The shipped (_WINDOW, _DENSE) on a dense and a sparse graph, both
    large enough to make blocks.  Each block with a mover reads the movers'
    CSR rows once through ``row_entries``, which counts those blocks: 5-12
    per search on G(600, 0.08) and 23-27 on G(2000, 0.002) at these seeds."""
    g = gen_gnp(n, p, 1)
    labels, f0, f_end, moves = ref_biased_max_r_cut(g, THREE, seed=seed,
                                                    maximize=maximize)
    with (watchdog(KERNEL_SECONDS, f"the flip kernel on G({n}, {p})"),
          mock.patch.object(Graph, "row_entries", autospec=True,
                            side_effect=Graph.row_entries) as blocks):
        res = biased_max_r_cut(g, THREE, seed=seed, maximize=maximize)
    assert blocks.call_count > 0
    assert res.labels.tolist() == labels.tolist()
    assert (res.moves, res.objective_start, res.objective_end) == (moves, f0, f_end)


def test_biased_cut_guard_keeps_last_vertex():
    # maximize with alpha_0 = 1/20: part 0 weighs 19 times part 1, so every
    # vertex prefers part 0, but the last vertex of part 1 may not move
    g = complete_graph(6)
    bv = BiasVector(("1/20", "19/20"))
    res = biased_max_r_cut(g, bv, seed=0, maximize=True)
    assert np.bincount(res.labels, minlength=2).tolist() == [5, 1]
    assert res.labels.tolist() == ref_biased_max_r_cut(g, bv, 0, True)[0].tolist()


@st.composite
def maxcut_cases(draw):
    g = draw(graphs(min_n=2, max_n=24))
    subset = draw(st.none() | st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    return g, subset


@settings(max_examples=200, deadline=None)
@given(maxcut_cases(), st.integers(0, 7))
@example((complete_graph(5), []), 0)
@example((complete_graph(5), [3]), 0)
@example((cycle_graph(8), [7, 1, 1, 4, 0]), 2)
def test_local_maxcut_matches_reference_sweep(case, seed):
    g, subset = case
    want = ref_local_maxcut(g, subset, seed=seed)
    for got in under_each_policy(lambda: local_maxcut(g, subset, seed=seed)):
        assert [got[0].tolist(), got[1].tolist(), got[2]] == \
            [want[0].tolist(), want[1].tolist(), want[2]]


@st.composite
def labelings(draw):
    g, bv = draw(cut_cases())
    labels = draw(st.lists(st.integers(0, bv.r - 1), min_size=g.n, max_size=g.n))
    return g, bv, np.array(labels, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(labelings(), st.booleans())
@example((complete_graph(4), BiasVector(HUGE), np.array([0, 0, 1, 1])), False)
@example((Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)]),
          BiasVector((0.1, 0.3, 0.6)), np.array([1, 1, 1, 1, 0, 2])), False)
def test_check_biased_local_min_matches_reference(case, maximize):
    g, bv, labels = case
    assert check_biased_local_min(Counts(g, labels, bv.r), bv, maximize) == \
        ref_check_biased_local_min(g, labels, bv, maximize)


def test_checkers_report_violations_in_order():
    g = complete_graph(4)
    bv = BiasVector(("1/2", "1/2"))
    labels = np.array([0, 0, 0, 1])
    want = [(0, 0, 1, 2, 1), (1, 0, 1, 2, 1), (2, 0, 1, 2, 1)]
    assert check_biased_local_min(Counts(g, labels, bv.r), bv) == want
    assert ref_check_biased_local_min(g, labels, bv) == want


# -- the move-threshold table and the counts the kernel leaves behind -----------


@st.composite
def move_weights(draw, r):
    """Per-part integer weights: int64 ones, or ones of about 2**139 (python
    ints in object arrays)."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(1, 10 ** 6), min_size=r, max_size=r))
    return [2 ** 139 + draw(st.integers(-2 ** 70, 2 ** 70)) for _ in range(r)]


@st.composite
def table_cases(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    return draw(move_weights(r)), draw(st.integers(0, 24)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(table_cases())
@example(([1, 1], 0, False))
@example(([2 ** 139, 2 ** 139 + 1, 2 ** 139 - 1], 9, True))
@example(([15, 10, 6], 20, True))
def test_move_table_decides_as_the_direct_comparison(case):
    w, maxdeg, maximize = case
    thr = _move_thresholds(w, maxdeg, maximize)
    assert thr.shape == (len(w), len(w), maxdeg + 1)
    for l in range(len(w)):
        for c_l in range(maxdeg + 1):
            own = w[l] * c_l
            for q in range(len(w)):
                for c_q in range(maxdeg + 1):
                    cost = w[q] * c_q
                    direct = cost > own if maximize else cost < own
                    table = c_q > thr[q, l, c_l] if maximize else c_q < thr[q, l, c_l]
                    assert table == direct, (l, q, c_l, c_q)


def test_word_layout_packs_every_field_once():
    for r in range(2, 21):
        for maxdeg in [0, 1, 2, 3, 7, 8, 23, 40, 255, 2 ** 14 - 1, 2 ** 14, 2 ** 20]:
            bits, word, offset, shift = _word_layout(r, maxdeg)
            span = bits + 1
            assert maxdeg < 2 ** bits
            nw = max(word) + 1
            used = [0] * nw
            for q in range(r):
                field = (2 ** span - 1) << offset[q]
                assert not used[word[q]] & field, (r, maxdeg, q)
                used[word[q]] |= field
            # word 0's key (label, own count) sits above its fields
            assert used[0] < 2 ** shift
            assert shift + bits + (r - 1).bit_length() <= 63
            assert all(u < 2 ** 63 for u in used)
            # parts in index order across words 0, 1, ..., fields from bit 0
            assert word == sorted(word)
            assert all(offset[q] == (offset[q - 1] + span if word[q] == word[q - 1] else 0)
                       for q in range(1, r))
            # no fewer words would hold the fields
            cap, cap0 = 63 // span, (63 - bits - (r - 1).bit_length()) // span
            assert nw == 1 or cap0 + (nw - 2) * cap < r
    # the layouts the @examples of the kernel tests stand for
    assert _word_layout(3, 2 ** 14 - 1)[1] == [0, 0, 0]
    assert _word_layout(3, 2 ** 14)[1:] == ([1, 1, 1], [0, 16, 32], 0)  # word 0: key only
    assert _word_layout(11, 10)[1] == [0] * 11  # one full word
    assert _word_layout(12, 11)[1] == [1] * 12
    assert _word_layout(8, 40)[1] == [1] * 8
    assert max(_word_layout(20, 23)[1]) == 2 and _word_layout(20, 23)[3] == 0


def assert_counts_current(counts, graph, r):
    assert (counts.matrix == part_profile(graph, counts.labels, r)).all()
    assert counts.sizes.tolist() == np.bincount(counts.labels, minlength=r).tolist()


@settings(max_examples=100, deadline=None)
@given(cut_cases(), st.integers(0, 7), st.booleans())
# weights of 2**139 with no edge: the weights themselves need python ints
@example((Graph.from_edges(3, []), BiasVector(HUGE)), 0, False)
@example((Graph.from_edges(3, []), BiasVector(HUGE)), 0, True)
@with_examples(STAR_CASES[-4:] + LAYOUT_CASES)
def test_biased_cut_returns_current_counts(case, seed, maximize):
    g, bv = case
    for res in under_each_policy(
            lambda: biased_max_r_cut(g, bv, seed=seed, maximize=maximize)):
        assert res.counts.graph is g and res.labels is res.counts.labels
        assert_counts_current(res.counts, g, bv.r)
        assert check_biased_local_min(res.counts, bv, maximize) == []


@settings(max_examples=100, deadline=None)
@given(maxcut_cases(), st.integers(0, 7))
def test_local_maxcut_leaves_its_counts_current(case, seed):
    g, subset = case
    kernel = cuts._flip_search
    ids = np.unique(np.asarray(subset if subset is not None else range(g.n),
                               dtype=np.int64))

    def run():
        seen = []

        def spy(counts, w, maximize=False):
            out = kernel(counts, w, maximize)
            seen.append(counts)
            return out
        with mock.patch.object(cuts, "_flip_search", spy):
            plus, minus, _ = local_maxcut(g, subset, seed=seed)
        return seen, plus, minus
    for seen, plus, minus in under_each_policy(run):
        if not seen:  # an empty subset runs no search
            assert len(plus) == len(minus) == 0
            continue
        (counts,) = seen
        assert_counts_current(counts, counts.graph, 2)
        assert plus.tolist() == ids[counts.labels == 0].tolist()
        assert minus.tolist() == ids[counts.labels == 1].tolist()


GOLDEN = Path(__file__).parent / "data" / "golden_cuts.json"
GOLDEN_BIASES = {"float": (1 / 5, 3 / 10, 1 / 2), "exact": ("1/3", "1/3", "1/3")}


def _golden_rcut(seed, kind, maximize):
    res = biased_max_r_cut(gen_gnp(400, 0.05, seed), BiasVector(GOLDEN_BIASES[kind]),
                           seed=seed, maximize=maximize)
    h = hashlib.sha256(np.asarray(res.labels, dtype="<i8").tobytes()).hexdigest()
    return {"labels_sha256": h, "moves": res.moves,
            "objective_start": str(res.objective_start),
            "objective_end": str(res.objective_end)}


def _golden_maxcut(seed, subset):
    g = gen_gnp(400, 0.05, seed)
    plus, minus, flips = local_maxcut(g, subset, seed=seed)
    h = hashlib.sha256()
    for part in (plus, minus):
        h.update(np.asarray(part, dtype="<i8").tobytes())
        h.update(b";")
    return {"labels_sha256": h.hexdigest(), "flips": flips}


GOLDEN_RUNS = {
    **{f"rcut-{kind}-{'max' if maximize else 'min'}-seed{seed}":
       (lambda seed=seed, kind=kind, maximize=maximize:
        _golden_rcut(seed, kind, maximize))
       for seed in (0, 1) for kind in GOLDEN_BIASES for maximize in (False, True)},
    "maxcut-whole-seed0": lambda: _golden_maxcut(0, None),
    "maxcut-whole-seed1": lambda: _golden_maxcut(1, None),
    "maxcut-subset-seed0": lambda: _golden_maxcut(0, np.arange(3, 400, 3)),
    "maxcut-subset-seed1": lambda: _golden_maxcut(1, np.arange(0, 400, 2)),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_golden_cut(name):
    assert GOLDEN_RUNS[name]() == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    json.dump({name: run() for name, run in GOLDEN_RUNS.items()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
