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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart.cuts import (FLOAT_GUARD, BiasVector, _balanced_random_split,
                          biased_max_r_cut, check_biased_local_min,
                          check_flip_local_optimum, local_maxcut)
from degpart.gen import complete_graph, cycle_graph, gen_gnp
from degpart.graph import Counts, Graph, part_profile

from conftest import graphs

PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def test_local_maxcut_c4_reaches_proper_bipartition():
    g = cycle_graph(4)
    plus, minus, _ = local_maxcut(g, seed=0)
    assert check_flip_local_optimum(g, plus, minus) == []
    side = np.zeros(4, dtype=int)
    side[minus] = 1
    counts = part_profile(g, side, 2)
    own = counts[np.arange(4), side]
    assert own.tolist() == [0, 0, 0, 0]


def test_local_maxcut_k3_every_split_is_local_opt():
    g = complete_graph(3)
    for seed in range(5):
        plus, minus, _ = local_maxcut(g, seed=seed)
        assert check_flip_local_optimum(g, plus, minus) == []
        assert sorted((len(plus), len(minus))) == [1, 2]


def test_local_maxcut_petersen_invariant_all_seeds():
    g = Graph.from_edges(10, PETERSEN)
    for seed in range(8):
        plus, minus, _ = local_maxcut(g, seed=seed)
        assert check_flip_local_optimum(g, plus, minus) == []


def test_local_maxcut_empty_and_subset():
    g = complete_graph(6)
    plus, minus, flips = local_maxcut(g, subset=[], seed=0)
    assert len(plus) == 0 and len(minus) == 0 and flips == 0
    plus, minus, _ = local_maxcut(g, subset=[0, 2, 4, 5], seed=1)
    assert sorted(np.concatenate([plus, minus]).tolist()) == [0, 2, 4, 5]
    assert check_flip_local_optimum(g, plus, minus) == []


def test_bias_vector_validation():
    BiasVector((Fraction(1, 2), Fraction(1, 2)))
    BiasVector(("1/5", "3/10", "1/2"))
    with pytest.raises(ValueError):
        BiasVector((Fraction(1, 2), Fraction(1, 3)))  # sums to 5/6
    with pytest.raises(ValueError):
        BiasVector((Fraction(0), Fraction(1)))  # entries must be in (0,1)
    with pytest.raises(ValueError):
        BiasVector((0.5, 0.5001))
    assert not BiasVector((0.5, 0.5)).exact
    assert BiasVector(("1/2", "1/2")).exact


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
        tot = 0 if bias.exact else 0.0
        for j in range(r):
            tot += w[j] * int(counts[labels == j, j].sum())
        return tot // 2 if bias.exact else tot / 2.0

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
                if bias.exact:
                    better = cost_j < cost_i if not maximize else cost_j > cost_i
                else:
                    guard = FLOAT_GUARD * max(1.0, abs(cost_i))
                    better = (cost_j < cost_i - guard) if not maximize \
                        else (cost_j > cost_i + guard)
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
    alpha = bias.alpha if bias.exact else bias.as_floats()
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
            if not ok and not bias.exact:
                ok = abs(float(lhs) - float(rhs)) <= FLOAT_GUARD * max(1.0, float(rhs))
            if not ok:
                bad.append((v, i, j, di, dj))
    return bad


# weights of 2**139: the flip search and the checker fall back to python ints
HUGE = (Fraction(2 ** 69 + 1, 2 ** 70), Fraction(2 ** 69 - 1, 2 ** 70))


@st.composite
def biases(draw, r):
    """Random biases, exact or float, from 1:1 to 1:60 lopsided."""
    ks = draw(st.lists(st.integers(1, 60), min_size=r, max_size=r))
    if draw(st.booleans()):
        return BiasVector(tuple(Fraction(k, sum(ks)) for k in ks))
    return BiasVector(tuple(k / sum(ks) for k in ks))


@st.composite
def cut_cases(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    g = draw(graphs(min_n=r, max_n=24))
    return g, draw(biases(r))


@settings(max_examples=200, deadline=None)
@given(cut_cases(), st.integers(0, 7), st.booleans())
@example((complete_graph(6), BiasVector(("1/20", "19/20"))), 0, True)
@example((complete_graph(6), BiasVector(HUGE)), 1, False)
@example((gen_gnp(24, 0.4, 1), BiasVector(HUGE)), 2, True)
# costs equal up to float rounding: only FLOAT_GUARD keeps these from moving
@example((gen_gnp(12, 0.7, 0), BiasVector((1 / 13, 5 / 13, 7 / 13))), 2, False)
@example((gen_gnp(12, 0.6, 2), BiasVector((5 / 13, 5 / 13, 3 / 13))), 3, True)
def test_biased_cut_matches_reference_sweep(case, seed, maximize):
    g, bv = case
    res = biased_max_r_cut(g, bv, seed=seed, maximize=maximize)
    labels, f0, f_end, moves = ref_biased_max_r_cut(g, bv, seed=seed,
                                                    maximize=maximize)
    assert res.labels.tolist() == labels.tolist()
    assert (res.moves, res.objective_start, res.objective_end) == (moves, f0, f_end)
    assert type(res.objective_end) is type(f_end)


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
    got = local_maxcut(g, subset, seed=seed)
    want = ref_local_maxcut(g, subset, seed=seed)
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
# 0.1 * 3 > 0.3 * 1 in floats: only FLOAT_GUARD forgives vertex 0 toward part 0
@example((Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)]),
          BiasVector((0.1, 0.3, 0.6)), np.array([1, 1, 1, 1, 0, 2])), False)
def test_check_biased_local_min_matches_reference(case, maximize):
    g, bv, labels = case
    assert check_biased_local_min(Counts(g, labels, bv.r), bv, maximize) == \
        ref_check_biased_local_min(g, labels, bv, maximize)


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=2, max_n=24), st.data())
def test_check_flip_local_optimum_matches_reference(g, data):
    ids = st.lists(st.integers(0, g.n - 1), max_size=g.n)
    plus = np.array(data.draw(ids), dtype=np.int64)
    minus = np.array(data.draw(ids), dtype=np.int64)
    assert check_flip_local_optimum(g, plus, minus) == \
        ref_check_flip_local_optimum(g, plus, minus)


def test_checkers_report_violations_in_order():
    g = complete_graph(4)
    bv = BiasVector(("1/2", "1/2"))
    labels = np.array([0, 0, 0, 1])
    want = [(0, 0, 1, 2, 1), (1, 0, 1, 2, 1), (2, 0, 1, 2, 1)]
    assert check_biased_local_min(Counts(g, labels, bv.r), bv) == want
    assert ref_check_biased_local_min(g, labels, bv) == want
    assert check_flip_local_optimum(g, np.array([2, 0, 1]), np.array([3])) == [2, 0, 1]


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
