from fractions import Fraction
from itertools import combinations
from math import comb, inf, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degpart.oracle as oracle
from degpart.dense import extract_dense
from degpart.gen import gen_gnp, gen_kuhn_osthus
from degpart.graph import Counts, Graph, part_profile
from degpart.oracle import MAX_ORACLE_N, OBJECTIVES, best_bisection, ko_bisection_exists

from conftest import complete_graph, cycle_graph, graphs


def brute_force_value(graph, objective):
    """Independent reference: direct enumeration without incremental updates."""
    n = graph.n
    best = None
    for subset in combinations(range(n), n // 2):
        labels = np.ones(n, dtype=np.int64)
        labels[list(subset)] = 0
        counts = part_profile(graph, labels, 2)
        own = counts[np.arange(n), labels]
        cross = graph.degree - own
        if objective == "min-own-degree":
            val = int(own.min())
        elif objective == "min-cross-degree":
            val = int(cross.min())
        else:
            pos = graph.degree > 0
            col = own if objective == "min-own-ratio" else cross
            if not pos.any():
                val = float("inf")
            else:
                val = min(Fraction(int(a), int(b))
                          for a, b in zip(col[pos], graph.degree[pos]))
        if best is None or val > best:
            best = val
    return best


# -- reference implementations: the per-subset python loops the chunked
# -- enumerator replaced, kept to pin its values, witnesses and verdicts


def _ref_subset_walk(n, k):
    prev = None
    for comb_t in combinations(range(n), k):
        if prev is None:
            yield comb_t, None
        else:
            gone = [x for x in prev if x not in comb_t]
            came = [x for x in comb_t if x not in prev]
            yield comb_t, list(zip(gone, came))
        prev = comb_t


def _ref_objective_value(objective, own, deg):
    if objective == "min-own-degree":
        return int(own.min()) if len(own) else 0
    if objective == "min-cross-degree":
        return int((deg - own).min()) if len(own) else 0
    pos = deg > 0
    if not pos.any():
        return inf
    num = own[pos] if objective == "min-own-ratio" else (deg - own)[pos]
    return min(Fraction(int(a), int(b))
               for a, b in zip(num.tolist(), deg[pos].tolist()))


def ref_best_bisection(graph, objective):
    """Lexicographic subset walk with an incremental swap update."""
    n = graph.n
    k = n // 2
    deg = graph.degree
    side = np.zeros(n, dtype=np.int64)
    own = np.zeros(n, dtype=np.int64)

    def apply_swap(v, enter):
        nb = graph.neighbors(v)
        side[v] = 1 if enter else 0
        for w in nb.tolist():
            if side[w] == side[v]:
                own[w] += 1
            else:
                own[w] -= 1
        same = int(side[nb].sum())
        own[v] = same if enter else len(nb) - same

    best_val = None
    best_labels = None
    first = True
    for subset, swaps in _ref_subset_walk(n, k):
        if first:
            side[:] = 0
            side[list(subset)] = 1
            for v in range(n):
                nb = graph.neighbors(v)
                own[v] = int((side[nb] == side[v]).sum())
            first = False
        else:
            for out_v, in_v in swaps:
                apply_swap(out_v, False)
                apply_swap(in_v, True)
        val = _ref_objective_value(objective, own, deg)
        if best_val is None or val > best_val:
            best_val = val
            best_labels = (1 - side).copy()
    return best_val, best_labels


def ref_ko_bisection_exists(n, l, k):
    """Per-vertex neighbour loop over every split of the inclusion graph."""
    graph = gen_kuhn_osthus(n, l)
    nv = graph.n
    if k == 0:
        labels = np.zeros(nv, dtype=np.int64)
        labels[nv // 2:] = 1
        return {"exists": True, "witness": labels.tolist(), "refuted": 0,
                "n": n, "l": l, "k": k}
    checked = 0
    for subset in combinations(range(nv), nv // 2):
        labels = np.ones(nv, dtype=np.int64)
        labels[list(subset)] = 0
        own = np.empty(nv, dtype=np.int64)
        for v in range(nv):
            nb = graph.neighbors(v)
            own[v] = int((labels[nb] == labels[v]).sum())
        if (own < k).any():
            checked += 2
            continue
        cross = graph.degree - own
        for a_part in (0, 1):
            checked += 1
            if not (cross[labels == a_part] < k).any():
                return {"exists": True, "witness": labels.tolist(),
                        "a_part": a_part, "refuted": 0, "n": n, "l": l, "k": k}
    return {"exists": False, "witness": None, "refuted": checked,
            "n": n, "l": l, "k": k}


# the largest host dense_fixed_point_check enumerates
MAX_HOST = 15


def dense_fixed_point_check(graph, host, target, eta):
    """Greedy extraction equals the unique maximal valid subset.

    host holds the host's vertex ids, and target and eta are as in
    ``dense.extract_dense``, which runs on the two-part labeling with the
    host as part 0.  A subset S of the host is valid when every classed
    vertex in S has at least its target degree inside S.  Valid subsets are
    closed under union, so the maximal one is the union of all of them,
    read off ``chunked_sets``; hosts above MAX_HOST vertices are refused.
    """
    host = np.unique(np.asarray(host, dtype=np.int64))
    if len(host) > MAX_HOST:
        raise ValueError(f"host has {len(host)} vertices (cap {MAX_HOST})")
    sub = graph.induced_subgraph(host)
    need = np.asarray(target, dtype=np.int64)[host]  # 0: unclassed
    union = np.zeros(len(host), dtype=bool)
    for rows, in_set in chunked_sets(sub):
        inside = rows > 0
        union |= inside[(~inside | (in_set >= need)).all(axis=1)].any(axis=0)
    labels = np.ones(graph.n, dtype=np.int64)
    labels[host] = 0
    result = extract_dense(Counts(graph, labels, 2), (0,), target, eta)
    return set(result.surviving.tolist()) == set(host[union].tolist())


def ref_dense_fixed_point_check(graph, host, target, eta):
    """Python-set degree loop over every subset of the host."""
    target_of = {v: int(target[v]) for v in range(graph.n) if target[v] >= 1}
    best = set()
    host_list = sorted(set(np.asarray(host).tolist()))
    for size in range(len(host_list) + 1):
        for sub in combinations(host_list, size):
            s = set(sub)
            ok = True
            for v in sub:
                if v in target_of:
                    d = sum(1 for w in graph.neighbors(v).tolist() if w in s)
                    if d < target_of[v]:
                        ok = False
                        break
            if ok:
                best |= s
    labels = np.ones(graph.n, dtype=np.int64)
    labels[host_list] = 0
    result = extract_dense(Counts(graph, labels, 2), (0,), target, eta)
    return set(result.surviving.tolist()) == best


# -- the chunked reference ---------------------------------------------------
#
# The enumerator as it stood before the vertex-major rewrite: every mask of
# range(2**n) filtered by popcount on each call, one 0/1 row per set, and
# every set of a bisection visited (no complement halving).  Kept verbatim,
# renamed; ``best_bisection`` must give the same value, value type and
# witness bytes.

CHUNK = 4096  # masks per chunk: memory stays flat at every n


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry below 2**24, by shift and add."""
    x = x - ((x >> 1) & 0x555555)
    x = (x & 0x333333) + ((x >> 2) & 0x333333)
    x = (x + (x >> 4)) & 0x0F0F0F
    return (x + (x >> 8) + (x >> 16)) & 0xFF


def chunked_sets(graph, size=None):
    """Yield (rows, in_set) per chunk of candidate sets of the graph's vertices.

    rows[s, v] is 1 when v is in set s; in_set[s, v] counts v's neighbours
    in set s.  Both are int16.  Sets come in descending mask order (see the
    module docstring); with ``size``, only the sets of that size.  The
    product runs in float32, which numpy hands to BLAS and which is exact
    for counts below 2**24.
    """
    n = graph.n
    adj = np.zeros((n, n), dtype=np.float32)
    adj[graph.rows, graph.indices] = 1
    shifts = np.arange(n - 1, -1, -1)
    for top in range(1 << n, 0, -CHUNK):
        masks = np.arange(top - 1, max(top - CHUNK, 0) - 1, -1)
        if size is not None:
            masks = masks[_popcount(masks) == size]
        if len(masks):
            bits = (masks[:, None] >> shifts) & 1
            yield (bits.astype(np.int16),
                   (bits.astype(np.float32) @ adj).astype(np.int16))


def _own(rows, in_set, deg):
    """Each vertex's neighbours on its own side of each bisection."""
    return np.where(rows == 1, in_set, deg - in_set)


def chunked_best_bisection(graph, objective):
    """Exact maximin over all bisections; returns (value, witness labels).

    value is an int for degree objectives and a Fraction for ratio
    objectives (inf when no vertex has positive degree).  Graphs above 24
    vertices are refused.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    n = graph.n
    if n > MAX_ORACLE_N:
        raise ValueError(f"oracle enumerates bisections only up to n={MAX_ORACLE_N}")
    if n < 2:
        raise ValueError("a bisection needs at least 2 vertices")
    deg = graph.degree
    ratio = objective.endswith("ratio")
    if ratio:
        scale = lcm(*range(1, n))
        weight, counted = scale // np.maximum(deg, 1), deg > 0
    else:
        scale, weight, counted = 1, 1, np.ones(n, dtype=bool)
    empty = scale * n  # above every key: the minimum over no counted vertex
    best = witness = None
    for rows, in_set in chunked_sets(graph, n // 2):
        own = _own(rows, in_set, deg)
        stat = own if objective.startswith("min-own") else deg - own
        keys = (stat * weight).min(axis=1, initial=empty, where=counted)
        i = int(np.argmax(keys))
        if best is None or keys[i] > best:
            best, witness = int(keys[i]), 1 - rows[i].astype(np.int64)
    if best == empty:
        return inf, witness
    return (Fraction(best, scale) if ratio else best), witness


# -- the vertex-major enumerator against the references -----------------------


def assert_same_bisection(graph, objective, reference):
    """Same value, value type and witness bytes as a reference; the witness."""
    value, witness = best_bisection(graph, objective)
    ref_value, ref_witness = reference(graph, objective)
    assert value == ref_value
    assert type(value) is type(ref_value)
    assert witness.dtype == ref_witness.dtype
    assert witness.tobytes() == ref_witness.tobytes()
    return witness


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_best_bisection_matches_chunked_reference(n, p):
    g = gen_gnp(n, p, seed=100 * n + int(10 * p))
    for objective in OBJECTIVES:
        witness = assert_same_bisection(g, objective, chunked_best_bisection)
        if p in (0.0, 1.0):
            # every set ties, so the witness is the very first mask: the
            # first n // 2 vertices in part 0
            assert witness.tolist() == [0] * (n // 2) + [1] * (n - n // 2)


@pytest.mark.parametrize("n", range(13))
def test_set_table_is_the_descending_popcount_filter(n):
    masks = np.arange((1 << n) - 1, -1, -1)
    for k in range(n + 1):
        table = oracle._set_table(n, k)
        assert table.tolist() == masks[_popcount(masks) == k].tolist()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[:1] = 0


@pytest.mark.parametrize("n,l,k", [(8, 7, 1), (8, 7, 3), (9, 8, 2)])
def test_ko_even_inclusion_graph_finds_the_reference_witness(n, l, k):
    # 16 and 18 vertices, beyond KO_CASES: only the sets holding vertex 0 are
    # enumerated, and the witness and its side A must still be the first
    assert (n + comb(n, l)) % 2 == 0
    answer = ko_bisection_exists(n, l, k)
    ref = ref_ko_bisection_exists(n, l, k)
    assert answer["exists"] and ref["exists"]
    assert answer["witness"] == ref["witness"]
    assert answer["a_part"] == ref["a_part"]
    assert answer == ref


# -- the enumerator against the per-subset references ---------------------------


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=14), st.sampled_from(OBJECTIVES))
@example(Graph.from_edges(2, []), "min-own-ratio")
@example(Graph.from_edges(2, [(0, 1)]), "min-cross-ratio")
@example(Graph.from_edges(7, []), "min-cross-ratio")
@example(Graph.from_edges(9, [(0, 1), (2, 3)]), "min-own-ratio")
@example(cycle_graph(13), "min-own-degree")
def test_best_bisection_matches_reference(graph, objective):
    assert_same_bisection(graph, objective, ref_best_bisection)


@pytest.mark.parametrize("n,p", [(11, 0.0), (12, 0.2), (13, 0.5), (14, 0.5)])
def test_best_bisection_matches_reference_all_objectives(n, p):
    g = gen_gnp(n, p, seed=n)
    for objective in OBJECTIVES:
        assert_same_bisection(g, objective, ref_best_bisection)


# every inclusion graph with at most 15 vertices
KO_CASES = [(n, l) for n in range(1, 15) for l in range(1, n + 1)
            if n + comb(n, l) <= 15]


@pytest.mark.parametrize("n,l", KO_CASES)
def test_ko_matches_reference(n, l):
    for k in range(4):
        assert ko_bisection_exists(n, l, k) == ref_ko_bisection_exists(n, l, k)


@st.composite
def host_families(draw):
    n = draw(st.integers(1, 18))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    graph = Graph.from_edges(n, edges)
    host = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True,
                                     min_size=1, max_size=min(n, 15)))
    if host is None and n > 15:
        host = list(range(15))
    pool = list(range(n)) if host is None else host
    classed = draw(st.lists(st.sampled_from(pool), unique=True))
    cut = draw(st.integers(0, len(classed)))
    target = np.zeros(n, dtype=np.int64)
    for vs in (classed[:cut], classed[cut:]):
        if vs:
            target[vs] = draw(st.integers(1, 3))
    eta = np.full(n, Fraction(1, 2), dtype=object)
    return graph, np.array(pool, dtype=np.int64), target, eta


@settings(max_examples=200, deadline=None)
@given(host_families())
def test_dense_fixed_point_matches_reference(case):
    assert dense_fixed_point_check(*case) == ref_dense_fixed_point_check(*case)


@settings(max_examples=60, deadline=None)
@given(host_families(), st.integers(0, 14))
def test_dense_fixed_point_refuses_a_wrong_extraction(case, pick):
    # a surviving set with one host vertex toggled is no longer the maximal
    # valid subset, so both the check and its reference must say False
    graph, host, target, eta = case
    host = np.unique(host)
    v = int(host[pick % len(host)])
    labels = np.ones(graph.n, dtype=np.int64)
    labels[host] = 0
    real = extract_dense(Counts(graph, labels, 2), (0,), target, eta)
    wrong = np.setxor1d(real.surviving, [v])

    class Fake:
        surviving = wrong

    with mock.patch.dict(globals(), extract_dense=lambda *args: Fake):
        assert dense_fixed_point_check(graph, host, target, eta) is False


def test_n24_best_bisection_witness_achieves_value():
    g = gen_gnp(24, 0.4, seed=24)
    value, witness = best_bisection(g, "min-own-ratio")
    assert np.bincount(witness, minlength=2).tolist() == [12, 12]
    own = part_profile(g, witness, 2)[np.arange(24), witness]
    pos = g.degree > 0
    assert value == min(Fraction(int(a), int(b))
                        for a, b in zip(own[pos], g.degree[pos]))


# -- fixed examples ------------------------------------------------------------


def test_k4_min_own_degree():
    val, witness = best_bisection(complete_graph(4), "min-own-degree")
    assert val == 1
    assert np.bincount(witness, minlength=2).tolist() == [2, 2]


def test_c5_objectives():
    c5 = cycle_graph(5)
    assert best_bisection(c5, "min-own-degree")[0] == 1
    assert best_bisection(c5, "min-cross-degree")[0] == 1


def test_k2_min_own_is_zero():
    assert best_bisection(complete_graph(2), "min-own-degree")[0] == 0


def test_size_bound_and_validation():
    with pytest.raises(ValueError):
        best_bisection(gen_gnp(25, 0.1, 0), "min-own-degree")
    with pytest.raises(ValueError):
        best_bisection(complete_graph(4), "nonsense")


def test_matches_independent_enumeration():
    for seed in range(6):
        g = gen_gnp(8, 0.4, seed=seed)
        for obj in ("min-own-degree", "min-cross-degree", "min-own-ratio",
                    "min-cross-ratio"):
            assert best_bisection(g, obj)[0] == brute_force_value(g, obj)


def test_witness_achieves_value_and_swap_symmetry():
    g = gen_gnp(9, 0.5, seed=3)
    val, witness = best_bisection(g, "min-own-degree")
    counts = part_profile(g, witness, 2)
    own = counts[np.arange(g.n), witness]
    assert int(own.min()) == val
    swapped = 1 - witness
    counts2 = part_profile(g, swapped, 2)
    own2 = counts2[np.arange(g.n), swapped]
    assert int(own2.min()) == val


def test_ko_k_zero_trivially_exists():
    assert ko_bisection_exists(4, 2, 0)["exists"] is True


def test_ko_negative_k_is_refused():
    with pytest.raises(ValueError, match="k must be non-negative"):
        ko_bisection_exists(4, 2, -5)


def test_ko_4_2_1_matches_direct_search():
    answer = ko_bisection_exists(4, 2, 1)
    g = gen_kuhn_osthus(4, 2)
    n = g.n
    found = False
    for subset in combinations(range(n), n // 2):
        labels = np.ones(n, dtype=np.int64)
        labels[list(subset)] = 0
        counts = part_profile(g, labels, 2)
        own = counts[np.arange(n), labels]
        cross = g.degree - own
        if (own >= 1).all() and (
                not (cross[labels == 0] < 1).any()
                or not (cross[labels == 1] < 1).any()):
            found = True
            break
    assert answer["exists"] == found


def test_ko_size_bound():
    with pytest.raises(ValueError):
        ko_bisection_exists(7, 2, 1)  # 7 + 21 = 28 vertices > cap 24


def test_dense_fixed_point_examples():
    k5 = complete_graph(5)
    assert dense_fixed_point_check(k5, np.arange(5), np.ones(5, dtype=np.int64),
                                   np.ones(5))
    g = Graph.from_edges(3, [(0, 1)])
    assert dense_fixed_point_check(g, np.arange(3), np.array([0, 0, 1]), np.ones(3))


def test_dense_fixed_point_random_instances():
    for seed in range(5):
        g = gen_gnp(10, 0.35, seed=seed)
        rng = np.random.default_rng(seed)
        members = rng.choice(10, size=4, replace=False)
        target = np.zeros(10, dtype=np.int64)
        target[members] = int(rng.integers(1, 3))
        assert dense_fixed_point_check(g, np.arange(10), target,
                                       np.full(10, Fraction(1, 2), dtype=object))


def test_dense_fixed_point_size_cap():
    g = gen_gnp(16, 0.2, seed=0)
    with pytest.raises(ValueError):
        dense_fixed_point_check(g, np.arange(16), np.eye(1, 16, dtype=np.int64)[0],
                                np.ones(16))


@pytest.mark.parametrize("l", [-1, 0, 5])
def test_ko_refuses_l_outside_its_range_by_name(l):
    with pytest.raises(ValueError, match=rf"^need 1 <= l <= n, got l={l}, n=4$"):
        ko_bisection_exists(4, l, 1)
