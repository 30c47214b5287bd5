"""Brute-force ground truth on small instances.

All three searches share one enumerator.  It walks the subsets of range(n)
as bitmasks, vertex i on bit n-1-i, from the largest mask down, and yields
them in chunks of 0/1 rows, one row per candidate set; with a ``size`` it
keeps only the sets of that size.  Within one size, descending masks are
exactly the lexicographic order of ``itertools.combinations``.  One product
``rows @ adj`` then gives the neighbours of every vertex inside every set of
a chunk, so no python loop runs per set.

``best_bisection`` returns the exact maximin value of a per-vertex degree
statistic over every bisection of a graph with at most 24 vertices.  Its
witness is the first optimal bisection in that order, because a later set
replaces the best only when it is strictly better.  Ratio objectives are
compared exactly as integers: every degree divides L = lcm(1..n-1), so
own/deg is the integer own * (L // deg) over L, which stays below 5.4e9 at
n=24 and so fits in int64.

``ko_bisection_exists`` answers, by exhaustion, whether the set-inclusion
bipartite graph admits a bisection in which every vertex has k own-part
neighbors and every vertex of one side has k cross neighbors.

``dense_fixed_point_check`` confirms that greedy dense extraction lands on
the unique maximal fixed point, by unioning all valid subsets of the host.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf, lcm

import numpy as np

from .dense import extract_dense
from .gen import gen_kuhn_osthus
from .graph import Counts, Graph

MAX_ORACLE_N = 24
MAX_HOST = 15
CHUNK = 4096  # masks per chunk: memory stays flat at every n

OBJECTIVES = ("min-own-degree", "min-cross-degree", "min-own-ratio",
              "min-cross-ratio")


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry below 2**24, by shift and add."""
    x = x - ((x >> 1) & 0x555555)
    x = (x & 0x333333) + ((x >> 2) & 0x333333)
    x = (x + (x >> 4)) & 0x0F0F0F
    return (x + (x >> 8) + (x >> 16)) & 0xFF


def _sets(graph: Graph, size: int | None = None):
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


def _own(rows: np.ndarray, in_set: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Each vertex's neighbours on its own side of each bisection."""
    return np.where(rows == 1, in_set, deg - in_set)


def best_bisection(graph: Graph, objective: str):
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
    for rows, in_set in _sets(graph, n // 2):
        own = _own(rows, in_set, deg)
        stat = own if objective.startswith("min-own") else deg - own
        keys = (stat * weight).min(axis=1, initial=empty, where=counted)
        i = int(np.argmax(keys))
        if best is None or keys[i] > best:
            best, witness = int(keys[i]), 1 - rows[i].astype(np.int64)
    if best == empty:
        return inf, witness
    return (Fraction(best, scale) if ratio else best), witness


def ko_bisection_exists(n: int, l: int, k: int):
    """Exhaustively test the joint own/cross floor on the inclusion graph.

    Builds the bipartite graph on [n] and its l-subsets and searches all
    bisections A|B for one where every vertex has at least k neighbors in its
    own part and every vertex of A has at least k neighbors in B (both
    orientations of each split are tried).  Returns a dict with ``exists``,
    a ``witness`` labeling (or None) and ``refuted`` = number of oriented
    splits checked when none works.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    total = n + comb(n, l)
    if total > MAX_ORACLE_N:
        raise ValueError(f"{total} vertices exceed the oracle bound {MAX_ORACLE_N}")
    graph = gen_kuhn_osthus(n, l)
    nv = graph.n
    if k == 0:
        labels = np.zeros(nv, dtype=np.int64)
        labels[nv // 2:] = 1
        return {"exists": True, "witness": labels.tolist(), "refuted": 0,
                "n": n, "l": l, "k": k}
    deg = graph.degree
    for rows, in_set in _sets(graph, nv // 2):
        own = _own(rows, in_set, deg)
        cross_ok = deg - own >= k
        # the set is part 0; A = part 0 or A = part 1 needs the cross floor
        a0 = (cross_ok | (rows == 0)).all(axis=1)
        a1 = (cross_ok | (rows == 1)).all(axis=1)
        found = (own >= k).all(axis=1) & (a0 | a1)
        if found.any():
            i = int(np.argmax(found))
            return {"exists": True, "witness": (1 - rows[i]).tolist(),
                    "a_part": 0 if a0[i] else 1, "refuted": 0,
                    "n": n, "l": l, "k": k}
    return {"exists": False, "witness": None, "refuted": 2 * comb(nv, nv // 2),
            "n": n, "l": l, "k": k}


def dense_fixed_point_check(graph: Graph, host, target, eta) -> bool:
    """Greedy extraction equals the unique maximal valid subset.

    host holds the host's vertex ids, and target and eta are as in
    ``dense.extract_dense``, which runs on the two-part labeling with the
    host as part 0.  A subset S of the host is valid when every classed
    vertex in S has at least its target degree inside S.  Valid subsets are
    closed under union, so the maximal one is the union of all of them;
    hosts above 15 vertices are refused.
    """
    host = np.unique(np.asarray(host, dtype=np.int64))
    if len(host) > MAX_HOST:
        raise ValueError(f"host has {len(host)} vertices (cap {MAX_HOST})")
    need = np.asarray(target, dtype=np.int64)[host]  # 0: unclassed, always met
    union = np.zeros(len(host), dtype=bool)
    for rows, in_set in _sets(graph.induced_subgraph(host)):
        valid = ((rows == 0) | (in_set >= need)).all(axis=1)
        union |= rows[valid].any(axis=0)
    labels = np.ones(graph.n, dtype=np.int64)
    labels[host] = 0
    result = extract_dense(Counts(graph, labels, 2), (0,), target, eta)
    return set(result.surviving.tolist()) == set(host[union].tolist())
