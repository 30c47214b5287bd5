"""Brute-force ground truth on small instances.

``best_bisection`` and ``ko_bisection_exists`` share one enumerator.  It
walks the subsets of range(n) as bitmasks, vertex i on bit n-1-i, from the
largest mask down: within one size, exactly the lexicographic order of
``itertools.combinations``.  The masks of size k
come from a table that depends only on (n, k), built once by the recursion
M(n, k) = [M(n-1, k-1) | 2**(n-1), M(n-1, k)], which is descending as
built; only the requested table is kept, read-only.

A set and its complement are the same bisection, and no objective here
changes when the sides swap.  So for even n the first optimum in that order
contains vertex 0 (the complement of an optimum without it is optimal too,
and comes earlier), and only the first block of M(n, n/2) is enumerated:
the sets holding vertex 0.

Each chunk is vertex-major: an (n, sets) float32 matrix s, +1 on the set's
vertices and -1 elsewhere.  t = adj @ s is each vertex's neighbours inside
the set minus those outside, so twice its own degree is deg + s*t and twice
its cross degree deg - s*t, exact in float32.  About 1k sets per chunk keep
s and t cache-sized (64 KB each at n=16), with no python loop per set.

``best_bisection`` returns the exact maximin value of a per-vertex degree
statistic over every bisection of a graph with at most 24 vertices.  Its
witness is the first optimum in that order, as only a strictly better set
replaces the best.  Ratio objectives compare exactly as integers: every
degree divides L = lcm(1..n-1), so own/deg is own * (L // deg) over L, and
twice that stays below 2.6e11 at n=24, exact in float64.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, inf, lcm

import numpy as np

from .gen import gen_kuhn_osthus
from .graph import Graph

MAX_ORACLE_N = 24
CHUNK = 1024  # sets per chunk: s and adj @ s stay cache-sized at every n

OBJECTIVES = ("min-own-degree", "min-cross-degree", "min-own-ratio",
              "min-cross-ratio")


@lru_cache(maxsize=None)
def _set_table(n: int, size: int) -> np.ndarray:
    """M(n, size), read-only; row i keeps only the M(i, k) that row n needs."""
    none, row = np.zeros(0, dtype=np.int32), {0: np.zeros(1, dtype=np.int32)}
    for i in range(n):
        row = {k: np.concatenate((row.get(k - 1, none) | 1 << i, row.get(k, none)))
               for k in range(max(0, size - n + i + 1), min(i + 1, size) + 1)}
    row[size].flags.writeable = False
    return row[size]


def _sets(graph: Graph, size: int):
    """Yield (s, st) per chunk of the sets of that size (of an even n's
    bisections, only those holding vertex 0): the ±1 matrix s and
    st = s * (adj @ s)."""
    n = graph.n
    adj = np.zeros((n, n), dtype=np.float32)
    adj[graph.rows, graph.indices] = 1
    masks = _set_table(n, size)[:comb(n - 1, size - 1) if 2 * size == n else None]
    shifts = np.arange(n - 1, -1, -1, dtype=np.int32)[:, None]
    for start in range(0, len(masks), CHUNK):
        s = ((masks[start:start + CHUNK] >> shifts) & 1).astype(np.float32)
        s += s - 1
        yield s, s * (adj @ s)


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
    sign = 1 if objective.startswith("min-own") else -1
    ratio = objective.endswith("ratio")
    scale = lcm(*range(1, n)) if ratio else 1
    empty = 2 * scale * n  # above every key: the minimum over no counted vertex
    # a key is twice the stat, deg + sign * st, times the weight; under a ratio
    # an isolated vertex reads deg 2n and weight L, so it keys empty
    deg = graph.degree[:, None].astype(np.float32)
    weight = scale // np.maximum(deg, 1).astype(np.float64) if ratio else 1
    if ratio:
        deg[deg == 0] = 2 * n
    best = witness = None
    for s, st in _sets(graph, n // 2):
        keys = ((deg + sign * st) * weight).min(axis=0)
        i = int(np.argmax(keys))
        if best is None or keys[i] > best:
            best, witness = int(keys[i]), (s[:, i] < 0).astype(np.int64)
    if best == empty:
        return inf, witness
    return (Fraction(best, 2 * scale) if ratio else best // 2), witness


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
    deg = graph.degree.astype(np.float32)[:, None]
    for s, st in _sets(graph, nv // 2):
        # twice the own degree is deg + st, twice the cross degree deg - st;
        # the set is part 0, and A = part 0 or A = part 1 needs the cross floor
        cross_ok = deg - st >= 2 * k
        a0 = (cross_ok | (s < 0)).all(axis=0)
        a1 = (cross_ok | (s > 0)).all(axis=0)
        found = (deg + st >= 2 * k).all(axis=0) & (a0 | a1)
        if found.any():
            i = int(np.argmax(found))
            return {"exists": True,
                    "witness": (s[:, i] < 0).astype(np.int64).tolist(),
                    "a_part": 0 if a0[i] else 1, "refuted": 0,
                    "n": n, "l": l, "k": k}
    return {"exists": False, "witness": None, "refuted": 2 * comb(nv, nv // 2),
            "n": n, "l": l, "k": k}

