"""Graph generators: Erdos-Renyi, the set-inclusion bipartite family, and
complete bipartite graphs.  All randomized generators are deterministic
given their seed.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .graph import Graph

# the most vertices gen_kuhn_osthus builds: n + C(n, l) grows fast in l
_KO_MAX_VERTICES = 2_000_000


def gen_gnp(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): every unordered pair is an edge independently with prob p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1)
        edges.append(np.column_stack((np.full(len(hits), i), hits)))
    return Graph.from_edges(n, np.concatenate(edges))


def gen_kuhn_osthus(n: int, l: int) -> Graph:
    """Bipartite graph on X = {0..n-1} and one vertex per l-subset of X.

    Vertex n + k is the k-th l-subset in lexicographic order and is adjacent
    exactly to its elements.  X-side degrees are C(n-1, l-1), subset-side
    degrees are l, so the minimum degree is l (for l <= C(n-1, l-1)).
    This family separates own-part floors from cross floors: for large n it
    admits no bisection giving every vertex an own-part neighbor and every
    vertex of one side a cross neighbor.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    total = n + comb(n, l)
    if total > _KO_MAX_VERTICES:
        raise ValueError(f"graph would have {total} vertices (cap {_KO_MAX_VERTICES})")
    edges = [(i, n + k) for k, subset in enumerate(combinations(range(n), l))
             for i in subset]
    return Graph.from_edges(total, edges)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts {0..a-1} and {a..a+b-1}, all cross edges."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges)


# name -> (generator, its parameters with their types); a generator that
# takes a seed lists it, and callers may offer one to every generator
GENERATORS = {
    "gnp": (gen_gnp, {"n": int, "p": float, "seed": int}),
    "kuhn_osthus": (gen_kuhn_osthus, {"n": int, "l": int}),
    "complete_bipartite": (gen_complete_bipartite, {"a": int, "b": int}),
}


def generate(name: str, params: dict) -> Graph:
    """Run the generator a name stands for on the entries of params that it
    takes, each cast to its type; other entries are ignored, and a missing
    one takes the generator's default."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator type {name!r}")
    fn, types = GENERATORS[name]
    return fn(**{key: cast(params[key]) for key, cast in types.items()
                 if key in params})

