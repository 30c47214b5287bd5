"""Seed-driven, vectorised graph generators for the benchmark.

The generators return edge arrays; ``edge_list_text`` turns them into the
edge-list text that the program under test receives through ``load_graph``.
Nothing here imports the program, so a change to the program's own
generators never moves a workload.
"""

from __future__ import annotations

import hashlib

import numpy as np

# rows of the G(n, p) adjacency matrix drawn per block (bounds memory)
ROW_BLOCK = 512


def gnp_edges(n: int, p: float, rng: np.random.Generator):
    """G(n, p): each pair i < j is an edge independently with probability p.

    Draws one uniform per matrix entry, a block of rows at a time, and keeps
    the hits above the diagonal.
    """
    us, vs = [], []
    for r0 in range(0, n, ROW_BLOCK):
        rows = min(n, r0 + ROW_BLOCK) - r0
        i, j = np.nonzero(rng.random((rows, n)) < p)
        i += r0
        above = j > i
        us.append(i[above])
        vs.append(j[above])
    return np.concatenate(us), np.concatenate(vs)


def chung_lu_edges(n: int, mean_degree: int, exponent: float,
                   rng: np.random.Generator):
    """Chung-Lu pairs: n*mean_degree/2 endpoint pairs, each endpoint drawn
    with probability proportional to w_i = (i+1)^(-1/(exponent-1)).

    Self-pairs are dropped; duplicate pairs are kept, so the loader has to
    collapse them.
    """
    w = (np.arange(n) + 1.0) ** (-1.0 / (exponent - 1.0))
    prob = w / w.sum()
    pairs = n * mean_degree // 2
    u = rng.choice(n, size=pairs, p=prob)
    v = rng.choice(n, size=pairs, p=prob)
    keep = u != v
    return u[keep], v[keep]


def edge_list_text(n: int, u: np.ndarray, v: np.ndarray) -> str:
    """Edge-list text with a "# n" header, so isolated vertices survive."""
    body = "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist()))
    return f"# n {n}\n{body}\n"


def simple_edges(n: int, u: np.ndarray, v: np.ndarray):
    """The distinct undirected edges of (u, v) as arrays with u < v."""
    key = np.unique(np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v))
    return key // n, key % n


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
