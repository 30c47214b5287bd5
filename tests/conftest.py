"""Shared strategies and helpers for the test suite."""

import signal
from contextlib import contextmanager
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from degpart.gen import gen_gnp
from degpart.graph import Graph


@st.composite
def graphs(draw, min_n=2, max_n=12, min_edges=0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          min_size=min(min_edges, len(pairs)),
                          max_size=len(pairs)))
    return Graph.from_edges(n, edges)


# part mixes of X|Y|Z (or A|B|C) labels: balanced sides, a thin second or
# first side (the external refinement then deletes, absorbs and reaches the
# cut), a thin first side over a thin third part (the internal refinement
# then evacuates), and a heavy third part
LABEL_MIXES = ([0.4, 0.4, 0.2], [0.7, 0.1, 0.2], [0.1, 0.7, 0.2],
               [0.15, 0.8, 0.05], [0.2, 0.2, 0.6])


def mixed_labels(n, mix, seed):
    return np.random.default_rng(seed).choice(3, size=n, p=mix).astype(np.int64)


@st.composite
def tripartitions(draw):
    """A G(n, p) graph with n <= 40 and 3-part labels drawn from a mix."""
    g = gen_gnp(draw(st.integers(1, 40)), draw(st.sampled_from([0.2, 0.5, 0.8])),
                draw(st.integers(0, 99)))
    return g, mixed_labels(g.n, draw(st.sampled_from(LABEL_MIXES)),
                           draw(st.integers(0, 99)))


@contextmanager
def watchdog(seconds, what):
    """Raise TimeoutError naming what once the block has run for seconds of
    wall time, so a loop that never ends fails its test.  SIGALRM: main
    thread only."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def complete_graph(n):
    return Graph.from_edges(n, combinations(range(n), 2))


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, p, seed):
    return gen_gnp(n, p, seed)


def naive_profile(graph, labels, r):
    """Independent per-vertex part-degree counts, pure python."""
    counts = [[0] * r for _ in range(graph.n)]
    for v in range(graph.n):
        for w in graph.neighbors(v).tolist():
            counts[v][labels[w]] += 1
    return counts
