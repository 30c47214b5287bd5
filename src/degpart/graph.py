"""Immutable simple undirected graphs and the degree/cut primitives.

Vertices are dense integer ids 0..n-1.  Adjacency is stored CSR-style
(indptr/indices) with each neighbor list sorted, so membership tests are
binary searches and whole-partition degree profiles are single vectorized
passes.  Graphs are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphFormatError(ValueError):
    """Raised on malformed graph input (self-loop, bad token, bad header)."""


class LabelError(ValueError):
    """A label array that is no r-partition of the graph's vertices.

    ``vertex`` is the first vertex whose label is missing, non-integer or
    outside [0, r).
    """

    def __init__(self, message: str, vertex: int):
        super().__init__(message)
        self.vertex = vertex


class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges.

    Attributes:
        n: vertex count.
        indptr, indices: CSR adjacency; indices[indptr[v]:indptr[v+1]] are the
            sorted neighbors of v.
        degree: per-vertex degree array, degree[v] == len(neighbors(v)).
        duplicates_collapsed: how many duplicate input edges were dropped at
            construction (a warning counter, not an error).
    """

    __slots__ = ("n", "indptr", "indices", "degree", "duplicates_collapsed")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 duplicates_collapsed: int = 0):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degree = np.diff(indptr).astype(np.int64)
        self.duplicates_collapsed = int(duplicates_collapsed)

    @classmethod
    def from_edges(cls, n: int, edges, duplicates_collapsed: int = 0) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Duplicate pairs are collapsed (counted on top of any collapse count
        already passed in); self-loops raise GraphFormatError.
        """
        n = int(n)
        pairs = set()
        dups = int(duplicates_collapsed)
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                dups += 1
            else:
                pairs.add(key)
        if pairs:
            arr = np.array(sorted(pairs), dtype=np.int64)
            src = np.concatenate([arr[:, 0], arr[:, 1]])
            dst = np.concatenate([arr[:, 1], arr[:, 0]])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.add.at(indptr, src + 1, 1)
            indptr = np.cumsum(indptr)
            indices = dst
        else:
            indptr = np.zeros(n + 1, dtype=np.int64)
            indices = np.empty(0, dtype=np.int64)
        return cls(n, indptr, indices, dups)

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < len(nb) and nb[i] == v

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (u, v) with u < v, one entry per edge, sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degree)
        mask = src < self.indices
        return src[mask], self.indices[mask]

    def validate(self) -> None:
        """Re-check the structural invariants (symmetry, sortedness, sums)."""
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert int(self.degree.sum()) == 2 * self.m
        for v in range(self.n):
            nb = self.neighbors(v)
            assert np.all(nb[:-1] < nb[1:]), f"adjacency of {v} not strictly sorted"
            assert v not in nb, f"self-loop at {v}"
        u, w = self.edge_array()
        for a, b in zip(u.tolist(), w.tolist()):
            assert self.has_edge(b, a), f"asymmetric edge ({a},{b})"

    # -- derived graphs ---------------------------------------------------

    def cross_subgraph(self, labels: np.ndarray, part_a: int, part_b: int) -> "Graph":
        """The bipartite subgraph keeping only edges between two parts.

        Vertex ids are preserved; vertices outside the two parts become
        isolated.  Used for extraction over the cross adjacency.
        """
        u, v = self.edge_array()
        lu, lv = labels[u], labels[v]
        keep = ((lu == part_a) & (lv == part_b)) | ((lu == part_b) & (lv == part_a))
        return Graph.from_edges(self.n, zip(u[keep].tolist(), v[keep].tolist()))

    # -- serialization ----------------------------------------------------

    def to_edge_list_text(self) -> str:
        u, v = self.edge_array()
        lines = [f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())]
        # trailing isolated vertices would be lost on re-load; record n
        return f"# n {self.n}\n" + "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class LabeledPartition:
    """A map vertex -> part index for r parts, as a label array."""

    r: int
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.r < 2:
            raise ValueError("a partition needs at least 2 parts")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.r):
            raise ValueError("labels out of range [0, r)")

    @property
    def n(self) -> int:
        return len(self.labels)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.r)

    def part(self, j: int) -> np.ndarray:
        return np.nonzero(self.labels == j)[0]

    def is_bisection(self) -> bool:
        if self.r != 2:
            return False
        s = self.sizes()
        return abs(int(s[0]) - int(s[1])) <= 1


# -- ingestion -------------------------------------------------------------


def load_graph(text, n: int | None = None) -> Graph:
    """Parse an edge-list or DIMACS-style stream into a validated Graph.

    Edge-list format: one "u v" pair of integer ids per line, whitespace
    separated; lines starting with '#' are comments.  DIMACS-style: a
    "p edge <n> <m>" header followed by "e u v" lines with 1-indexed ids
    (converted internally); 'c' lines are comments.

    Duplicate edges are collapsed by ``Graph.from_edges`` and counted in the
    returned graph's ``duplicates_collapsed``.  Self-loops and non-integer
    tokens raise GraphFormatError with the offending line number.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = text.splitlines()
    is_dimacs = any(ln.strip().startswith("p ") or ln.strip().startswith("p\t")
                    for ln in lines)
    edges: list[tuple[int, int]] = []
    declared_n = n

    def parse_int(tok: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer token {tok!r}") from None

    if is_dimacs:
        for lineno, raw in enumerate(lines, start=1):
            ln = raw.strip()
            if not ln or ln.startswith("c"):
                continue
            parts = ln.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(f"line {lineno}: malformed problem line")
                declared_n = parse_int(parts[2], lineno)
            elif parts[0] == "e":
                if len(parts) != 3:
                    raise GraphFormatError(f"line {lineno}: malformed edge line")
                u = parse_int(parts[1], lineno) - 1
                v = parse_int(parts[2], lineno) - 1
                if u == v:
                    raise GraphFormatError(f"line {lineno}: self-loop at vertex {u + 1}")
                edges.append((u, v))
            else:
                raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
        if declared_n is None:
            raise GraphFormatError("DIMACS stream without a problem line")
    else:
        max_id = -1
        for lineno, raw in enumerate(lines, start=1):
            ln = raw.strip()
            if not ln:
                continue
            if ln.startswith("#"):
                # "# n <count>" records isolated trailing vertices
                parts = ln[1:].split()
                if len(parts) == 2 and parts[0] == "n":
                    declared_n = parse_int(parts[1], lineno)
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected two vertex ids")
            u = parse_int(parts[0], lineno)
            v = parse_int(parts[1], lineno)
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id")
            max_id = max(max_id, u, v)
            edges.append((u, v))
        if declared_n is None:
            declared_n = max_id + 1
    return Graph.from_edges(declared_n, edges)


# -- degree/cut primitives --------------------------------------------------


def degree_in_set(graph: Graph, v: int, subset) -> int:
    """|N(v) ∩ S| for a vertex v and a vertex set S.

    S may be a boolean mask over all vertices, a numpy index array, or any
    iterable of vertex ids.
    """
    if not (0 <= v < graph.n):
        raise ValueError(f"vertex {v} out of range for n={graph.n}")
    nb = graph.neighbors(v)
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        return int(subset[nb].sum())
    if isinstance(subset, np.ndarray):
        return int(np.isin(nb, subset).sum())
    s = set(int(x) for x in subset)
    return sum(1 for w in nb.tolist() if w in s)


def part_profile(graph: Graph, labels: np.ndarray, r: int) -> np.ndarray:
    """(n, r) matrix: entry [v, j] = number of neighbors of v in part j.

    Raises LabelError unless labels holds one integer in [0, r) per vertex.
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise LabelError(f"label array of shape {labels.shape} for n={graph.n}",
                         min(labels.size, graph.n))
    if graph.n == 0:
        return np.zeros((0, r), dtype=np.int64)
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelError(f"labels have non-integer dtype {labels.dtype}", 0)
    bad = (labels < 0) | (labels >= r)
    if bad.any():
        v = int(np.argmax(bad))
        raise LabelError(f"vertex {v} has label {labels[v]} outside [0, {r})", v)
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degree)
    cols = labels[graph.indices]
    flat = np.bincount(rows * r + cols, minlength=graph.n * r)
    return flat.reshape(graph.n, r)


def cut_and_internal_profile(graph: Graph, partition: LabeledPartition):
    """Per-vertex own-part degree and cross degrees toward each other part.

    Returns (d_own, counts) where counts is the (n, r) neighbor-count matrix
    and d_own[v] = counts[v, labels[v]].  For every v,
    d_own[v] + sum of cross entries == degree[v].
    """
    if partition.n != graph.n:
        raise ValueError(f"partition has {partition.n} labels for n={graph.n}")
    counts = part_profile(graph, partition.labels, partition.r)
    d_own = counts[np.arange(graph.n), partition.labels]
    return d_own, counts
