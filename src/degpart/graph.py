"""Immutable simple undirected graphs and the degree/cut primitives.

Vertices are dense integer ids 0..n-1.  Adjacency is stored CSR-style
(indptr/indices) with each neighbor list sorted, so membership tests are
binary searches and whole-partition degree profiles are single vectorized
passes.  Graphs are immutable after construction (their arrays are
read-only) and safe to share across concurrent readers.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import re
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
        rows: the CSR row of each entry of indices, rows[k] == v for
            indptr[v] <= k < indptr[v+1].
        duplicates_collapsed: how many duplicate input edges were dropped at
            construction (a warning counter, not an error).

    The arrays are read-only, so a graph's ``fingerprint`` is computed once.
    """

    __slots__ = ("n", "indptr", "indices", "degree", "rows", "duplicates_collapsed",
                 "_fingerprint")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 duplicates_collapsed: int = 0):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degree = np.diff(indptr).astype(np.int64)
        self.rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degree)
        for a in (self.indptr, self.indices, self.degree, self.rows):
            a.setflags(write=False)
        self.duplicates_collapsed = int(duplicates_collapsed)
        self._fingerprint = None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an (m, 2) integer array or an iterable of (u, v)
        pairs.

        Duplicate pairs are collapsed and counted in ``duplicates_collapsed``;
        a self-loop or an id outside [0, n) raises GraphFormatError naming the
        first bad pair in input order, and so does a negative n.
        """
        n = int(n)
        if n < 0:
            raise GraphFormatError(f"negative vertex count n={n}")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphFormatError(f"edges of shape {pairs.shape} are not (u, v) pairs")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            a, b = (int(x) for x in pairs[np.argmax(bad)])
            if a == b:
                raise GraphFormatError(f"self-loop at vertex {a}")
            raise GraphFormatError(f"edge ({a},{b}) out of range for n={n}")
        keys = np.sort(lo * n + hi)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        lo, hi = np.divmod(keys, n)
        # both orientations, sorted by (source, target): the CSR order
        src, dst = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
        return cls(n, np.searchsorted(src, np.arange(n + 1)), dst,
                   len(pairs) - len(keys))

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (u, v) with u < v, one entry per edge, sorted."""
        mask = self.rows < self.indices
        return self.rows[mask], self.indices[mask]

    @property
    def fingerprint(self) -> str:
        """Order-independent sha256 of (n, sorted edge set), computed once."""
        if self._fingerprint is None:
            u, v = self.edge_array()
            h = hashlib.sha256()
            h.update(f"n={self.n};".encode())
            h.update(np.stack([u, v]).astype("<i8").tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def validate(self) -> None:
        """Re-check the structural invariants (symmetry, sortedness, sums)."""
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert int(self.degree.sum()) == 2 * self.m
        assert np.all((self.indices >= 0) & (self.indices < self.n)), "id out of range"
        assert not np.any(self.rows == self.indices), "self-loop"
        keys = self.rows * self.n + self.indices
        assert np.all(keys[:-1] < keys[1:]), "adjacency not strictly sorted"
        assert np.array_equal(np.sort(self.indices * self.n + self.rows), keys), \
            "asymmetric adjacency"

    # -- derived graphs ---------------------------------------------------

    def cross_subgraph(self, labels: np.ndarray, part_a: int, part_b: int) -> "Graph":
        """The bipartite subgraph keeping only edges between two parts.

        Vertex ids are preserved; vertices outside the two parts become
        isolated.  Used for extraction over the cross adjacency.
        """
        lu, lv = labels[self.rows], labels[self.indices]
        keep = ((lu == part_a) & (lv == part_b)) | ((lu == part_b) & (lv == part_a))
        return Graph(self.n, np.searchsorted(self.rows[keep], np.arange(self.n + 1)),
                     self.indices[keep])

    def induced_subgraph(self, ids: np.ndarray) -> "Graph":
        """G[ids] with vertex ids[k] renamed k; ids must be sorted and distinct,
        so the renaming keeps the vertex order."""
        k = len(ids)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[ids] = np.arange(k)
        nb = pos[self.indices[self.row_entries(ids)]]
        keep = nb >= 0
        rows = np.repeat(np.arange(k), self.degree[ids])[keep]
        return Graph(k, np.searchsorted(rows, np.arange(k + 1)), nb[keep])

    def row_entries(self, ids: np.ndarray) -> np.ndarray:
        """Positions in ``indices`` of the CSR rows of ids, row after row, in
        O(len(ids) + sum of their degrees)."""
        lens = self.degree[ids]
        return (np.repeat(self.indptr[ids] - np.cumsum(lens) + lens, lens)
                + np.arange(lens.sum()))

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
        if self.r < 2:
            raise ValueError("a partition needs at least 2 parts")
        self.labels = _check_labels(self.labels, self.r).astype(np.int64)

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
    separated; lines starting with '#' are comments, and "# n <count>" sets
    the vertex count.  DIMACS-style: a "p edge <n> <m>" header followed by
    "e u v" lines with 1-indexed ids (converted internally); 'c' lines are
    comments.

    A clean edge list is read by one vectorised ``np.loadtxt`` parse; the
    line loop reads DIMACS text and whatever that parse declines, and makes
    every diagnosis, so both give the same graph on the same text.  Duplicate edges are collapsed by
    ``Graph.from_edges`` and counted in the returned graph's
    ``duplicates_collapsed``.  Self-loops, non-integer tokens and ids out of
    range raise GraphFormatError with the offending line number, and so does
    a negative vertex count in a header.
    """
    if hasattr(text, "read"):
        text = text.read()
    if n is not None and n < 0:
        raise GraphFormatError(f"negative vertex count n={n}")
    graph = _read_clean(text, n) if isinstance(text, str) else None
    return graph if graph is not None else _read_lines(text, n)


def _read_clean(text: str, n: int | None) -> Graph | None:
    """What ``_read_lines`` returns for an edge list, parsed at once; None
    declines.

    The leading blank and '#' comment lines are read here in python; the
    records after them go to one ``np.loadtxt`` call.  It declines unless
    every record is exactly "u v" of ASCII digits and signs between blanks
    and line breaks that both parsers split on alike, with no self-loop and
    every id in range, so it never has a line to name.  DIMACS text always
    goes to the loop.
    """
    declared_n, pos = n, 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        line = text[pos:end]
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            break
        pos = end
        if not parts:
            continue
        # one line to str.splitlines too, or the loop reads more than a comment
        if len(line.splitlines()) != 1:
            return None
        rest = line.strip()[1:].split()
        if len(rest) == 2 and rest[0] == "n":
            if not (rest[1].isascii() and rest[1].isdigit()):
                return None
            declared_n = int(rest[1])
    body = text[pos:]
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.translate(None, b"0123456789+- \t\r\n") or not raw or raw.isspace():
        return None
    try:
        pairs = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    if pairs.shape[1] != 2 or pairs.min() < 0 or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    if declared_n is None:
        declared_n = int(pairs.max()) + 1
    elif pairs.max() >= declared_n:
        return None
    return Graph.from_edges(declared_n, pairs)


def _read_lines(text: str, n: int | None) -> Graph:
    """The reference parser of ``load_graph``: one line at a time, naming
    the first malformed line by number."""
    dimacs = re.search(r"^\s*p[ \t]", text, re.MULTILINE) is not None
    comment, offset = ("c", 1) if dimacs else ("#", 0)
    ids: list[int] = []
    declared_n = n

    def parse_int(tok: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer token {tok!r}") from None

    def parse_count(tok: str, lineno: int) -> int:
        count = parse_int(tok, lineno)
        if count < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex count {count}")
        return count

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0].startswith(comment):
            # "# n <count>" records isolated trailing vertices
            parts = raw.strip()[1:].split()
            if not dimacs and len(parts) == 2 and parts[0] == "n":
                declared_n = parse_count(parts[1], lineno)
            continue
        if dimacs:
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(f"line {lineno}: malformed problem line")
                declared_n = parse_count(parts[2], lineno)
                continue
            if parts[0] != "e":
                raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            parts = parts[1:]
        elif len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids")
        u, v = parse_int(parts[0], lineno), parse_int(parts[1], lineno)
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if u < offset or v < offset:
            raise GraphFormatError(f"line {lineno}: vertex id {min(u, v)} below {offset}")
        ids += (u, v)
    pairs = np.array(ids, dtype=np.int64).reshape(-1, 2) - offset
    if declared_n is None:
        if dimacs:
            raise GraphFormatError("DIMACS stream without a problem line")
        declared_n = int(pairs.max()) + 1 if len(pairs) else 0
    try:
        return Graph.from_edges(declared_n, pairs)
    except GraphFormatError:
        # every id is at least the offset here, so some id is above n:
        # name it as written, on its line (the k-th edge record)
        k = int(np.argmax(pairs.max(axis=1) >= declared_n))
        records = (lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                   if (parts := raw.split()) and not parts[0].startswith(comment)
                   and parts[0] != "p")
        lineno = next(itertools.islice(records, k, None))
        bad = max(int(x) for x in pairs[k]) + offset
        raise GraphFormatError(f"line {lineno}: vertex id {bad} above "
                               f"{declared_n - 1 + offset} (out of range for "
                               f"n={declared_n})") from None


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


def _check_labels(labels, r: int, n: int | None = None) -> np.ndarray:
    """labels as an array, refused with LabelError unless it holds one
    integer in [0, r) per vertex (n vertices, when n is given)."""
    labels = np.asarray(labels)
    if n is not None and labels.shape != (n,):
        raise LabelError(f"label array of shape {labels.shape} for n={n}",
                         min(labels.size, n))
    if labels.ndim != 1:
        raise LabelError(f"label array of shape {labels.shape} is not 1-D", 0)
    if labels.size == 0:
        return labels
    if not np.issubdtype(labels.dtype, np.integer):
        # a cast would truncate them silently
        raise LabelError(f"labels have non-integer dtype {labels.dtype}", 0)
    bad = (labels < 0) | (labels >= r)
    if bad.any():
        v = int(np.argmax(bad))
        raise LabelError(f"vertex {v} has label {labels[v]} outside [0, {r})", v)
    return labels


def part_profile(graph: Graph, labels: np.ndarray, r: int) -> np.ndarray:
    """(n, r) matrix: entry [v, j] = number of neighbors of v in part j.

    Raises LabelError unless labels holds one integer in [0, r) per vertex.
    """
    labels = _check_labels(labels, r, graph.n)
    if graph.n == 0:
        return np.zeros((0, r), dtype=np.int64)
    flat = np.bincount(graph.rows * r + labels[graph.indices], minlength=graph.n * r)
    return flat.reshape(graph.n, r)


class Counts:
    """The neighbour counts of a labeling, kept current as vertices move.

    ``matrix`` is ``part_profile(graph, labels, r)`` and ``sizes`` the part
    sizes; the object owns its copy of ``labels``.  It is counted once, at
    construction; ``move`` then touches only the CSR rows of the moved
    vertices, and ``swap`` exchanges two parts by swapping columns.  Change
    the labels only through these two methods.
    """

    __slots__ = ("graph", "labels", "matrix", "sizes")

    def __init__(self, graph: Graph, labels: np.ndarray, r: int):
        self.graph = graph
        self.matrix = part_profile(graph, labels, r)  # refuses bad labels
        self.labels = np.array(labels, dtype=np.int64)
        self.sizes = np.bincount(self.labels, minlength=r)

    def copy(self) -> "Counts":
        out = Counts.__new__(Counts)
        out.graph = self.graph
        out.labels, out.matrix, out.sizes = (self.labels.copy(), self.matrix.copy(),
                                             self.sizes.copy())
        return out

    def move(self, vs, dst) -> None:
        """Relabel the distinct vertices vs to dst (one part, or one per
        vertex), in O(len(vs) + sum of their degrees)."""
        vs = np.asarray(vs, dtype=np.int64)
        dst = np.broadcast_to(np.asarray(dst, dtype=np.int64), vs.shape)
        src = self.labels[vs]
        lens = self.graph.degree[vs]
        nb = self.graph.indices[self.graph.row_entries(vs)] * self.matrix.shape[1]
        flat = self.matrix.reshape(-1)
        np.subtract.at(flat, nb + np.repeat(src, lens), 1)
        np.add.at(flat, nb + np.repeat(dst, lens), 1)
        np.subtract.at(self.sizes, src, 1)
        np.add.at(self.sizes, dst, 1)
        self.labels[vs] = dst

    def swap(self, a: int, b: int) -> None:
        """Exchange the names of parts a and b."""
        in_a, in_b = self.labels == a, self.labels == b
        self.labels[in_a], self.labels[in_b] = b, a
        self.matrix[:, [a, b]] = self.matrix[:, [b, a]]
        self.sizes[[a, b]] = self.sizes[[b, a]]


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
