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
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


# the most vertices a graph holds: from_edges keys each edge as lo * n + hi,
# which must fit in int64
MAX_VERTICES = math.isqrt(2 ** 63 - 1)
# the fewest CSR entries for which part_profile counts a range of rows on a
# thread of its own (measured in its docstring)
RANGE_ENTRIES = 1 << 16


class GraphFormatError(ValueError):
    """Raised on malformed graph input (self-loop, bad token, bad header)."""


class LabelError(ValueError):
    """A label array that is no r-partition of the graph's vertices.

    ``vertex`` is the first vertex whose label is outside [0, r), or None
    when the array as a whole is refused: a wrong shape or a non-integer
    dtype names no vertex.
    """

    def __init__(self, message: str, vertex: int | None):
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

    The arrays are read-only, so a graph's ``fingerprint`` and its
    ``degree_classes`` are each computed once, on first use, and a graph is
    shared as is by the worker threads of a large ``part_profile``.
    """

    __slots__ = ("n", "indptr", "indices", "degree", "rows", "duplicates_collapsed",
                 "_fingerprint", "_degree_classes")

    def __init__(self, n: int, rows: np.ndarray, indices: np.ndarray,
                 duplicates_collapsed: int = 0):
        """The one constructor: rows and indices are the entries in CSR
        order, sorted by (row, neighbor); indptr is derived from rows."""
        self.n = int(n)
        self.rows = rows
        self.indices = indices
        self.indptr = np.searchsorted(rows, np.arange(self.n + 1))
        self.degree = np.diff(self.indptr).astype(np.int64)
        for a in (self.indptr, self.indices, self.degree, self.rows):
            a.setflags(write=False)
        self.duplicates_collapsed = int(duplicates_collapsed)
        self._fingerprint = None
        self._degree_classes = None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an (m, 2) integer array or an iterable of (u, v)
        pairs.

        Duplicate pairs are collapsed and counted in ``duplicates_collapsed``;
        a self-loop or an id outside [0, n) raises GraphFormatError naming the
        first bad pair in input order, and so does an n below 0 or above
        ``MAX_VERTICES``.
        """
        n = _vertex_count(n)
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
        return cls(n, src, dst, len(pairs) - len(keys))

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

    @property
    def degree_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, row): the sorted distinct degrees, and each vertex's
        position among them, so values[row] == degree; computed once, both
        read-only.  Every degree floor depends on a vertex only through its
        degree, so threshold tables are built over ``values``."""
        if self._degree_classes is None:
            values, row = np.unique(self.degree, return_inverse=True)
            for a in (values, row):
                a.setflags(write=False)
            self._degree_classes = values, row
        return self._degree_classes

    # -- derived graphs ---------------------------------------------------

    def cross_subgraph(self, labels: np.ndarray, part_a: int, part_b: int) -> "Graph":
        """The bipartite subgraph keeping only edges between two parts.

        Vertex ids are preserved; vertices outside the two parts become
        isolated.  Used for extraction over the cross adjacency.
        """
        lu, lv = labels[self.rows], labels[self.indices]
        keep = ((lu == part_a) & (lv == part_b)) | ((lu == part_b) & (lv == part_a))
        return Graph(self.n, self.rows[keep], self.indices[keep])

    def induced_subgraph(self, ids: np.ndarray) -> "Graph":
        """G[ids] with vertex ids[k] renamed k; ids must be sorted and distinct,
        so the renaming keeps the vertex order."""
        k = len(ids)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[ids] = np.arange(k)
        nb = pos[self.indices[self.row_entries(ids)]]
        keep = nb >= 0
        rows = np.repeat(np.arange(k), self.degree[ids])[keep]
        return Graph(k, rows, nb[keep])

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


# -- ingestion -------------------------------------------------------------


def load_graph(text) -> Graph:
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
    a vertex count in a header below 0 or above ``MAX_VERTICES``
    (isqrt(2**63 - 1), the most whose edge keys fit in int64).  A count up to
    that limit, declared or inferred as the largest id + 1, is honoured as
    declared: the graph's arrays hold n + 1 offsets, however few edges follow.
    """
    if hasattr(text, "read"):
        text = text.read()
    graph = _read_clean(text) if isinstance(text, str) else None
    return graph if graph is not None else _read_lines(text)


def _vertex_count(n) -> int:
    """n as an int, refused with GraphFormatError unless 0 <= n <= MAX_VERTICES."""
    n = int(n)
    if n < 0:
        raise GraphFormatError(f"negative vertex count n={n}")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count n={n} above {MAX_VERTICES}, the most "
                               f"a graph holds")
    return n


def _read_clean(text: str) -> Graph | None:
    """What ``_read_lines`` returns for an edge list, parsed at once; None
    declines.

    The leading blank and '#' comment lines are read here in python; the
    records after them go to one ``np.loadtxt`` call.  It declines unless
    every record is exactly "u v" of ASCII digits and signs between blanks
    and line breaks that both parsers split on alike, with no self-loop and
    every id in range, so it never has a line to name.  DIMACS text always
    goes to the loop.
    """
    declared_n, pos = None, 0
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
            if declared_n > MAX_VERTICES:
                return None
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
    if pairs.max() >= (MAX_VERTICES if declared_n is None else declared_n):
        return None
    if declared_n is None:
        declared_n = int(pairs.max()) + 1
    return Graph.from_edges(declared_n, pairs)


def _read_lines(text: str) -> Graph:
    """The reference parser of ``load_graph``: one line at a time, naming
    the first malformed line by number."""
    # a problem line as the loop below splits it
    dimacs = any(raw.split()[:1] == ["p"] for raw in text.splitlines())
    comment, offset = ("c", 1) if dimacs else ("#", 0)
    ids: list[int] = []
    declared_n = None

    def parse_int(tok: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer token {tok!r}") from None

    def parse_count(tok: str, lineno: int) -> int:
        count = parse_int(tok, lineno)
        if count < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex count {count}")
        if count > MAX_VERTICES:
            raise GraphFormatError(f"line {lineno}: vertex count {count} above "
                                   f"{MAX_VERTICES}, the most a graph holds")
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
    if declared_n is None and dimacs:
        raise GraphFormatError("DIMACS stream without a problem line")
    # every id is at least the offset here; name the first one above the
    # count (or above the most vertices a graph holds, when the count is
    # inferred) as written, on its line (the k-th edge record)
    top = (MAX_VERTICES if declared_n is None else declared_n) - 1 + offset
    if ids and max(ids) > top:
        k = next(at for at, x in enumerate(ids) if x > top) // 2
        records = (lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                   if (parts := raw.split()) and not parts[0].startswith(comment)
                   and parts[0] != "p")
        lineno = next(itertools.islice(records, k, None))
        bad = max(ids[2 * k], ids[2 * k + 1])
        if declared_n is None:
            raise GraphFormatError(f"line {lineno}: vertex id {bad} above {top}, "
                                   f"the largest a graph holds")
        raise GraphFormatError(f"line {lineno}: vertex id {bad} above {top} (out of "
                               f"range for n={declared_n})")
    pairs = np.array(ids, dtype=np.int64).reshape(-1, 2) - offset
    if declared_n is None:
        declared_n = int(pairs.max()) + 1 if len(pairs) else 0
    return Graph.from_edges(declared_n, pairs)


# -- degree/cut primitives --------------------------------------------------


def _check_labels(labels, r: int, n: int) -> np.ndarray:
    """labels as an array, refused with LabelError unless it holds one
    integer in [0, r) for each of the n vertices."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise LabelError(f"label array of shape {labels.shape} for n={n}", None)
    if labels.size == 0:
        return labels
    if not np.issubdtype(labels.dtype, np.integer):
        # a cast would truncate them silently
        raise LabelError(f"labels have non-integer dtype {labels.dtype}", None)
    bad = (labels < 0) | (labels >= r)
    if bad.any():
        v = int(np.argmax(bad))
        raise LabelError(f"vertex {v} has label {labels[v]} outside [0, {r})", v)
    return labels


def part_profile(graph: Graph, labels: np.ndarray, r: int) -> np.ndarray:
    """(n, r) matrix: entry [v, j] = number of neighbors of v in part j.

    The r counts of a row are summed at once, packed into one int64 word
    (SIMD within a register): with ``bits`` = the bit length of the maximum
    degree, part j is the code ``1 << (bits * j)``, and a row's sum of its
    neighbours' codes holds its count into part j in bits [bits*j,
    bits*(j+1)).  No count exceeds the maximum degree < 2**bits, so no field
    carries into the next, and no sum exceeds 2**(r*bits) <= 2**63.  The sums
    are one gather over the CSR and one ``np.add.reduceat`` over the starts
    of the non-empty rows (empty rows hold no entries, so consecutive
    non-empty starts delimit the rows exactly); isolated vertices keep rows
    of zeros.  When r * bits > 63 the words would overflow, and one
    ``np.bincount`` over the n*r (row, part) keys counts instead.

    On a large graph the packed count may use several threads: the
    non-empty rows are cut into k contiguous ranges of equal row count, k =
    min(CPUs this process may run on, entries // RANGE_ENTRIES), and each
    range's gather and row sums run on a thread of its own (numpy releases
    the GIL in both), the caller's thread taking the first.  The ranges
    write disjoint rows of the words and only read the graph's arrays,
    which are read-only and shared; the sums are exact integers, so the
    result does not depend on the split.  Two ranges pay for the dispatch
    to a pooled worker thread from 2**17 entries on, RANGE_ENTRIES = 2**16
    per range; below that they lose or tie.  Medians of part_profile with
    r = 3, serial -> two ranges, on 2 vCPUs (Python 3.11.7, numpy 2.4.6):

        CSR entries   G(n, 32/(n-1))           G(n, 0.05)
        2**14          42 ->   98 us            45 ->  109 us
        2**15          67 ->  106 us            65 ->  109 us
        2**16         128 ->  124 us           110 ->  151 us
        2**17         270 ->  252 us           190 ->  166 us
        2**18         580 ->  391 us           354 ->  269 us
        2**19        1171 ->  794 us           701 ->  456 us
        2**20        2358 -> 1538 us          1389 ->  834 us

    Equal row counts beat equal entry counts on the Chung-Lu graph of the
    powerlaw-bind benchmark (n = 20000, 389,808 entries, the first half of
    the rows holding 78% of them): 0.73 against 0.81 ms for the sums.

    Raises LabelError unless labels holds one integer in [0, r) per vertex.
    """
    labels = _check_labels(labels, r, graph.n)
    n, bits = graph.n, int(graph.degree.max(initial=0)).bit_length()
    if r * bits > 63:
        flat = np.bincount(graph.rows * r + labels[graph.indices], minlength=n * r)
        return flat.reshape(n, r)
    words = np.zeros(n, dtype=np.int64)
    nonempty = np.flatnonzero(graph.degree)
    if len(nonempty):
        codes = np.left_shift(1, bits * np.arange(r, dtype=np.int64))[labels]
        k = _ranges(len(graph.indices), len(nonempty))
        cuts = [len(nonempty) * i // k for i in range(k + 1)]
        pending = []
        if k > 1:
            pool = _workers()
            pending = [pool.submit(_sum_rows, words, codes, graph, nonempty[a:b])
                       for a, b in zip(cuts[1:-1], cuts[2:])]
        _sum_rows(words, codes, graph, nonempty[:cuts[1]])
        for future in pending:
            future.result()
    # one column at a time: a broadcast (n, r) shift is several times slower
    matrix = np.empty((n, r), dtype=np.int64)
    for j in range(r):
        np.bitwise_and(words >> (bits * j), (1 << bits) - 1, out=matrix[:, j])
    return matrix


def _sum_rows(words: np.ndarray, codes: np.ndarray, graph: Graph,
              rows: np.ndarray) -> None:
    """words[rows] = the sums of the neighbours' codes of the consecutive
    non-empty CSR rows ``rows``.  Runs on worker threads, so it calls only
    numpy: the benchmark's tracer keeps one span stack for public calls."""
    lo, hi = graph.indptr[rows[0]], graph.indptr[rows[-1] + 1]
    words[rows] = np.add.reduceat(codes[graph.indices[lo:hi]], graph.indptr[rows] - lo)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ranges(entries: int, rows: int) -> int:
    """How many threads count a CSR of ``entries`` entries over ``rows``
    non-empty rows: one per CPU, while each range keeps RANGE_ENTRIES and
    a row."""
    return max(1, min(_cpus(), entries // RANGE_ENTRIES, rows))


# the worker threads of the process that made them: a forked child has none
_pool: ThreadPoolExecutor | None = None
_pool_pid = -1


def _workers() -> ThreadPoolExecutor:
    """The process's pool of worker threads, one per CPU beside the
    caller's, made on first use and made again in a forked child.

    No lock: a lock held by another thread at a fork stays held in the
    child.  Two first callers may each make a pool; the one stored last
    serves from then on, and the other keeps at most its idle threads
    until the interpreter exits."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool = ThreadPoolExecutor(max(1, (os.cpu_count() or 1) - 1),
                                   thread_name_prefix="part_profile")
        _pool_pid = os.getpid()
    return _pool


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
