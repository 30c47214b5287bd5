"""Flip-based local search for max-cut and the biased max-r-cut.

``local_maxcut`` drives a bipartition of a vertex subset to a flip local
optimum, where every vertex has at least as many neighbors across the cut as
on its own side (hence cross-degree >= ceil(own-subgraph-degree / 2)).

``biased_max_r_cut`` minimizes f(U_1..U_r) = sum_i e(U_i)/alpha_i over
nontrivial r-partitions by single-vertex moves.  At a local minimum, for
every x in U_i and every j != i reachable by a legal move (|U_i| >= 2),

    d_{U_i}(x)/alpha_i <= d_{U_j}(x)/alpha_j,

and summing over j gives d_{U_i}(x) <= alpha_i * d_G(x).  When the bias
vector is given as rationals, all comparisons run in exact integer
arithmetic (weights scaled to a common denominator), so the local-optimum
certificate is independent of float rounding; float biases fall back to a
1e-12 relative guard.

Both searches run one kernel, ``_flip_search``: sweeps over the vertices in
index order, each moving every vertex that has a strictly improving move
(to the first such part, unless that would empty its part), until a sweep
moves nothing.  ``local_maxcut`` is the case r = 2 with equal weights on
G[S], minimized.  The kernel runs on a ``graph.Counts`` that the caller
builds and keeps: it updates the labels, the neighbour-count matrix and the
part sizes in place.  It keeps a candidate mask, true for the vertices
with a strictly improving move, and a sweep jumps from one candidate to the
next.  Whether v can move depends only on its own label and its own row of
neighbor counts per part, and these change only when v or a neighbor of v
moves; after each move the mask is recomputed for exactly those vertices.
So the mask is exact whenever a vertex is reached, and the sweeps make the
same moves, in the same order, as sweeps that visit every vertex.

A move of x from part l to part q improves f iff w_q * c_q beats the bar of
w_l * c_l, where c_j counts the neighbours of x in part j, "beats" is < (>
under maximize) and the bar is w_l * c_l itself for integer weights and
w_l * c_l -/+ the FLOAT_GUARD margin for float weights.  The kernel decides
this from an integer table built once per search, thr[q, l, c_l]: the move
improves iff c_q < thr (c_q > thr under maximize).  The entry is the
``searchsorted`` position of the bar among the costs w_q * 0, ..., w_q *
maxdeg.  This is exact, not an approximation: a product c * w_q, in int64,
in python ints or in floats, never decreases as the integer c grows, so the
counts whose cost beats the bar form a prefix (a suffix under maximize) of
0..maxdeg, and the table stores where it ends.  The bar and the costs are
computed by the same expressions as a direct comparison, so every decision,
near-ties within the float guard included, is the one that comparison
makes.  The diagonal q = l never fires, because no cost beats its own bar.
Building the table costs O(r^2 * maxdeg); a move then costs one gather of
each part's count column and of the table row per touched vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Counts, Graph, part_profile

FLOAT_GUARD = 1e-12


@dataclass(frozen=True)
class BiasVector:
    """Part-size biases alpha_1..alpha_r, each in (0,1), summing to 1."""

    alpha: tuple

    def __post_init__(self):
        vals = tuple(Fraction(a) if isinstance(a, (Fraction, int, str)) else a
                     for a in self.alpha)
        object.__setattr__(self, "alpha", vals)
        if len(vals) < 2:
            raise ValueError("need at least 2 parts")
        for a in vals:
            if not 0 < a < 1:
                raise ValueError(f"bias entries must lie in (0,1), got {a}")
        if self.exact:
            if sum(vals) != 1:
                raise ValueError(f"rational biases must sum to 1, got {sum(vals)}")
        elif abs(float(sum(float(a) for a in vals)) - 1.0) > FLOAT_GUARD:
            raise ValueError("biases must sum to 1 within 1e-12")

    @property
    def r(self) -> int:
        return len(self.alpha)

    @property
    def exact(self) -> bool:
        return all(isinstance(a, Fraction) for a in self.alpha)

    def weights(self):
        """Per-part move weights w_i proportional to 1/alpha_i.

        Rational biases yield exact integer weights (scaled by the lcm of the
        numerators); float biases yield float weights.
        """
        if self.exact:
            lcm = 1
            for a in self.alpha:
                lcm = lcm * a.numerator // math.gcd(lcm, a.numerator)
            return [lcm * a.denominator // a.numerator for a in self.alpha]
        return [1.0 / float(a) for a in self.alpha]

    def as_floats(self) -> list[float]:
        return [float(a) for a in self.alpha]


def _balanced_random_split(ids: np.ndarray, r: int, rng) -> np.ndarray:
    """Labels in [0,r) aligned with ids, sizes as equal as possible."""
    k = len(ids)
    chunk_labels = np.empty(k, dtype=np.int64)
    base, extra = divmod(k, r)
    start = 0
    for j in range(r):
        size = base + (1 if j < extra else 0)
        chunk_labels[start:start + size] = j
        start += size
    out = np.empty(k, dtype=np.int64)
    out[rng.permutation(k)] = chunk_labels
    return out


def local_maxcut(graph: Graph, subset=None, seed: int = 0):
    """Flip local search for max-cut on G[S].

    Returns (plus_ids, minus_ids, flips).  At exit every x in S satisfies
    d_cross(x) >= d_own(x) within G[S] (exact integer comparison), hence
    d_cross(x) >= ceil(d_{G[S]}(x)/2).  Empty S returns two empty parts.
    """
    if subset is None:
        ids = np.arange(graph.n, dtype=np.int64)
    else:
        ids = np.unique(np.asarray(subset, dtype=np.int64))
    if len(ids) == 0:
        return ids.copy(), ids.copy(), 0
    sub = graph if subset is None else graph.induced_subgraph(ids)
    rng = np.random.default_rng(seed)
    counts = Counts(sub, _balanced_random_split(ids, 2, rng), 2)
    # flipping x strictly improves e(plus) + e(minus) iff d_own(x) > d_cross(x);
    # a lone vertex has d_own = 0, so the part-size guard never fires
    _, _, flips = _flip_search(counts, [1, 1])
    side = counts.labels
    return ids[side == 0], ids[side == 1], flips


def _exact_array(values: list, max_factor: int) -> np.ndarray:
    """Integers as int64, or as python ints (dtype=object) when they, or a
    product with a factor up to max_factor, might not fit in int64."""
    fits = max(values) * max(max_factor, 1) < 2 ** 63
    return np.array(values, dtype=np.int64 if fits else object)


def _move_thresholds(w: list, maxdeg: int, maximize: bool) -> np.ndarray:
    """thr[q, l, c]: a vertex of part l with c neighbours there may move to
    part q iff its count c_q toward q is below thr (above it under maximize).

    Each entry is the searchsorted position of the bar of w_l * c among the
    costs w_q * 0, ..., w_q * maxdeg, so the table decides exactly what a
    direct comparison of the costs decides; see the module docstring.
    """
    exact = all(isinstance(x, int) for x in w)
    grid = np.arange(maxdeg + 1, dtype=np.int64)
    weights = (_exact_array(w, maxdeg) if exact
               else np.array(w, dtype=np.float64))
    costs = weights[:, None] * grid[None, :]  # costs[q, c] = w_q * c
    bars = costs
    if not exact:
        guard = FLOAT_GUARD * np.maximum(1.0, np.abs(costs))
        bars = costs + guard if maximize else costs - guard
    r = len(w)
    thr = np.empty((r, r, maxdeg + 1), dtype=np.int64)
    for q in range(r):
        for l in range(r):
            if maximize:  # the last count whose cost does not beat the bar
                thr[q, l] = np.searchsorted(costs[q], bars[l], side="right") - 1
            else:  # the first count whose cost does not beat the bar
                thr[q, l] = np.searchsorted(costs[q], bars[l], side="left")
    return thr


def _flip_search(counts: Counts, w: list, maximize: bool = False):
    """Single-vertex moves on the labeling of ``counts`` (r = len(w) parts)
    until no vertex of a part with >= 2 vertices has a move that strictly
    improves f = sum_i w_i * e(U_i): down by default, up under maximize.

    ``counts`` is updated in place (labels, matrix and sizes).  Returns (f
    at the start, f at the end, moves).  Integer weights compare exactly;
    float weights need a FLOAT_GUARD relative margin.  See the module
    docstring for the move-threshold table and for why the candidate mask
    keeps the move sequence of a plain sweep over all vertices.
    """
    graph, labels, matrix = counts.graph, counts.labels, counts.matrix
    n, r = graph.n, len(w)
    exact = all(isinstance(x, int) for x in w)
    width = int(graph.degree.max(initial=0)) + 1
    thr = _move_thresholds(w, width - 1, maximize)
    # thr_rows[q][l * width + c] for the numpy passes, thr_py[l][c][q] for one
    # vertex at a time
    thr_rows = thr.reshape(r, -1)
    thr_py = thr.transpose(1, 2, 0).tolist()
    cols = [matrix[:, q] for q in range(r)]  # strided views, updated in place
    flat = matrix.reshape(-1)
    nb_rows = graph.indices * r  # where each CSR neighbour's row starts in flat
    beats = np.greater if maximize else np.less

    def improves(row, lab):
        """The first part that a vertex of part lab with neighbour counts
        row (a list) improves by moving to, or None."""
        bar = thr_py[lab][row[lab]]
        for q in range(r):
            if (row[q] > bar[q]) if maximize else (row[q] < bar[q]):
                return q
        return None

    def movable(vs, rows):
        """Whether vertex vs[k], whose row starts at flat[rows[k]], has a
        strictly improving move."""
        lab = labels[vs]
        key = flat[rows + lab]
        key += lab * width
        out = beats(cols[0][vs], thr_rows[0][key])
        for q in range(1, r):
            out |= beats(cols[q][vs], thr_rows[q][key])
        return out

    tot = 0 if exact else 0.0
    for j in range(r):
        tot += w[j] * int(cols[j][labels == j].sum())
    f0 = f_cur = tot // 2 if exact else tot / 2.0
    sign = -1 if maximize else 1
    sizes = counts.sizes.tolist()
    cand = movable(np.arange(n), np.arange(0, n * r, r))
    moves = 0
    moved = True
    while moved:
        moved = False
        v = -1
        while v + 1 < n:
            rest = cand[v + 1:]
            k = int(rest.argmax())
            if not rest[k]:
                break
            v += 1 + k
            i = int(labels[v])
            if sizes[i] < 2:
                continue  # move would empty the part
            row = matrix[v].tolist()
            j = improves(row, i)
            f_new = f_cur + (w[j] * row[j] - w[i] * row[i])
            # f must strictly improve in the chosen direction
            if exact:
                assert sign * (f_new - f_cur) < 0
            f_cur = f_new
            labels[v] = j
            sizes[i] -= 1
            sizes[j] += 1
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            nb = graph.indices[lo:hi]
            cols[i][nb] -= 1
            cols[j][nb] += 1
            cand[nb] = movable(nb, nb_rows[lo:hi])
            cand[v] = improves(row, j) is not None  # v's own row is unchanged
            moves += 1
            moved = True
    counts.sizes[:] = sizes
    return f0, f_cur, moves


@dataclass
class RCutResult:
    """A biased max-r-cut local optimum: its ``graph.Counts`` (labels, the
    neighbour counts and the part sizes), the objective at the start and
    end, the moves made, and whether the biases were exact."""

    counts: Counts
    objective_start: object
    objective_end: object
    moves: int
    exact: bool

    @property
    def labels(self) -> np.ndarray:
        return self.counts.labels


def biased_max_r_cut(graph: Graph, bias: BiasVector, seed: int = 0,
                     maximize: bool = False) -> RCutResult:
    """Single-vertex-move local optimum of f = sum_i e(U_i)/alpha_i.

    Default minimizes f over nontrivial r-partitions (moves that would empty
    a part are forbidden); at the local minimum the cross-multiplied ratio
    inequalities of the module docstring hold.  maximize=True reverses the
    objective (used for internal-degree r-partitions: at a local maximum
    d_{U_i}(x) >= alpha_i*d_G(x) for every x in a part with >= 2 vertices).

    The initial partition is a balanced random split from the seed; f strictly
    improves at every accepted move, so the search terminates.
    """
    r = bias.r
    if r > graph.n:
        raise ValueError(f"r={r} parts need at least r vertices, got n={graph.n}")
    rng = np.random.default_rng(seed)
    counts = Counts(graph, _balanced_random_split(
        np.arange(graph.n, dtype=np.int64), r, rng), r)
    f0, f_end, moves = _flip_search(counts, bias.weights(), maximize)
    return RCutResult(counts, f0, f_end, moves, bias.exact)


def check_flip_local_optimum(graph: Graph, plus: np.ndarray, minus: np.ndarray) -> list[int]:
    """Vertices violating d_cross >= d_own within G[plus ∪ minus] (empty if OK),
    in the order of plus, then minus."""
    side = np.full(graph.n, 2, dtype=np.int64)  # part 2: outside the subset
    side[plus] = 0
    side[minus] = 1
    counts = part_profile(graph, side, 3)
    order = np.concatenate([plus, minus]).astype(np.int64)
    own = counts[order, side[order]]
    cross = counts[order, 1 - side[order]]
    return order[cross < own].tolist()


def check_biased_local_min(counts: Counts, bias: BiasVector,
                           maximize: bool = False) -> list[tuple]:
    """Violations of the ratio inequalities at a claimed local optimum,
    read from the neighbour counts of its labeling.

    For each x in U_i with |U_i| >= 2 and each j != i, checks
    alpha_j * d_{U_i}(x) <= alpha_i * d_{U_j}(x) (reversed under maximize).
    Rational biases are compared exactly, as integers scaled by the lcm of
    the denominators.  Returns a list of (vertex, i, j, d_i, d_j) violations
    in vertex, then j, order; empty means certified.
    """
    graph, labels, matrix = counts.graph, counts.labels, counts.matrix
    d_own = matrix[np.arange(graph.n), labels]
    if bias.exact:
        scale = math.lcm(*(a.denominator for a in bias.alpha))
        alpha = _exact_array([int(a * scale) for a in bias.alpha],
                             int(graph.degree.max(initial=0)))
    else:
        alpha = np.array(bias.as_floats())
    lhs = alpha[None, :] * d_own[:, None]  # alpha_j * d_i
    rhs = alpha[labels][:, None] * matrix  # alpha_i * d_j
    ok = lhs >= rhs if maximize else lhs <= rhs
    if not bias.exact:
        ok |= np.abs(lhs - rhs) <= FLOAT_GUARD * np.maximum(1.0, rhs)
    bad = ~ok & (counts.sizes[labels] >= 2)[:, None]
    bad[np.arange(graph.n), labels] = False
    vs, js = np.nonzero(bad)
    return list(zip(vs.tolist(), labels[vs].tolist(), js.tolist(),
                    d_own[vs].tolist(), matrix[vs, js].tolist()))
