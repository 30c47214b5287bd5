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
G[S], minimized.  The kernel keeps a candidate mask, true for the vertices
with a strictly improving move, and a sweep jumps from one candidate to the
next.  Whether v can move depends only on its own label and its own row of
neighbor counts per part, and these change only when v or a neighbor of v
moves; after each move the mask is recomputed for exactly those vertices.
So the mask is exact whenever a vertex is reached, and the sweeps make the
same moves, in the same order, as sweeps that visit every vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, LabeledPartition, part_profile

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
    side = _balanced_random_split(ids, 2, rng)
    # flipping x strictly improves e(plus) + e(minus) iff d_own(x) > d_cross(x);
    # a lone vertex has d_own = 0, so the part-size guard never fires
    _, _, flips = _flip_search(sub, side, [1, 1])
    return ids[side == 0], ids[side == 1], flips


def _exact_array(values: list, max_factor: int) -> np.ndarray:
    """Integers as int64, or as python ints (dtype=object) when a product
    with a factor up to max_factor might not fit in int64."""
    fits = max(values) * max_factor < 2 ** 63
    return np.array(values, dtype=np.int64 if fits else object)


def _flip_search(graph: Graph, labels: np.ndarray, w: list,
                 maximize: bool = False):
    """Single-vertex moves on ``labels`` (in place, r = len(w) parts) until
    no vertex of a part with >= 2 vertices has a move that strictly improves
    f = sum_i w_i * e(U_i): down by default, up under maximize.

    Returns (f at the start, f at the end, moves).  Integer weights compare
    exactly; float weights need a FLOAT_GUARD relative margin.  See the
    module docstring for why the candidate mask keeps the move sequence of a
    plain sweep over all vertices.
    """
    n, r = graph.n, len(w)
    exact = all(isinstance(x, int) for x in w)
    # counts[j, v]: neighbors of v in part j; part-major, so that the
    # per-part passes of movable read contiguous rows
    counts = np.ascontiguousarray(part_profile(graph, labels, r).T)
    sizes = np.bincount(labels, minlength=r)
    weights = (_exact_array(w, int(graph.degree.max(initial=0))) if exact
               else np.array(w, dtype=np.float64))

    beats = np.greater if maximize else np.less

    def bar(own_cost):
        """The cost that a target part must strictly beat."""
        if exact:
            return own_cost
        guard = FLOAT_GUARD * np.maximum(1.0, np.abs(own_cost))
        return own_cost + guard if maximize else own_cost - guard

    def movable(vs):
        """Whether vertex vs[k] has a strictly improving move."""
        cost = counts[:, vs] * weights[:, None]
        b = bar(cost[labels[vs], np.arange(len(vs))])
        out = beats(cost[0], b)
        for c in cost[1:]:  # r - 1 elementwise passes: cheaper than one reduce
            out |= beats(c, b)
        return out

    tot = 0 if exact else 0.0
    for j in range(r):
        tot += w[j] * int(counts[j, labels == j].sum())
    f0 = f_cur = tot // 2 if exact else tot / 2.0
    sign = -1 if maximize else 1
    cand = movable(np.arange(n))
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
            cost = counts[:, v] * weights
            j = int(beats(cost, bar(cost[i])).argmax())  # first improving part
            f_new = f_cur + (w[j] * int(counts[j, v]) - w[i] * int(counts[i, v]))
            # f must strictly improve in the chosen direction
            if exact:
                assert sign * (f_new - f_cur) < 0
            f_cur = f_new
            labels[v] = j
            sizes[i] -= 1
            sizes[j] += 1
            nb = graph.neighbors(v)
            counts[i, nb] -= 1
            counts[j, nb] += 1
            touched = np.concatenate((nb, (v,)))
            cand[touched] = movable(touched)
            moves += 1
            moved = True
    return f0, f_cur, moves


@dataclass
class RCutResult:
    labels: np.ndarray
    objective_start: object
    objective_end: object
    moves: int
    exact: bool

    def partition(self, r: int) -> LabeledPartition:
        return LabeledPartition(r, self.labels)


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
    labels = _balanced_random_split(np.arange(graph.n, dtype=np.int64), r, rng)
    f0, f_end, moves = _flip_search(graph, labels, bias.weights(), maximize)
    return RCutResult(labels, f0, f_end, moves, bias.exact)


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


def check_biased_local_min(graph: Graph, labels: np.ndarray, bias: BiasVector,
                           maximize: bool = False) -> list[tuple]:
    """Violations of the ratio inequalities at a claimed local optimum.

    For each x in U_i with |U_i| >= 2 and each j != i, checks
    alpha_j * d_{U_i}(x) <= alpha_i * d_{U_j}(x) (reversed under maximize).
    Rational biases are compared exactly, as integers scaled by the lcm of
    the denominators.  Returns a list of (vertex, i, j, d_i, d_j) violations
    in vertex, then j, order; empty means certified.
    """
    r = bias.r
    counts = part_profile(graph, labels, r)
    labels = np.asarray(labels)
    d_own = counts[np.arange(graph.n), labels]
    if bias.exact:
        scale = math.lcm(*(a.denominator for a in bias.alpha))
        alpha = _exact_array([int(a * scale) for a in bias.alpha],
                             int(graph.degree.max(initial=0)))
    else:
        alpha = np.array(bias.as_floats())
    lhs = alpha[None, :] * d_own[:, None]  # alpha_j * d_i
    rhs = alpha[labels][:, None] * counts  # alpha_i * d_j
    ok = lhs >= rhs if maximize else lhs <= rhs
    if not bias.exact:
        ok |= np.abs(lhs - rhs) <= FLOAT_GUARD * np.maximum(1.0, rhs)
    sizes = np.bincount(labels, minlength=r)
    bad = ~ok & (sizes[labels] >= 2)[:, None]
    bad[np.arange(graph.n), labels] = False
    vs, js = np.nonzero(bad)
    return list(zip(vs.tolist(), labels[vs].tolist(), js.tolist(),
                    d_own[vs].tolist(), counts[vs, js].tolist()))
