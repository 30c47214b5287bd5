"""Flip-based local search for max-cut and the biased max-r-cut.

``local_maxcut`` drives a bipartition of a vertex subset to a flip local
optimum, where every vertex has at least as many neighbors across the cut as
on its own side (hence cross-degree >= ceil(own-subgraph-degree / 2)).

``biased_max_r_cut`` minimizes f(U_1..U_r) = sum_i e(U_i)/alpha_i over
nontrivial r-partitions by single-vertex moves.  At a local minimum, for
every x in U_i and every j != i reachable by a legal move (|U_i| >= 2),

    d_{U_i}(x)/alpha_i <= d_{U_j}(x)/alpha_j,

and summing over j gives d_{U_i}(x) <= alpha_i * d_G(x).  The biases are
rationals (``BiasVector`` snaps a float to p/q or refuses it), so all
comparisons run in exact integer arithmetic (weights scaled to a common
denominator) and the local-optimum certificate is independent of float
rounding.

Both searches run one kernel, ``_flip_search``: sweeps over the vertices in
index order, each moving every vertex that has a strictly improving move
(to the first such part, unless that would empty its part), until a sweep
moves nothing.  ``local_maxcut`` is the case r = 2 with equal weights on
G[S], minimized.  The kernel runs on a ``graph.Counts`` that the caller
builds and keeps, and writes its labels, neighbour-count matrix and part
sizes back at exit.  It keeps a candidate mask, true for the vertices with
a strictly improving move, and a sweep jumps from one candidate to the
next.  Whether v can move depends only on its own label and its own
neighbour counts per part, and these change only when v or a neighbor of v
moves; after each move the mask is recomputed for exactly those vertices.
So the mask is exact whenever a vertex is reached, and the sweeps make the
same moves, in the same order, as sweeps that visit every vertex.

A move of x from part l to part q improves f iff w_q * c_q beats w_l * c_l,
where c_j counts the neighbours of x in part j and "beats" is < (> under
maximize).  The kernel decides this from an integer table built once per
search, thr[q, l, c_l]: the move improves iff c_q < thr (c_q > thr under
maximize).  The entry is the ``searchsorted`` position of w_l * c_l among
the costs w_q * 0, ..., w_q * maxdeg.  This is exact, not an
approximation: a product c * w_q, in int64 or in python ints, never
decreases as the integer c grows, so the counts whose cost beats w_l * c_l
form a prefix (a suffix under maximize) of 0..maxdeg, and the table stores
where it ends.  The diagonal q = l never fires, because no cost beats
itself.

During the search a vertex's counts live in packed int64 words (SIMD
within a register, as in Warren, *Hacker's Delight*, ch. 2).  With bits =
the bit length of the maximum degree, the count c_q of part q sits in a
field of bits + 1 bits: the count below, a guard bit on top.  Word 0 also
holds, above its own fields, the vertex's key (label l, own count c_l), so
``word >> shift`` indexes a bar table built from thr once per search.  In
the field of each part q != l, bar[l, c_l] holds B = 2^bits - 1 + t with t =
thr[q, l, c_l] (2^bits - 1 - t under maximize); the field of l holds a value
that never fires.  Subtracting the word from its bar (adding it, under
maximize) and keeping the guard bits leaves a guard bit set exactly for the
parts that x improves f by moving to.  The guarded subtract decides what c_q
< t decides: B - c_q = 2^bits + (t - 1 - c_q) reaches 2^bits iff c_q < t.
No field borrows from or carries into the next, because 0 <= c_q <= maxdeg <
2^bits and 0 <= t <= maxdeg + 1 <= 2^bits put B - c_q in [2^bits - 1 -
maxdeg, 2^bits + maxdeg], within [0, 2^(bits+1)).  Under maximize, -1 <= t
<= maxdeg puts 2^bits - 1 - t + c_q in the same range, and it reaches 2^bits
iff c_q > t.  The key bits above the fields may borrow, but no guard bit
reads them.

So the mask of a set of vertices costs, per word, one gather of their bars,
one subtract and one AND.  A move of x from i to j adds a delta to each
neighbour's words: -1 in field i, +1 in field j, and -/+1 in word 0's own
count for a neighbour labelled i or j.  That is one gather of the
neighbours' words, one add of the delta gathered by their label, and one
scatter.  The fields take as few words as they need (``_word_layout``): one
word holds 3 parts up to maximum degree 2^14 - 1, and more parts or larger
degrees take more words.  Building the tables costs O(r^2 * 2^bits).

One vertex is tested on one python int y: part q's field at bit q * span
(span = bits + 1) and the key above every field, so no field borrows or
carries, as above.  With one word, y is word 0 itself; with more, it joins
word 0's fields, those of words 1, 2, ... and the key.  Its bar is joined
alike, so one guarded subtract (add) tests every part, and the first part
the vertex improves by moving to is the lowest set guard bit.

A sweep that reaches a dense stretch of vertex ids runs it as one block:
when the window of ``_WINDOW`` ids from the next candidate holds at least
``_DENSE`` candidates, the kernel reads the window's y and mask once as
python ints and sweeps the window on them.  A mover adds one delta, chosen
by the neighbour's label, to the y of each forward neighbour inside the
window only, and marks it to be checked again when the sweep reaches it.
Then one pass applies all the block's moves to the packed words: an
``np.add.at`` of each move's field deltas over the movers' CSR rows, the
word-0 key of every touched vertex rebuilt from its final label and that
label's field, and the mask of the movers and their neighbours recomputed.
The block makes the moves that one-move steps make, in the same order, for
three reasons.  Each vertex moves at most once per sweep, so the deltas
commute and every field ends in [0, maxdeg] whatever order they are added
in.  The sweep never returns to a vertex behind it, so a backward
neighbour's words are needed only by later sweeps and windows, which read
them after the bulk pass.  And whether a vertex can move is a function of
its words, so a vertex whose local words no earlier mover of the window
touched keeps the mask bit it had.  A window with fewer candidates (the
sparse tail sweeps) keeps the one-move step, whose numpy calls per move are
cheaper there than a block's per window.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Counts, Graph


def _bias_entry(k: int, a) -> Fraction:
    """Bias entry number k as a Fraction; see ``BiasVector``."""
    if isinstance(a, (str, numbers.Rational)):
        try:
            return Fraction(a)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bias entry {k} is not a number: {a!r}") from None
    if not isinstance(a, numbers.Real):
        raise ValueError(f"bias entry {k} must be a number or a 'p/q' string, "
                         f"got {a!r}")
    x = float(a)
    if not math.isfinite(x):
        raise ValueError(f"bias entry {k} must be finite, got {x}")
    snapped = Fraction(x).limit_denominator(10 ** 6)
    if float(snapped) != x:
        raise ValueError(f"bias entry {k} = {x!r} is no p/q with q <= 10**6; "
                         f"pass it as 'p/q'")
    return snapped


@dataclass(frozen=True)
class BiasVector:
    """Part-size biases alpha_1..alpha_r, each in (0,1), summing to 1
    exactly.

    Every entry is kept as a Fraction.  A 'p/q' string or a rational (int,
    Fraction, numpy integer) is taken as it is; a float, or any other finite
    real, is snapped to the nearest p/q with q <= 10**6 and refused unless
    that p/q is the same float.  So 0.2 and 1/3 become 1/5 and 1/3, and
    0.3333333 is refused.  A refused entry raises ValueError naming its
    position.
    """

    alpha: tuple

    def __post_init__(self):
        vals = tuple(_bias_entry(k, a) for k, a in enumerate(self.alpha))
        object.__setattr__(self, "alpha", vals)
        if len(vals) < 2:
            raise ValueError("need at least 2 parts")
        for a in vals:
            if not 0 < a < 1:
                raise ValueError(f"bias entries must lie in (0,1), got {a}")
        if sum(vals) != 1:
            raise ValueError(f"biases must sum to 1, got {sum(vals)}")

    @property
    def r(self) -> int:
        return len(self.alpha)

    def weights(self) -> list[int]:
        """Per-part move weights w_i proportional to 1/alpha_i: exact
        integers, scaled by the lcm of the numerators."""
        lcm = math.lcm(*(a.numerator for a in self.alpha))
        return [lcm * a.denominator // a.numerator for a in self.alpha]


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


def _subset_ids(subset, n: int) -> np.ndarray:
    """The sorted distinct vertex ids of subset, refused with a ValueError
    naming its first bad entry unless it is 1-D integer ids in [0, n)."""
    ids = np.asarray(subset)
    if ids.ndim != 1:
        raise ValueError(f"subset must be 1-D vertex ids, got shape {ids.shape}")
    if ids.dtype.kind in "iu":
        bad = (ids < 0) | (ids >= n)
    elif ids.dtype == object:  # python ints too large for int64, or no numbers
        bad = np.array([not isinstance(x, numbers.Integral) or isinstance(x, bool)
                        or not 0 <= x < n for x in ids.tolist()], dtype=bool)
    else:  # floats and bools are no vertex ids
        bad = np.ones(len(ids), dtype=bool)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"subset entry {k} is {ids.tolist()[k]!r}, "
                         f"not a vertex id in [0, {n})")
    return np.unique(ids.astype(np.int64))


def local_maxcut(graph: Graph, subset=None, seed: int = 0):
    """Flip local search for max-cut on G[S].

    Returns (plus_ids, minus_ids, flips).  At exit every x in S satisfies
    d_cross(x) >= d_own(x) within G[S] (exact integer comparison), hence
    d_cross(x) >= ceil(d_{G[S]}(x)/2).  Empty S returns two empty parts.  S
    must be 1-D integer vertex ids in [0, n); repeats are allowed.
    """
    if subset is None:
        ids = np.arange(graph.n, dtype=np.int64)
    else:
        ids = _subset_ids(subset, graph.n)
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

    Each entry is the searchsorted position of w_l * c among the costs
    w_q * 0, ..., w_q * maxdeg of the integer weights w, so the table decides
    exactly what a direct comparison of the costs decides; see the module
    docstring.
    """
    grid = np.arange(maxdeg + 1, dtype=np.int64)
    costs = _exact_array(w, maxdeg)[:, None] * grid[None, :]  # costs[q, c] = w_q * c
    r = len(w)
    thr = np.empty((r, r, maxdeg + 1), dtype=np.int64)
    for q in range(r):
        for l in range(r):
            if maximize:  # the last count whose cost does not beat w_l * c
                thr[q, l] = np.searchsorted(costs[q], costs[l], side="right") - 1
            else:  # the first count whose cost does not beat w_l * c
                thr[q, l] = np.searchsorted(costs[q], costs[l], side="left")
    return thr


def _word_layout(r: int, maxdeg: int):
    """Where the flip kernel keeps the neighbour counts of a vertex.

    Returns (bits, word, offset, shift): the count of part q is the field
    at bit offset[q] of word word[q], bits + 1 bits wide (the count in the
    low bits, the guard bit on top), and word 0 holds the key (label, own
    count) from bit shift up.  Words 0, 1, ... hold the parts in index
    order, each from bit 0 in field order; words 1, 2, ... are filled first
    and word 0 takes the parts that do not fit in them, so as few words are
    used as the fields need.  No word sets its top bit.
    """
    bits = maxdeg.bit_length()
    span = bits + 1
    cap = 63 // span
    cap0 = (63 - bits - (r - 1).bit_length()) // span
    others = -(-max(r - cap0, 0) // cap)  # words besides word 0
    in0 = max(r - others * cap, 0)  # parts 0..in0-1 sit in word 0
    word = [0 if q < in0 else 1 + (q - in0) // cap for q in range(r)]
    offset = [(q if q < in0 else (q - in0) % cap) * span for q in range(r)]
    return bits, word, offset, in0 * span


# A sweep runs the window of _WINDOW vertex ids that starts at its next
# candidate as one block when the window holds at least _DENSE candidates,
# and moves one vertex at a time otherwise; see the module docstring.  A
# window never holds more than _WINDOW candidates, so _DENSE > _WINDOW turns
# blocks off.
_WINDOW = 128
_DENSE = 16


def _flip_search(counts: Counts, w: list, maximize: bool = False):
    """Single-vertex moves on the labeling of ``counts`` (r = len(w) parts)
    until no vertex of a part with >= 2 vertices has a move that strictly
    improves f = sum_i w_i * e(U_i): down by default, up under maximize.

    ``counts`` is updated in place (labels, matrix and sizes).  Returns (f
    at the start, f at the end, moves), exact integers for the integer
    weights w.  See the module docstring for the packed count words, the bar
    table, why the candidate mask keeps the move sequence of a plain sweep
    over all vertices, and why a block keeps it too.
    """
    graph, labels, matrix = counts.graph, counts.labels, counts.matrix
    n, r = graph.n, len(w)
    window, dense = _WINDOW, _DENSE
    maxdeg = int(graph.degree.max(initial=0))
    bits, word, offset, shift = _word_layout(r, maxdeg)
    nw, span, lab_shift = max(word) + 1, bits + 1, shift + bits
    one, mask = 1 << bits, (1 << bits) - 1
    guard = [0] * nw
    for q in range(r):
        guard[word[q]] |= one << offset[q]
    # bar[k][l << bits | c]: per field of word k, 2**bits - 1 + thr (minus
    # thr under maximize) for a vertex of part l with c own neighbours
    thr = _move_thresholds(w, maxdeg, maximize)[:, :, np.minimum(np.arange(one), maxdeg)]
    thr[np.arange(r), np.arange(r)] = mask if maximize else 0  # never fires
    field = mask - thr if maximize else mask + thr
    bar = np.zeros((nw, r << bits), dtype=np.int64)
    for q in range(r):
        bar[word[q]] += (field[q] << offset[q]).reshape(-1)
    bars = list(bar)
    combine = np.add if maximize else np.subtract
    combine_py = operator.add if maximize else operator.sub

    words = np.zeros((nw, n), dtype=np.int64)
    for q in range(r):
        words[word[q]] += matrix[:, q] << offset[q]
    words[0] += ((labels << bits) + matrix[np.arange(n), labels]) << shift
    rows = list(words)
    below_key = (1 << shift) - 1

    # the scalar side reads a vertex as one python int y: part q's field at
    # bit q * span and the key from bit yshift up, so y is word 0 when nw == 1
    yshift = r * span
    ylab, yguard = yshift + bits, sum(one << q * span for q in range(r))
    lift = [word.index(k) * span for k in range(1, nw)]

    def join(cols):
        """The y of each vertex whose word k is listed in cols[k]."""
        ys = cols[0]
        if nw > 1:
            ys = [x & below_key | x >> shift << yshift for x in ys]
            for zs, s in zip(cols[1:], lift):
                ys = [y | z << s for y, z in zip(ys, zs)]
        return ys

    def load(a, b):
        """The y of each vertex a..b-1."""
        return join([row[a:b].tolist() for row in rows])

    # the bar of a key as y, a python int that may pass 63 bits over words:
    # joined on its first use, so only the keys the search meets are built
    bar_at = bars[0].item if nw == 1 else functools.cache(
        lambda key: join([[b.item(key)] for b in bars])[0])

    def fires(xs):
        """The guard bits that fire, per vertex, given each word of the
        vertices (xs[k] for word k)."""
        key = xs[0] >> shift
        hit = bars[0][key]
        combine(hit, xs[0], out=hit)
        hit &= guard[0]
        for k in range(1, nw):
            h = bars[k][key]
            combine(h, xs[k], out=h)
            h &= guard[k]
            hit |= h
        return hit

    # a move from i to j adds plan[i][j] to the words of the mover's
    # neighbours (to word 0 by the neighbour's label, to word k its constant),
    # step(i, j)[l] to the y of a neighbour labelled l, and in the block pass
    # delta[k][i * r + j] (the fields only, no key) to word k
    plan = [[None] * r for _ in range(r)]

    @functools.cache
    def step(i, j):
        return [(1 << j * span) - (1 << i * span) + ((l == j) - (l == i) << yshift)
                for l in range(r)]

    delta = np.zeros((nw, r * r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            d = delta[:, i * r + j]
            d[word[i]] -= 1 << offset[i]
            d[word[j]] += 1 << offset[j]
            by_label = np.full(r, d[0], dtype=np.int64)
            by_label[i] -= 1 << shift
            by_label[j] += 1 << shift
            plan[i][j] = by_label, [(k, int(d[k])) for k in range(1, nw) if d[k]]
    relabel = (np.arange(r * r) % r - np.arange(r * r) // r) << lab_shift
    # the field of part q of vertex v is flat[word_at[q] + v] >> offset_of[q]
    flat, word_at, offset_of = words.reshape(-1), np.array(word) * n, np.array(offset)
    seen = np.zeros(n, dtype=bool)

    tot = 0
    for j in range(r):
        tot += w[j] * int(matrix[labels == j, j].sum())
    f0 = f_cur = tot // 2
    sign = -1 if maximize else 1
    sizes = counts.sizes.tolist()
    degree, indptr, indices = graph.degree, graph.indptr.tolist(), graph.indices
    cand = fires(rows).astype(bool)

    def take(y):
        """The move of a vertex with joined counts y, booked in f and the
        sizes: (i, j, c_j), or None if it has none or would empty its part."""
        nonlocal f_cur
        key = y >> yshift
        i = key >> bits
        h = combine_py(bar_at(key), y) & yguard if sizes[i] >= 2 else 0
        if not h:
            return None
        j = ((h & -h).bit_length() - 1) // span
        c_i, c_j = key & mask, y >> j * span & mask
        f_new = f_cur + (w[j] * c_j - w[i] * c_i)
        # f must strictly improve in the chosen direction
        assert sign * (f_new - f_cur) < 0
        f_cur = f_new
        sizes[i] -= 1
        sizes[j] += 1
        return i, j, c_j

    def block(a, b):
        """Sweep the vertices a..b-1 on python ints, then apply their moves
        to the words and the mask in one pass.  Returns the moves made."""
        ys, due = load(a, b), cand[a:b].tolist()
        # the forward neighbours inside the window of each row, t = v - a
        nbs = indices[indptr[a]:indptr[b]]
        src = np.repeat(np.arange(a, b), degree[a:b])
        ahead = (nbs > src) & (nbs < b)
        fwd = (nbs[ahead] - a).tolist()
        ends = np.searchsorted(src[ahead], np.arange(a + 1, b + 1)).tolist()
        movers, codes = [], []
        lo = 0
        for t in range(b - a):
            hi = ends[t]
            if due[t] and (move := take(ys[t])):
                i, j, _ = move
                movers.append(a + t)
                codes.append(i * r + j)
                d = step(i, j)
                for s in fwd[lo:hi]:
                    ys[s] += d[ys[s] >> ylab]
                    due[s] = True  # recheck s when the sweep reaches it
            lo = hi
        if not movers:
            return 0
        mv, code = np.array(movers), np.array(codes)
        nb = indices[graph.row_entries(mv)]
        reps = degree[mv]
        for k in range(nw):
            np.add.at(rows[k], nb, np.repeat(delta[k][code], reps))
        rows[0][mv] += relabel[code]
        seen[nb] = True
        seen[mv] = True
        touched = np.flatnonzero(seen)
        seen[touched] = False
        # word 0's key from the final label and the field of that label
        xs = [row[touched] for row in rows]
        lab = xs[0] >> lab_shift
        own = flat[word_at[lab] + touched] >> offset_of[lab] & mask
        xs[0] = xs[0] & below_key | ((lab << bits) + own) << shift
        rows[0][touched] = xs[0]
        cand[touched] = fires(xs).astype(bool)
        return len(movers)

    moves = 0
    moved = True
    while moved:
        moved = False
        v = -1
        while v + 1 < n:
            rest = cand[v + 1:]
            skip = int(rest.argmax())
            if not rest[skip]:
                break
            v += 1 + skip
            if np.count_nonzero(cand[v:v + window]) >= dense:
                b = min(v + window, n)
                made = block(v, b)
                moves += made
                moved = moved or made > 0
                v = b - 1
                continue
            y = rows[0].item(v) if nw == 1 else load(v, v + 1)[0]
            move = take(y)
            if move is None:
                continue  # the move would empty the part
            i, j, c_j = move
            key = j << bits | c_j
            rows[0][v] = y & below_key | key << shift
            nb = indices[indptr[v]:indptr[v + 1]]
            by_label, rest_words = plan[i][j]
            xs = [row[nb] for row in rows]
            xs[0] += by_label[xs[0] >> lab_shift]
            rows[0][nb] = xs[0]
            for k, d in rest_words:
                xs[k] += d
                rows[k][nb] = xs[k]
            cand[nb] = fires(xs).astype(bool)
            cand[v] = combine_py(bar_at(key), y) & yguard != 0  # v's counts are unchanged
            moves += 1
            moved = True
    labels[:] = rows[0] >> lab_shift
    for q in range(r):
        np.bitwise_and(rows[word[q]] >> offset[q], mask, out=matrix[:, q])
    counts.sizes[:] = sizes
    return f0, f_cur, moves


@dataclass
class RCutResult:
    """A biased max-r-cut local optimum: its ``graph.Counts`` (labels, the
    neighbour counts and the part sizes), the integer objective at the start
    and end, and the moves made."""

    counts: Counts
    objective_start: int
    objective_end: int
    moves: int

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
    return RCutResult(counts, f0, f_end, moves)


def check_biased_local_min(counts: Counts, bias: BiasVector,
                           maximize: bool = False) -> list[tuple]:
    """Violations of the ratio inequalities at a claimed local optimum,
    read from the neighbour counts of its labeling.

    For each x in U_i with |U_i| >= 2 and each j != i, checks
    alpha_j * d_{U_i}(x) <= alpha_i * d_{U_j}(x) (reversed under maximize),
    exactly, as integers scaled by the lcm of the denominators.  Returns a
    list of (vertex, i, j, d_i, d_j) violations in vertex, then j, order;
    empty means certified.
    """
    graph, labels, matrix = counts.graph, counts.labels, counts.matrix
    d_own = matrix[np.arange(graph.n), labels]
    scale = math.lcm(*(a.denominator for a in bias.alpha))
    alpha = _exact_array([int(a * scale) for a in bias.alpha],
                         int(graph.degree.max(initial=0)))
    lhs = alpha[None, :] * d_own[:, None]  # alpha_j * d_i
    rhs = alpha[labels][:, None] * matrix  # alpha_i * d_j
    ok = lhs >= rhs if maximize else lhs <= rhs
    bad = ~ok & (counts.sizes[labels] >= 2)[:, None]
    bad[np.arange(graph.n), labels] = False
    vs, js = np.nonzero(bad)
    return list(zip(vs.tolist(), labels[vs].tolist(), js.tolist(),
                    d_own[vs].tolist(), matrix[vs, js].tolist()))
