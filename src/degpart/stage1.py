"""Stage one: randomized tripartition plus bad-vertex relocation.

Each attempt places every vertex independently into parts A, B, C with
probabilities ((1-c)/2 - eps, (1-c)/2 - eps, c + 2*eps), then moves every
vertex of C that is not both A-good and B-good into A or B (balancing the two
sides).  The result is validated deterministically:

  (1a) |A| and |B| lie in a size window (default
       [(1-c)/2 - 1.1*eps, (1-c)/2 - 0.9*eps] * n),
  (1b) every active vertex remaining in C is both A-good and B-good
       (true by construction, re-checked anyway), and
  (1c) the relocation weight W = sum over active bad vertices of their
       degrees stays under a budget (default eps^2*n/1e4 internal,
       (1-c)*eps^2*n/1e4 external).

Attempts repeat with derived seeds until all three hold or the budget runs
out; validation is deterministic, so retrying is sound.  A vertex is S-good
when its degree into S reaches floor of the mode's goodness threshold for its
total degree; inactive vertices are unconstrained and never counted bad.

Each attempt is counted once into a ``graph.Counts``: ``goodness_map`` reads
it, ``relocate_bad_from_c`` moves through it, and the result hands it on.
The result's ``log`` holds one record per attempt (its sizes, weight and
violated properties), and the pipelines carry it into the report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .graph import Counts, Graph
from .thresholds import EXTERNAL, INTERNAL, ParamSet, ThresholdTable

PART_A, PART_B, PART_C = 0, 1, 2


def tripartition_probabilities(params: ParamSet) -> tuple[float, float, float]:
    p_side = (1.0 - params.c) / 2.0 - params.eps
    p_c = params.c + 2.0 * params.eps
    if p_side <= 0.0:
        raise ValueError(
            f"placement probability (1-c)/2 - eps = {p_side} must be positive; "
            "boundary parameters are rejected")
    if not 0.0 <= p_c <= 1.0:
        raise ValueError(f"probability c + 2*eps = {p_c} outside [0,1]")
    return p_side, p_side, p_c


@dataclass
class GoodnessMap:
    """Per-vertex A-/B-goodness flags and the relocation weight aggregate.

    good_a[v] is True when v is inactive (unconstrained) or d_A(v) reaches the
    floored goodness threshold for d_G(v); same for good_b.  weight is
    W = sum of d_G(v) over active vertices failing (good_a and good_b).
    """

    good_a: np.ndarray
    good_b: np.ndarray
    active: np.ndarray
    weight: int

    @property
    def both_good(self) -> np.ndarray:
        return self.good_a & self.good_b


def goodness_map(counts: Counts, table: ThresholdTable) -> GoodnessMap:
    """Goodness of every vertex of a counted labeling against parts A and B."""
    graph = counts.graph
    active = table.column("active", graph)
    thr = table.column("fthr_int" if table.params.mode == INTERNAL else "fthr_ext",
                       graph)
    good_a = ~active | (counts.matrix[:, PART_A] >= thr)
    good_b = ~active | (counts.matrix[:, PART_B] >= thr)
    bad = active & ~(good_a & good_b)
    weight = int(graph.degree[bad].sum())
    return GoodnessMap(good_a, good_b, active, weight)


def balancing_sides(size_a: int, size_b: int, k: int) -> np.ndarray:
    """Sides of k vertices placed one by one on the currently smaller of A
    and B (ties to A): the gap closes first, then they alternate A, B."""
    gap = size_b - size_a
    step = np.arange(k)
    return np.where(step < abs(gap), PART_A if gap >= 0 else PART_B,
                    (step - abs(gap)) % 2)


def relocate_bad_from_c(counts: Counts, gm: GoodnessMap) -> None:
    """Move every not-both-good vertex of C into A or B, balancing sizes.

    Movers are processed in ascending id; each goes to the currently smaller
    side (ties to A).  Goodness never decreases: A and B only grow.
    """
    movers = np.flatnonzero((counts.labels == PART_C) & ~gm.both_good)
    counts.move(movers, balancing_sides(int(counts.sizes[PART_A]),
                                        int(counts.sizes[PART_B]), len(movers)))


def default_size_window(params: ParamSet, n: int) -> tuple[float, float]:
    # rounded outward: the real-valued window has width eps*n/5 and would
    # contain no integer at all on small instances
    half = (1.0 - params.c) / 2.0
    return (math.floor((half - 1.1 * params.eps) * n),
            math.ceil((half - 0.9 * params.eps) * n))


def default_weight_budget(params: ParamSet, n: int) -> float:
    if params.mode == EXTERNAL:
        return (1.0 - params.c) * params.eps ** 2 * n / 1e4
    return params.eps ** 2 * n / 1e4


VACUOUS = "vacuous"


@dataclass
class StageOneResult:
    """Outcome of the randomized stage (best attempt if not ok); log holds
    one {"attempt", "sizes", "weight", "violated"} record per attempt run."""

    ok: bool
    labels: np.ndarray
    sizes: tuple[int, int, int]
    weight: int
    violated: list[str] = field(default_factory=list)
    log: list[dict] = field(default_factory=list)
    counts: Counts | None = None  # the maintained counts of labels

    @property
    def attempts(self) -> int:
        return len(self.log)


def _real(x, finite: bool = False) -> bool:
    """A real number and no bool; with finite, no infinity either.  NaN is
    never one.  A rational (int or Fraction) is finite at any size."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    return isinstance(x, numbers.Rational) or \
        (math.isfinite(x) if finite else not math.isnan(x))


def window_bounds(window) -> tuple[tuple, tuple]:
    """((loA, hiA), (loB, hiB)) of a size window: (lo, hi) applies to both
    sides, ((loA, hiA), (loB, hiB)) is asymmetric.  Anything other than such
    pairs of finite reals raises ValueError naming the window."""
    def pair(w) -> bool:
        return (isinstance(w, (tuple, list)) and len(w) == 2
                and all(_real(x, finite=True) for x in w))
    if pair(window):
        return tuple(window), tuple(window)
    if isinstance(window, (tuple, list)) and len(window) == 2 \
            and all(pair(w) for w in window):
        return tuple(window[0]), tuple(window[1])
    raise ValueError(f"size_window must be 'vacuous', (lo, hi) or "
                     f"((loA, hiA), (loB, hiB)) of finite reals, got {window!r}")


def stage_one(graph: Graph, params: ParamSet, table: ThresholdTable,
              seed: int = 0, attempts: int = 64,
              size_window=None, weight_budget=None) -> StageOneResult:
    """Retry random tripartitions until (1a)-(1c) hold under the windows.

    size_window/weight_budget default to the values in the module docstring;
    pass the string "vacuous" for (0, n) and infinity.  A size window is
    (lo, hi) for both sides or ((loA, hiA), (loB, hiB)), of finite reals, and
    a budget is a number; anything else raises ValueError, and so does an
    ``attempts`` that is not an integer >= 1 (a bool is refused too).  On
    failure the best attempt (fewest violations, then smallest weight) is
    returned.  Either way the result's log records every attempt run.
    """
    if not isinstance(attempts, numbers.Integral) or isinstance(attempts, bool) \
            or attempts < 1:
        raise ValueError(f"attempts must be an integer >= 1, got {attempts!r}")
    if size_window is None:
        size_window = default_size_window(params, graph.n)
    elif isinstance(size_window, str) and size_window == VACUOUS:
        size_window = (0.0, float(graph.n))
    if weight_budget is None:
        weight_budget = default_weight_budget(params, graph.n)
    elif isinstance(weight_budget, str) and weight_budget == VACUOUS:
        weight_budget = math.inf
    elif not _real(weight_budget):
        raise ValueError(f"weight_budget must be 'vacuous' or a number, "
                         f"got {weight_budget!r}")
    (lo_a, hi_a), (lo_b, hi_b) = window_bounds(size_window)
    log: list[dict] = []
    best: StageOneResult | None = None
    for t in range(attempts):
        # one count per attempt; the relocation moves vertices through it
        counts = Counts(graph, random_tripartition_attempt(graph, params, seed, t), 3)
        relocate_bad_from_c(counts, goodness_map(counts, table))
        labels = counts.labels
        gm2 = goodness_map(counts, table)
        sizes = tuple(int(s) for s in counts.sizes)
        violated = []
        if not (lo_a <= sizes[PART_A] <= hi_a and lo_b <= sizes[PART_B] <= hi_b):
            violated.append("size")
        in_c = labels == PART_C
        if bool((in_c & gm2.active & ~gm2.both_good).any()):
            violated.append("goodness")
        if gm2.weight > weight_budget:
            violated.append("weight")
        log.append({"attempt": t, "sizes": list(sizes), "weight": gm2.weight,
                    "violated": violated})
        res = StageOneResult(not violated, labels, sizes, gm2.weight, violated,
                             log, counts)
        if res.ok:
            return res
        if best is None or (len(res.violated), res.weight) < (len(best.violated), best.weight):
            best = res
    return best


def random_tripartition_attempt(graph: Graph, params: ParamSet,
                                seed: int, attempt: int) -> np.ndarray:
    """Placement for one attempt; distinct attempts use derived seeds."""
    probs = tripartition_probabilities(params)
    rng = np.random.default_rng([seed, attempt])
    return rng.choice(3, size=graph.n, p=probs).astype(np.int64)
