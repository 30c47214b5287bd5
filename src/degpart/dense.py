r"""Greedy dense-subgraph extraction with a deletion-budget certificate.

Inside a host vertex set H, each vertex v carries an integer target a_v
(0 means unclassed) and, when classed (a_v >= 1), a slack eta_v > 0.
Iteratively delete any classed vertex whose degree inside the surviving set
falls below its target.  The surviving set is the unique maximal S with
d_S(v) >= a_v for every classed v in S (the constraint is monotone in S, so
deletion order is irrelevant), and the number of deletions obeys the budget
chain

    |deleted| <= sum of a_v over the deleted classed v
              <= (1 + 1/eta) * sum of a_v over the classed v outside A+,

where A+ = {v classed : d_H(v) >= 2*(1+eta_v)*a_v} and eta = min eta_v over
the classed vertices.  The budget chain holds on every run; when
additionally the key condition (1 + 1/eta) * sum_{v not in A+} a_v < |V(H)|
holds at entry, the surviving set is guaranteed non-empty.

The lemma groups the classed vertices into classes A_i that share a target
a_i and a slack eta_i, but every quantity it uses is a sum of a_v or a
minimum of eta_v over vertices, so the grouping carries no information and
is not stored: the per-vertex target and slack arrays are the one input
format, and the refinements pass their table columns straight in.

The host is named by the parts of a counted labeling (``graph.Counts``):
one part p gives H = G[p], two parts p, q the bipartite graph between them.
A host vertex's degree in H is its count toward its partner part (p for
one part; the other of p, q for two), so the extraction reads it from the
count matrix and peels on the full adjacency, decrementing a neighbour only
when it is alive and labelled with the deleted vertex's partner part.  No
subgraph is built.  A caller holding a bare vertex set counts a two-part
labeling with the set as part 0 and passes ``(0,)``.

The peel runs in rounds (Batagelj & Zaveršnik 2003; Dhulipala, Blelloch &
Shun 2017): every alive classed vertex below its target goes at once, its
alive neighbours in H are decremented, and the next round examines only
the touched vertices.  A deletion is recorded as (vertex, degree at the
start of its round), in ascending id within a round.

A+ is decided per vertex in float64: x^ = fl(2a * fl(1 + e)) against the
exact x = 2a(1 + eta_v).  Degrees and 2a are integers below 2**53, hence
exact, and each rounding is a factor (1 + delta), |delta| <= u = 2**-53.  A
float slack e = eta_v gives x^ = x(1 + delta1)(1 + delta2), so |x^ - x| <=
(2u + u^2)x; a Fraction slack is rounded first, e = eta_v(1 + delta0),
which moves 1 + e by at most u(1 + eta_v), so |x^ - x| <= (3u + 3u^2 +
u^3)x.  A degree whose computed distance from x^ exceeds 8u*x^ thus lies on
the same side of x as of x^; one within it is decided exactly as
deg*q < 2a(q + p) for eta_v = p/q.  A slack above 2**53 is capped there
before the float conversion, which it could overflow: with a >= 1 the
capped threshold is still above every degree and far outside the band, so
the vertex is below it, as it is below its exact threshold.  The budget
bound (1 + 1/eta) * deficit is one exact Fraction, so the certificate
never depends on float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Counts

# margin of the float A+ test: 8u, above its 3u forward-error bound
_NEAR = 8 * 2.0 ** -53
# cap of a slack: the A+ threshold 2a(1 + eta) is then above every degree
_HUGE = 2.0 ** 53


@dataclass(frozen=True)
class KeyCondition:
    lhs: float
    rhs: int
    satisfied: bool
    deficit: int  # sum of a_v over the classed v outside A+


@dataclass(frozen=True)
class BudgetChain:
    """The three quantities of the deletion budget, in chain order."""

    deleted_count: int
    weighted_deficit: int  # sum of a_v over the deleted classed v
    bound: float           # (1 + 1/eta) * sum of a_v over classed v outside A+

    def holds(self) -> bool:
        return self.deleted_count <= self.weighted_deficit and \
            self.weighted_deficit <= self.bound


@dataclass
class ExtractResult:
    surviving: np.ndarray
    deleted: list  # (vertex, degree at the start of its round), round by round
    budget: BudgetChain
    guaranteed: bool  # key condition held at entry
    rounds: int  # peel rounds that deleted a vertex

    @property
    def deleted_vertices(self) -> np.ndarray:
        return np.array([v for v, _ in self.deleted], dtype=np.int64)


def _key_condition(counts: Counts, parts, target, eta):
    """(alive host mask, partner part per vertex, targets, host degrees,
    classed ids, condition, exact lhs): host degrees are read from the count
    columns, and the exact lhs is the budget bound."""
    r = counts.matrix.shape[1]
    parts = tuple(parts)
    if not (1 <= len(parts) <= 2 and len(set(parts)) == len(parts)
            and all(isinstance(p, (int, np.integer)) and 0 <= p < r for p in parts)):
        raise ValueError(f"parts must be one or two distinct parts of [0, {r}), "
                         f"got {parts}")
    lab = counts.labels
    mask = (lab == parts[0]) | (lab == parts[-1])
    # H = G[part] for one part, the bipartite graph between two parts for two
    partner_of = np.arange(r)
    partner_of[parts[0]], partner_of[parts[-1]] = parts[-1], parts[0]
    partner = partner_of[lab]
    deg = counts.matrix[np.arange(len(lab)), partner]
    target = np.asarray(target, dtype=np.int64)
    eta = np.asarray(eta)
    classed = np.flatnonzero(target >= 1)
    if (target < 0).any() or not mask[classed].all():
        raise ValueError("targets must be >= 0, and positive only on host vertices")
    if not (eta[classed] > 0).all():
        raise ValueError("every classed vertex needs a positive slack eta")
    lhs, deficit = Fraction(0), 0
    if len(classed):
        a, e, d = target[classed], eta[classed], deg[classed]
        x = 2.0 * a * (1.0 + np.minimum(e, _HUGE).astype(np.float64))
        below = d < x
        for i in np.flatnonzero(np.abs(d - x) <= _NEAR * x).tolist():
            p, q = Fraction(e[i]).as_integer_ratio()
            below[i] = int(d[i]) * q < 2 * int(a[i]) * (q + p)
        deficit = int(a[below].sum())
        lhs = (1 + 1 / Fraction(e.min())) * deficit
    rhs = int(counts.sizes[list(parts)].sum())
    cond = KeyCondition(float(lhs), rhs, lhs < rhs, deficit)
    return mask, partner, target, deg, classed, cond, lhs


def check_key_condition(counts: Counts, parts, target, eta) -> KeyCondition:
    """lhs = (1 + 1/eta) * sum of a_v over classed v outside A+ vs rhs = |V(H)|.

    counts is a labeling's ``graph.Counts``.  parts names the host H: one
    part p gives H = G[p], two parts p, q the bipartite graph between them.
    target and eta are per-vertex arrays over all of V (target 0: unclassed,
    positive only on vertices of the parts; eta float or Fraction).
    """
    return _key_condition(counts, parts, target, eta)[5]


def extract_dense(counts: Counts, parts, target, eta) -> ExtractResult:
    """Run the round-synchronous peel to its fixed point.

    counts, parts, target and eta as in ``check_key_condition``; the
    extraction reads the counts and leaves them unchanged.  The key
    condition is checked at entry; if it fails the extraction still runs but
    the result is flagged guaranteed=False.
    """
    alive, partner, target, deg, classed, cond, bound_exact = \
        _key_condition(counts, parts, target, eta)
    graph, lab = counts.graph, counts.labels
    # unclassed vertices have target 0, which a count never falls below
    peel = classed[deg[classed] < target[classed]]
    gone, degs = [], []
    while len(peel):
        gone.append(peel)
        degs.append(deg[peel])
        alive[peel] = False
        # the neighbours in H that are still alive, once per deleted neighbour
        nb = graph.indices[graph.row_entries(peel)]
        nb = nb[alive[nb] & (lab[nb] == np.repeat(partner[peel], graph.degree[peel]))]
        touched, hits = np.unique(nb, return_counts=True)
        deg[touched] -= hits
        peel = touched[deg[touched] < target[touched]]
    deleted = list(zip(np.concatenate(gone).tolist(), np.concatenate(degs).tolist())) \
        if gone else []

    surviving = np.nonzero(alive)[0]
    weighted_deficit = int(target[classed][~alive[classed]].sum())
    budget = BudgetChain(len(deleted), weighted_deficit, float(bound_exact))

    # item (b) chain must hold on every run, key condition or not
    assert budget.deleted_count <= budget.weighted_deficit, \
        "deletion count exceeds weighted deficit"
    assert Fraction(budget.weighted_deficit) <= bound_exact, \
        "weighted deficit exceeds the (1 + 1/eta) bound"
    if cond.satisfied and len(surviving) == 0:
        raise AssertionError(
            "surviving set empty although the key condition held; "
            "this indicates a bug in the deletion schedule")
    return ExtractResult(surviving, deleted, budget, cond.satisfied, len(gone))
