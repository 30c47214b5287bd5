r"""Greedy dense-subgraph extraction with a deletion-budget certificate.

Given disjoint vertex classes A_i inside a host graph H, each with an
integer target a_i >= 1 and a slack eta_i > 0, iteratively delete any classed
vertex whose degree inside the surviving set falls below its target.  The
surviving set is the unique maximal S with d_S(v) >= a_i for every classed
v in S (the constraint is monotone in S, so deletion order is irrelevant),
and the number of deletions obeys the budget chain

    |deleted| <= sum_i a_i*|A_i \ surviving|
              <= (1 + 1/eta) * sum_i a_i*|A_i \ A_i+|,

where A_i+ = {v in A_i : d_H(v) >= 2*(1+eta_i)*a_i} and eta = min_i eta_i.
The budget chain holds on every run; when additionally the key condition
(1 + 1/eta) * sum_i a_i*|A_i \ A_i+| < |V(H)| holds at entry, the surviving
set is guaranteed non-empty.

Threshold comparisons for A_i+ and the budget bound run in exact rational
arithmetic (integer degrees against Fraction thresholds), so the certificate
never depends on float rounding.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class DegreeClass:
    """One class: a vertex set, its integer degree target, and its slack."""

    vertices: np.ndarray
    target: int
    eta: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           np.unique(np.asarray(self.vertices, dtype=np.int64)))
        if int(self.target) != self.target or self.target < 1:
            raise ValueError(f"class target must be an integer >= 1, got {self.target}")
        if self.eta <= 0:
            raise ValueError(f"class slack eta must be positive, got {self.eta}")

    @property
    def eta_exact(self) -> Fraction:
        return self.eta if isinstance(self.eta, Fraction) else Fraction(self.eta)


@dataclass(frozen=True)
class ClassFamily:
    """Disjoint classes over a host vertex set (host=None means all of V)."""

    classes: tuple
    host: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.host is not None:
            object.__setattr__(self, "host",
                               np.unique(np.asarray(self.host, dtype=np.int64)))
        seen: set[int] = set()
        for cl in self.classes:
            vs = set(cl.vertices.tolist())
            if vs & seen:
                raise ValueError("classes must be pairwise disjoint")
            seen |= vs
        if self.host is not None and self.classes:
            hostset = set(self.host.tolist())
            if not seen <= hostset:
                raise ValueError("classed vertices must lie inside the host set")

    def host_mask(self, n: int) -> np.ndarray:
        if self.host is None:
            return np.ones(n, dtype=bool)
        mask = np.zeros(n, dtype=bool)
        mask[self.host] = True
        return mask

    @property
    def eta_min(self) -> Fraction:
        if not self.classes:
            raise ValueError("eta_min of an empty family")
        return min(cl.eta_exact for cl in self.classes)


@dataclass(frozen=True)
class KeyCondition:
    lhs: float
    rhs: int
    satisfied: bool
    deficits: tuple  # per-class |A_i \ A_i+|


@dataclass(frozen=True)
class BudgetChain:
    """The three quantities of the deletion budget, in chain order."""

    deleted_count: int
    weighted_deficit: int  # sum_i a_i * |A_i \ surviving|
    bound: float           # (1 + 1/eta) * sum_i a_i * |A_i \ A_i+|

    def holds(self) -> bool:
        return self.deleted_count <= self.weighted_deficit and \
            self.weighted_deficit <= self.bound


@dataclass
class ExtractResult:
    surviving: np.ndarray
    deleted: list  # (vertex, class index, degree at deletion) in order
    budget: BudgetChain
    guaranteed: bool  # key condition held at entry

    @property
    def deleted_vertices(self) -> np.ndarray:
        return np.array([v for v, _, _ in self.deleted], dtype=np.int64)


def _host_degrees(graph: Graph, host_mask: np.ndarray) -> np.ndarray:
    """Degrees counted inside the host set, zero outside it."""
    both = host_mask[graph.rows] & host_mask[graph.indices]
    return np.bincount(graph.rows[both], minlength=graph.n)


def compute_a_plus(graph: Graph, family: ClassFamily) -> list[np.ndarray]:
    """Per-class A_i+ = {v in A_i : d_H(v) >= 2*(1+eta_i)*a_i}.

    The threshold is compared exactly (integer degree vs rational threshold),
    because flooring it would admit vertices that break the budget chain.
    """
    mask = family.host_mask(graph.n)
    deg = _host_degrees(graph, mask)
    out = []
    for cl in family.classes:
        thr = 2 * (1 + cl.eta_exact) * int(cl.target)
        # integer d >= rational thr  <=>  d >= ceil(thr)
        need = -((-thr.numerator) // thr.denominator)
        out.append(cl.vertices[deg[cl.vertices] >= need])
    return out


def check_key_condition(graph: Graph, family: ClassFamily) -> KeyCondition:
    """lhs = (1 + 1/eta) * sum_i a_i*|A_i \\ A_i+| vs rhs = |V(H)|."""
    mask = family.host_mask(graph.n)
    rhs = int(mask.sum())
    if not family.classes:
        return KeyCondition(0.0, rhs, 0 < rhs, ())
    pluses = compute_a_plus(graph, family)
    deficits = tuple(len(cl.vertices) - len(ap)
                     for cl, ap in zip(family.classes, pluses))
    s = sum(int(cl.target) * d for cl, d in zip(family.classes, deficits))
    lhs_exact = (1 + 1 / family.eta_min) * s
    return KeyCondition(float(lhs_exact), rhs, lhs_exact < rhs, deficits)


def extract_dense(graph: Graph, family: ClassFamily,
                  order_seed: int | None = None) -> ExtractResult:
    """Run the greedy deletion to its fixed point.

    order_seed randomizes the deletion schedule (the surviving set is the
    same for every order); None processes a FIFO queue in ascending-id order.
    The key condition is checked at entry; if it fails the extraction still
    runs but the result is flagged guaranteed=False.
    """
    cond = check_key_condition(graph, family)
    mask = family.host_mask(graph.n)
    alive = mask.copy()
    deg = _host_degrees(graph, mask)

    class_of = np.full(graph.n, -1, dtype=np.int64)
    target_of = np.zeros(graph.n, dtype=np.int64)
    for ci, cl in enumerate(family.classes):
        class_of[cl.vertices] = ci
        target_of[cl.vertices] = cl.target

    classed = np.nonzero((class_of >= 0) & alive)[0]
    deficient = classed[deg[classed] < target_of[classed]]

    rng = None if order_seed is None else np.random.default_rng(order_seed)
    if rng is None:
        queue = deque(deficient.tolist())
        push = queue.append
        pop = queue.popleft
        empty = lambda: not queue
    else:
        heap: list = []
        counter = 0
        for v in deficient.tolist():
            heapq.heappush(heap, (rng.random(), counter, v))
            counter += 1

        def push(v, _h=heap):
            nonlocal counter
            heapq.heappush(_h, (rng.random(), counter, v))
            counter += 1

        pop = lambda: heapq.heappop(heap)[2]
        empty = lambda: not heap

    deleted: list[tuple[int, int, int]] = []
    while not empty():
        v = pop()
        if not alive[v] or deg[v] >= target_of[v]:
            continue  # stale entry
        alive[v] = False
        deleted.append((int(v), int(class_of[v]), int(deg[v])))
        for w in graph.neighbors(v).tolist():
            if alive[w]:
                deg[w] -= 1
                if class_of[w] >= 0 and deg[w] < target_of[w]:
                    push(w)

    surviving = np.nonzero(alive)[0]
    # budget chain quantities
    weighted_deficit = 0
    for ci, cl in enumerate(family.classes):
        gone = int((~alive[cl.vertices]).sum())
        weighted_deficit += int(cl.target) * gone
    if family.classes:
        s = sum(int(cl.target) * d
                for cl, d in zip(family.classes, cond.deficits))
        bound_exact = (1 + 1 / family.eta_min) * s
    else:
        bound_exact = Fraction(0)
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
    return ExtractResult(surviving, deleted, budget, cond.satisfied)
