import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degpart import dense
from degpart.dense import BudgetChain
from degpart.gen import gen_complete_bipartite
from degpart.graph import Counts, Graph

from conftest import complete_graph, graphs


# -- the class-based reference -------------------------------------------------
#
# The extraction as it stood when the lemma's classes A_i were stored: one
# DegreeClass per (vertex set, target, slack), validated by ClassFamily.  The
# per-vertex functions of ``degpart.dense`` must give the same surviving
# set, deleted set, budget chain and key condition.


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


@dataclass
class ExtractResult:
    surviving: np.ndarray
    deleted: list  # (vertex, class index, degree at deletion) in order
    budget: BudgetChain
    guaranteed: bool  # key condition held at entry


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


# -- the graph-level reference ----------------------------------------------------
#
# The per-vertex extraction as it stood when it took a graph and a host id
# set: host degrees counted by a mask over every CSR entry, the peel run on
# the graph it was given (for a cross host, the subgraph of cross edges).
# ``dense.extract_dense`` on a labeling's counts must give the same
# surviving set, deleted set, budget chain and key condition.


def fraction_key_condition(deg, target, eta, classed, rhs):
    """(condition, exact lhs) with one Fraction threshold per distinct
    (a_v, eta_v) pair: d_H(v) >= ceil(2*a_v*(q+p)/q) for eta_v = p/q."""
    lhs, deficit = Fraction(0), 0
    if len(classed):
        a, e = target[classed], eta[classed]
        a_vals, a_id = np.unique(a, return_inverse=True)
        _, e_id = np.unique(e, return_inverse=True)
        _, first, inv = np.unique(e_id.ravel() * len(a_vals) + a_id.ravel(),
                                  return_index=True, return_inverse=True)
        ratios = [(int(a[i]), *Fraction(e[i]).as_integer_ratio()) for i in first.tolist()]
        need = [-(-2 * ai * (q + p) // q) for ai, p, q in ratios]
        deficit = int(a[deg[classed] < np.array(need, dtype=np.int64)[inv.ravel()]].sum())
        lhs = (1 + 1 / Fraction(e.min())) * deficit
    return dense.KeyCondition(float(lhs), rhs, lhs < rhs, deficit), lhs


def graph_key_condition(graph: Graph, host, target, eta):
    mask = np.zeros(graph.n, dtype=bool)
    mask[np.asarray(host, dtype=np.int64)] = True
    target = np.asarray(target, dtype=np.int64)
    eta = np.asarray(eta)
    classed = np.flatnonzero(target >= 1)
    both = mask[graph.rows] & mask[graph.indices]
    deg = np.bincount(graph.rows[both], minlength=graph.n)
    cond, lhs = fraction_key_condition(deg, target, eta, classed, int(mask.sum()))
    return mask, target, deg, classed, cond, lhs


def graph_extract_dense(graph: Graph, host, target, eta, order_seed=None):
    alive, target, deg, classed, cond, bound_exact = \
        graph_key_condition(graph, host, target, eta)
    rng = None if order_seed is None else np.random.default_rng(order_seed)
    heap: list = []
    pushes = itertools.count()

    def push(v):
        heapq.heappush(heap, (0.0 if rng is None else rng.random(), next(pushes), v))

    for v in classed[deg[classed] < target[classed]].tolist():
        push(v)
    deleted = []
    while heap:
        v = heapq.heappop(heap)[2]
        if not alive[v] or deg[v] >= target[v]:
            continue
        alive[v] = False
        deleted.append((int(v), int(deg[v])))
        for w in graph.neighbors(v).tolist():
            if alive[w]:
                deg[w] -= 1
                if deg[w] < target[w]:
                    push(w)
    weighted_deficit = int(target[classed][~alive[classed]].sum())
    budget = BudgetChain(len(deleted), weighted_deficit, float(bound_exact))
    return dense.ExtractResult(np.nonzero(alive)[0], deleted, budget, cond.satisfied,
                               len(deleted))


# -- the heap reference -----------------------------------------------------------
#
# The extraction on a labeling's counts as it stood before the rounds: the
# Fraction A+ test above and one deletion at a time off a heap, keyed 0.0
# (FIFO in ascending-id push order) or by a seeded random draw.  The rounds
# must reach the same surviving set, deleted set, budget chain and key
# condition under every order.


def heap_extract_dense(counts: Counts, parts, target, eta, order_seed=None):
    graph, lab = counts.graph, counts.labels
    r = counts.matrix.shape[1]
    alive = np.isin(lab, parts)
    partner_of = np.arange(r)
    partner_of[parts[0]], partner_of[parts[-1]] = parts[-1], parts[0]
    partner = partner_of[lab]
    deg = counts.matrix[np.arange(len(lab)), partner]
    target = np.asarray(target, dtype=np.int64)
    eta = np.asarray(eta)
    classed = np.flatnonzero(target >= 1)
    cond, bound_exact = fraction_key_condition(
        deg, target, eta, classed, int(counts.sizes[list(parts)].sum()))
    rng = None if order_seed is None else np.random.default_rng(order_seed)
    heap: list = []
    pushes = itertools.count()

    def push(v):
        heapq.heappush(heap, (0.0 if rng is None else rng.random(), next(pushes), v))

    for v in classed[deg[classed] < target[classed]].tolist():
        push(v)
    deleted = []
    while heap:
        v = heapq.heappop(heap)[2]
        if not alive[v] or deg[v] >= target[v]:
            continue  # stale entry
        alive[v] = False
        deleted.append((v, int(deg[v])))
        nb = graph.neighbors(v)
        nb = nb[alive[nb] & (lab[nb] == partner[v])]
        deg[nb] -= 1
        for w in nb[deg[nb] < target[nb]].tolist():
            push(w)
    weighted_deficit = int(target[classed][~alive[classed]].sum())
    budget = BudgetChain(len(deleted), weighted_deficit, float(bound_exact))
    return dense.ExtractResult(np.nonzero(alive)[0], deleted, budget, cond.satisfied,
                               len(deleted)), cond


def assert_same_fixed_point(got, want, target):
    """The rounds against a one-at-a-time reference: the same surviving set,
    deleted set, budget chain and flag; the schedules differ by design, so
    each recorded degree need only be below its vertex's target."""
    assert got.surviving.tolist() == want.surviving.tolist()
    assert sorted(v for v, _ in got.deleted) == sorted(v for v, *_ in want.deleted)
    assert got.budget == want.budget and got.guaranteed == want.guaranteed
    assert all(d < target[v] for v, d in got.deleted)


# -- per-vertex inputs ---------------------------------------------------------


def host_counts(graph, host=None) -> Counts:
    """The two-part labeling with the host (all of V when None) as part 0."""
    labels = np.zeros(graph.n, dtype=np.int64)
    if host is not None:
        labels[:] = 1
        labels[np.asarray(host, dtype=np.int64)] = 0
    return Counts(graph, labels, 2)


def arrays(graph, *classes, host=None):
    """(counts, parts, target, eta) of disjoint classes (vertices, a, eta) on
    the host as part 0 of a two-part labeling.

    Unclassed vertices get target 0; eta is float64 when every slack is a
    float and an object array as soon as one is a Fraction.
    """
    target = np.zeros(graph.n, dtype=np.int64)
    eta = [0.0] * graph.n
    for vs, a, e in classes:
        for v in vs:
            target[v], eta[v] = a, e
    return host_counts(graph, host), (0,), target, np.array(eta)


def test_a_plus_complete_graph():
    # deficit = |A \ A+| at a = 1: A+ is all of K5 (degree 4 >= 2*(1+1)*1)
    k5 = complete_graph(5)
    cond = dense.check_key_condition(*arrays(k5, (range(5), 1, Fraction(1))))
    assert cond.deficit == 0


def test_a_plus_star_leaves_empty():
    star = gen_complete_bipartite(1, 4)  # center 0, leaves 1..4
    cond = dense.check_key_condition(*arrays(star, ([1, 2, 3, 4], 1, Fraction(4))))
    assert cond.deficit == 4  # A+ empty: leaf degree 1 < 2*(1+4)*1 = 10


def test_a_plus_empty_class():
    k5 = complete_graph(5)
    cond = dense.check_key_condition(*arrays(k5, ([], 1, Fraction(1))))
    assert cond.deficit == 0 and cond.lhs == 0.0


def test_key_condition_satisfied_on_complete_graph():
    k5 = complete_graph(5)
    cond = dense.check_key_condition(*arrays(k5, (range(5), 1, Fraction(1))))
    assert cond.satisfied and cond.lhs == 0.0 and cond.rhs == 5


def test_key_condition_edge_plus_isolated():
    g = Graph.from_edges(3, [(0, 1)])  # edge u-v, isolated w=2
    cond = dense.check_key_condition(*arrays(g, ([2], 1, Fraction(1))))
    assert cond.lhs == 2.0 and cond.rhs == 3 and cond.satisfied


def test_key_condition_endpoint_unsatisfied():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])  # path, endpoint degree 1
    cond = dense.check_key_condition(*arrays(g, ([0], 2, Fraction(1))))
    assert cond.lhs == 4.0 and cond.rhs == 3 and not cond.satisfied


def test_extract_complete_graph_keeps_everything():
    k5 = complete_graph(5)
    res = dense.extract_dense(*arrays(k5, (range(5), 1, Fraction(1))))
    assert res.surviving.tolist() == [0, 1, 2, 3, 4]
    assert res.deleted == [] and res.guaranteed


def test_extract_single_deletion_budget():
    g = Graph.from_edges(3, [(0, 1)])
    res = dense.extract_dense(*arrays(g, ([2], 1, Fraction(1))))
    assert res.deleted == [(2, 0)]
    assert res.surviving.tolist() == [0, 1]
    b = res.budget
    assert b.deleted_count == 1 and b.weighted_deficit == 1 and b.bound == 2.0
    assert b.holds()


def test_extract_complete_bipartite_tightness_family():
    # class = the large side with target d: every member has degree exactly d
    d, n = 3, 7
    g = gen_complete_bipartite(d, n)
    res = dense.extract_dense(*arrays(g, (range(d, d + n), d, Fraction(1, 100))))
    assert len(res.surviving) == g.n and not res.deleted


def test_extract_peels_in_rounds():
    # path 0-1-2-3-4, target 2 everywhere: the ends go in round 1, their
    # neighbours in round 2, the middle in round 3; each deletion records its
    # degree at the start of its round, in ascending id within the round
    g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    res = dense.extract_dense(*arrays(g, (range(5), 2, 1.0)))
    assert res.deleted == [(0, 1), (4, 1), (1, 1), (3, 1), (2, 0)]
    assert res.rounds == 3 and len(res.surviving) == 0


def test_extract_runs_unguaranteed_when_condition_fails():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    res = dense.extract_dense(*arrays(g, ([0, 2], 2, Fraction(1))))
    assert not res.guaranteed
    assert res.budget.holds()
    assert set(v for v, _ in res.deleted) <= {0, 2}


def test_extract_can_empty_host_without_guarantee():
    k3 = complete_graph(3)
    res = dense.extract_dense(*arrays(k3, (range(3), 5, Fraction(1, 10))))
    assert len(res.surviving) == 0 and not res.guaranteed


def test_a_slack_beyond_the_float_range_is_outside_a_plus():
    # Fraction(10**400) used to overflow the float A+ test; its threshold
    # 2a(1 + eta) is above every degree, as is that of Fraction(10**300)
    k3 = complete_graph(3)
    huge, large = (arrays(k3, (range(3), 1, Fraction(10 ** e))) for e in (400, 300))
    assert dense.check_key_condition(*huge) == dense.check_key_condition(*large)
    got, want = dense.extract_dense(*huge), dense.extract_dense(*large)
    assert got.surviving.tolist() == want.surviving.tolist() == [0, 1, 2]
    assert (got.deleted, got.budget, got.guaranteed, got.rounds) == \
        (want.deleted, want.budget, want.guaranteed, want.rounds)


def test_class_validation():
    g = complete_graph(3)
    counts, parts, target, eta = arrays(g, ([0], 1, 1.0))
    with pytest.raises(ValueError):
        dense.extract_dense(counts, parts, np.array([-1, 0, 0]), eta)  # negative target
    with pytest.raises(ValueError):
        dense.extract_dense(counts, parts, target, np.zeros(3))  # classed eta 0
    with pytest.raises(ValueError):  # classed outside host
        dense.check_key_condition(host_counts(g, [1, 2]), parts, target, eta)
    for bad in [(), (0, 0), (2,), (-1,), (0, 1, 1), (0.0,)]:
        with pytest.raises(ValueError, match="parts must be"):
            dense.check_key_condition(counts, bad, target, eta)
    # an unclassed vertex may carry any slack
    assert dense.extract_dense(counts, parts, target,
                               np.array([1.0, 0.0, -1.0])).guaranteed


@st.composite
def extraction_instances(draw):
    g = draw(graphs(min_n=3, max_n=14))
    n = g.n
    ids = list(range(n))
    draw_count = draw(st.integers(1, 3))
    rng_order = draw(st.permutations(ids))
    classes = []
    used = 0
    for _ in range(draw_count):
        size = draw(st.integers(1, max(1, n // 3)))
        members = rng_order[used:used + size]
        used += size
        if not members:
            break
        target = draw(st.integers(1, 3))
        eta = Fraction(draw(st.integers(1, 20)), 10)
        classes.append((members, target, eta))
    if not classes:
        classes = [([0], 1, Fraction(1))]
    return g, arrays(g, *classes)


@settings(max_examples=60, deadline=None)
@given(extraction_instances(), st.integers(0, 10))
def test_extract_order_independence_and_budget(instance, order_seed):
    g, (counts, parts, target, eta) = instance
    base = dense.extract_dense(counts, parts, target, eta)
    for seed in (None, order_seed):
        want, cond = heap_extract_dense(counts, parts, target, eta, order_seed=seed)
        assert_same_fixed_point(base, want, target)
        assert dense.check_key_condition(counts, parts, target, eta) == cond
    assert base.budget.holds()
    # deletions stay inside the classed vertices
    assert set(v for v, _ in base.deleted) <= set(np.flatnonzero(target).tolist())


@settings(max_examples=40, deadline=None)
@given(extraction_instances())
def test_extract_fixed_point_and_item_a(instance):
    g, (counts, parts, target, eta) = instance
    res = dense.extract_dense(counts, parts, target, eta)
    surv = set(res.surviving.tolist())
    # item (a): every surviving classed vertex meets its target inside H'
    for v in np.flatnonzero(target).tolist():
        if v in surv:
            d = sum(1 for w in g.neighbors(v).tolist() if w in surv)
            assert d >= target[v]
    # re-running on the survivors deletes nothing
    if len(res.surviving):
        kept = np.zeros(g.n, dtype=bool)
        kept[res.surviving] = True
        again = dense.extract_dense(host_counts(g, res.surviving), (0,),
                                    np.where(kept, target, 0), eta)
        assert again.deleted == []
        assert again.surviving.tolist() == res.surviving.tolist()


# -- equivalence with the class-based reference ---------------------------------


@st.composite
def slacks(draw, a):
    """A float or Fraction slack, sometimes putting 2*(1+eta)*a on an integer
    with a dyadic eta, or within 1e-12 of an integer k (or on it) from
    either side."""
    exact = draw(st.booleans())
    if draw(st.booleans()):
        # eta = p/2**k with 2**k dividing 2*a*p: 2*(1+eta)*a is an integer,
        # and so is its float value
        k = draw(st.integers(0, 4))
        p = draw(st.integers(1, 12)) * (2 ** k // math.gcd(2 * a, 2 ** k))
        return Fraction(p, 2 ** k) if exact else p / 2 ** k
    if draw(st.booleans()):
        k = draw(st.integers(2 * a + 1, 2 * a + 12))
        if exact:
            nudge = Fraction(draw(st.sampled_from([-1, 0, 1])), 10 ** 13)
            return Fraction(k, 2 * a) - 1 + nudge
        return k / (2 * a) - 1 + draw(st.sampled_from([-1e-13, 0.0, 1e-13]))
    if exact:
        return Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 10)))
    return draw(st.floats(0.01, 3.0))


@st.composite
def class_instances(draw):
    """A graph, a host (all of V or a subset, maybe empty) and disjoint
    non-empty classes inside it, as a ClassFamily and as per-vertex arrays."""
    g = draw(graphs(min_n=2, max_n=16))
    host = draw(st.none() | st.lists(st.integers(0, g.n - 1), unique=True))
    pool = draw(st.permutations(range(g.n) if host is None else host))
    classes, used = [], 0
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(1, 5))
        members = pool[used:used + size]
        used += size
        if not members:
            break
        a = draw(st.integers(1, 4))
        classes.append((members, a, draw(slacks(a))))
    family = ClassFamily(tuple(DegreeClass(np.array(vs, dtype=np.int64), a, e)
                               for vs, a, e in classes),
                         None if host is None else np.array(host, dtype=np.int64))
    return g, family, arrays(g, *classes, host=host)


def assert_same_as_reference(g, family, counts, parts, target, eta, order_seed):
    want = extract_dense(g, family, order_seed=order_seed)
    got = dense.extract_dense(counts, parts, target, eta)
    assert_same_fixed_point(got, want, target)
    cond, ref = dense.check_key_condition(counts, parts, target, eta), \
        check_key_condition(g, family)
    assert (cond.lhs, cond.rhs, cond.satisfied) == (ref.lhs, ref.rhs, ref.satisfied)
    assert cond.deficit == sum(int(cl.target) * d
                               for cl, d in zip(family.classes, ref.deficits))


@settings(max_examples=300, deadline=None)
@given(class_instances(), st.none() | st.integers(0, 2 ** 32 - 1))
@example((Graph.from_edges(2, [(0, 1)]), ClassFamily((), np.array([], dtype=np.int64)),
          arrays(Graph.from_edges(2, [(0, 1)]), host=[])), None)
def test_per_vertex_extraction_matches_the_class_reference(instance, order_seed):
    g, family, arrs = instance
    assert_same_as_reference(g, family, *arrs, order_seed)


@pytest.mark.parametrize("eta,deficit", [
    (0.1, 10), (Fraction(1, 10), 5), (0.5 + 1e-13, 15), (0.5 - 1e-13, 10),
    (Fraction(1, 2) - Fraction(1, 10 ** 13), 10), (0.5, 10), (Fraction(1, 2), 10)])
def test_near_integer_a_plus_threshold_matches_the_reference(eta, deficit):
    # target 5 on vertices of degree 11, 15 and 1: 2*(1+eta)*5 is 11 or 15 up
    # to the float error of eta, and an integer degree at that value is in
    # A+ only if the exact threshold allows it (float 0.1 is above 1/10)
    g = Graph.from_edges(30, [(0, w) for w in range(1, 12)]
                         + [(12, w) for w in range(13, 28)] + [(28, 1)])
    family = ClassFamily((DegreeClass(np.array([0, 12, 28]), 5, eta),))
    arrs = arrays(g, ([0, 12, 28], 5, eta))
    assert dense.check_key_condition(*arrs).deficit == deficit
    for seed in (None, 0, 1):
        assert_same_as_reference(g, family, *arrs, seed)


# -- equivalence with the graph-level reference ---------------------------------


@st.composite
def labeled_instances(draw):
    """A graph, a 3-labeling, one or two of its parts as the host, and a
    target (0-4) and slack per host vertex."""
    g = draw(graphs(min_n=2, max_n=16))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)),
                      dtype=np.int64)
    parts = tuple(draw(st.permutations([0, 1, 2]))[:draw(st.integers(1, 2))])
    target = np.zeros(g.n, dtype=np.int64)
    eta = np.zeros(g.n, dtype=object)
    for v in np.flatnonzero(np.isin(labels, parts)).tolist():
        target[v] = draw(st.integers(0, 4))
        eta[v] = draw(slacks(max(1, int(target[v]))))
    if not any(isinstance(e, Fraction) for e in eta.tolist()):
        eta = eta.astype(float)
    return g, labels, parts, target, eta


@settings(max_examples=300, deadline=None)
@given(labeled_instances(), st.none() | st.integers(0, 2 ** 32 - 1))
def test_counts_extraction_matches_the_graph_level_reference(instance, order_seed):
    g, labels, parts, target, eta = instance
    host = np.flatnonzero(np.isin(labels, parts))
    h = g if len(parts) == 1 else g.cross_subgraph(labels, *parts)
    want = graph_extract_dense(h, host, target, eta, order_seed=order_seed)
    counts = Counts(g, labels, 3)
    got = dense.extract_dense(counts, parts, target, eta)
    assert_same_fixed_point(got, want, target)
    assert dense.check_key_condition(counts, parts, target, eta) == \
        graph_key_condition(h, host, target, eta)[4]
    # the extraction reads the counts and leaves them as they were
    assert (counts.labels == labels).all()
    assert (counts.matrix == Counts(g, labels, 3).matrix).all()
