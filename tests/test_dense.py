from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart.dense import (ClassFamily, DegreeClass, check_key_condition,
                           compute_a_plus, degree_classes, extract_dense)
from degpart.gen import complete_graph, gen_complete_bipartite
from degpart.graph import Graph

from conftest import graphs


def family(graph, *classes, host=None):
    return ClassFamily(tuple(DegreeClass(np.array(v), a, e) for v, a, e in classes),
                       None if host is None else np.array(host))


def test_a_plus_complete_graph():
    k5 = complete_graph(5)
    f = family(k5, (range(5), 1, Fraction(1)))
    (ap,) = compute_a_plus(k5, f)
    assert ap.tolist() == [0, 1, 2, 3, 4]  # degree 4 >= 2*(1+1)*1


def test_a_plus_star_leaves_empty():
    star = gen_complete_bipartite(1, 4)  # center 0, leaves 1..4
    f = family(star, ([1, 2, 3, 4], 1, Fraction(4)))
    (ap,) = compute_a_plus(star, f)
    assert ap.tolist() == []  # leaf degree 1 < 2*(1+4)*1 = 10


def test_a_plus_empty_class():
    k5 = complete_graph(5)
    f = family(k5, ([], 1, Fraction(1)))
    (ap,) = compute_a_plus(k5, f)
    assert ap.tolist() == []


def test_key_condition_satisfied_on_complete_graph():
    k5 = complete_graph(5)
    cond = check_key_condition(k5, family(k5, (range(5), 1, Fraction(1))))
    assert cond.satisfied and cond.lhs == 0.0 and cond.rhs == 5


def test_key_condition_edge_plus_isolated():
    g = Graph.from_edges(3, [(0, 1)])  # edge u-v, isolated w=2
    cond = check_key_condition(g, family(g, ([2], 1, Fraction(1))))
    assert cond.lhs == 2.0 and cond.rhs == 3 and cond.satisfied


def test_key_condition_endpoint_unsatisfied():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])  # path, endpoint degree 1
    cond = check_key_condition(g, family(g, ([0], 2, Fraction(1))))
    assert cond.lhs == 4.0 and cond.rhs == 3 and not cond.satisfied


def test_extract_complete_graph_keeps_everything():
    k5 = complete_graph(5)
    res = extract_dense(k5, family(k5, (range(5), 1, Fraction(1))))
    assert res.surviving.tolist() == [0, 1, 2, 3, 4]
    assert res.deleted == [] and res.guaranteed


def test_extract_single_deletion_budget():
    g = Graph.from_edges(3, [(0, 1)])
    res = extract_dense(g, family(g, ([2], 1, Fraction(1))))
    assert [v for v, _, _ in res.deleted] == [2]
    assert res.surviving.tolist() == [0, 1]
    b = res.budget
    assert b.deleted_count == 1 and b.weighted_deficit == 1 and b.bound == 2.0
    assert b.holds()


def test_extract_complete_bipartite_tightness_family():
    # class = the large side with target d: every member has degree exactly d
    d, n = 3, 7
    g = gen_complete_bipartite(d, n)
    f = family(g, (range(d, d + n), d, Fraction(1, 100)))
    res = extract_dense(g, f)
    assert len(res.surviving) == g.n and not res.deleted


def test_extract_runs_unguaranteed_when_condition_fails():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    f = family(g, ([0, 2], 2, Fraction(1)))
    res = extract_dense(g, f)
    assert not res.guaranteed
    assert res.budget.holds()
    assert set(v for v, _, _ in res.deleted) <= {0, 2}


def test_extract_can_empty_host_without_guarantee():
    k3 = complete_graph(3)
    res = extract_dense(k3, family(k3, (range(3), 5, Fraction(1, 10))))
    assert len(res.surviving) == 0 and not res.guaranteed


def test_class_validation():
    with pytest.raises(ValueError):
        DegreeClass(np.array([0]), 0, 1.0)
    with pytest.raises(ValueError):
        DegreeClass(np.array([0]), 1, 0.0)
    with pytest.raises(ValueError):
        family(None, ([0, 1], 1, 1.0), ([1, 2], 1, 1.0))  # overlap
    with pytest.raises(ValueError):
        ClassFamily((DegreeClass(np.array([5]), 1, 1.0),), np.array([0, 1]))


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
    return g, family(g, *classes)


@settings(max_examples=60, deadline=None)
@given(extraction_instances(), st.integers(0, 10))
def test_extract_order_independence_and_budget(instance, order_seed):
    g, fam = instance
    base = extract_dense(g, fam)
    randomized = extract_dense(g, fam, order_seed=order_seed)
    assert base.surviving.tolist() == randomized.surviving.tolist()
    assert base.budget.holds() and randomized.budget.holds()
    # deletions stay inside the classed vertices
    classed = set()
    for cl in fam.classes:
        classed |= set(cl.vertices.tolist())
    assert set(v for v, _, _ in base.deleted) <= classed


@settings(max_examples=40, deadline=None)
@given(extraction_instances())
def test_extract_fixed_point_and_item_a(instance):
    g, fam = instance
    res = extract_dense(g, fam)
    surv = set(res.surviving.tolist())
    # item (a): every surviving classed vertex meets its target inside H'
    for cl in fam.classes:
        for v in cl.vertices.tolist():
            if v in surv:
                d = sum(1 for w in g.neighbors(v).tolist() if w in surv)
                assert d >= cl.target
    # re-running on the survivors deletes nothing
    if len(res.surviving):
        sub_classes = [
            DegreeClass(cl.vertices[np.isin(cl.vertices, res.surviving)],
                        cl.target, cl.eta)
            for cl in fam.classes]
        sub_classes = [c for c in sub_classes if len(c.vertices)]
        if sub_classes:
            again = extract_dense(g, ClassFamily(tuple(sub_classes),
                                                 res.surviving))
            assert again.deleted == []
            assert again.surviving.tolist() == res.surviving.tolist()


def per_degree_classes(graph, host, target_of, slack_of):
    """The classes as both refinements built them before ``degree_classes``:
    one scan of the host per degree, in ascending degree."""
    classes = []
    for i in np.unique(graph.degree).tolist():
        if target_of[i] >= 1:
            members = host[graph.degree[host] == i]
            if len(members):
                classes.append(DegreeClass(members, int(target_of[i]),
                                           float(slack_of[i])))
    return classes


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=14), st.data())
def test_degree_classes_match_the_per_degree_loop(g, data):
    host = np.array(sorted(data.draw(st.sets(st.integers(0, g.n - 1)))),
                    dtype=np.int64)
    target_of = np.array(data.draw(st.lists(st.integers(0, 3), min_size=g.n,
                                            max_size=g.n)))
    slack_of = np.array(data.draw(st.lists(st.floats(0.01, 2.0), min_size=g.n,
                                           max_size=g.n)))
    got = degree_classes(g, host, target_of[g.degree], slack_of[g.degree])
    want = per_degree_classes(g, host, target_of, slack_of)
    assert [(c.vertices.tolist(), c.target, c.eta) for c in got] == \
        [(c.vertices.tolist(), c.target, c.eta) for c in want]
