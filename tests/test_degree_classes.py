"""A graph's degree classes, computed once, and the one threshold table
each bisection builds (the standalone verifier builds its own)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart import certify, pipelines
from degpart.certify import verify_certificate
from degpart.gen import gen_gnp
from degpart.graph import Graph
from degpart.thresholds import (EXTERNAL, INTERNAL, ParamSet, ThresholdTable,
                                build_threshold_table)

from conftest import graphs


@st.composite
def class_graphs(draw):
    """Graphs with n = 0, edgeless graphs and random graphs."""
    kind = draw(st.sampled_from(["empty", "edgeless", "random"]))
    if kind == "empty":
        return Graph.from_edges(0, [])
    if kind == "edgeless":
        return Graph.from_edges(draw(st.integers(1, 20)), [])
    return draw(graphs(min_n=2, max_n=16))


@settings(max_examples=80, deadline=None)
@given(class_graphs(), st.sampled_from([INTERNAL, EXTERNAL]))
def test_degree_classes_are_the_unique_degrees_and_index_the_table(g, mode):
    values, row = g.degree_classes
    want_values, want_row = np.unique(g.degree, return_inverse=True)
    assert values.tolist() == want_values.tolist()
    assert row.tolist() == want_row.tolist()
    assert values.dtype == row.dtype == np.int64 and row.shape == (g.n,)
    # computed once: the same arrays on every call, and read-only
    again = g.degree_classes
    assert again[0] is values and again[1] is row
    for a in (values, row):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    table = build_threshold_table(ParamSet(0.0, 0.02, mode, d_const=0.05), values)
    rows = table.rows_of(g)
    assert rows.tolist() == table.row_index(g.degree).tolist()
    assert not rows.flags.writeable
    assert table.rows_of(g) is rows


def test_rows_of_follows_the_graph_it_is_asked_about():
    table = build_threshold_table(ParamSet(0.0, 0.25, INTERNAL), range(0, 30))
    a, b = gen_gnp(30, 0.2, seed=1), gen_gnp(30, 0.1, seed=2)
    for g in (a, b, a):
        assert table.rows_of(g).tolist() == table.row_index(g.degree).tolist()


COLUMNS = ("active", "fphi", "fpsi", "fpsi_star", "fthr_int", "fthr_ext", "mu", "eta")


@pytest.mark.parametrize("mode", [INTERNAL, EXTERNAL])
def test_column_is_the_gather_over_the_rows_of_the_graph_asked_about(mode):
    eps = 0.1 if mode == INTERNAL else 0.09
    table = build_threshold_table(ParamSet(0.0, eps, mode, d_const=0.05), range(0, 30))
    a, b = gen_gnp(30, 0.2, seed=1), gen_gnp(30, 0.1, seed=2)
    for g in (a, b, a, a):
        for name in COLUMNS:
            col = table.column(name, g)
            want = getattr(table, name)[table.rows_of(g)]
            assert col.dtype == want.dtype and col.tolist() == want.tolist()
            assert not col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[1]
            assert table.column(name, g) is col  # gathered once per graph
    assert table.active.any() and not table.active.all()


def test_rows_of_refuses_a_degree_the_table_lacks():
    g = gen_gnp(20, 0.5, seed=0)
    degrees = set(range(int(g.degree.max()) + 1)) - {int(g.degree[7])}
    table = build_threshold_table(ParamSet(0.0, 0.25, INTERNAL), degrees)
    with pytest.raises(KeyError, match="not in table"):
        table.rows_of(g)


@pytest.mark.parametrize("degree", [-1, 10])
def test_row_index_refuses_a_degree_outside_the_lookup(degree):
    # below 0 and above the largest degree: refused before the lookup is read
    table = build_threshold_table(ParamSet(0.0, 0.25, INTERNAL), range(10))
    with pytest.raises(KeyError, match=f"degree {degree} not in table"):
        table.row_index(np.array([3, degree]))
    assert table.row_index(np.array([0, 9])).tolist() == [0, 9]


def test_the_classes_are_computed_lazily():
    g = gen_gnp(50, 0.2, seed=4)
    assert g._degree_classes is None
    g.fingerprint
    assert g._degree_classes is None
    g.degree_classes
    assert g._degree_classes is not None


@pytest.fixture
def recorded(monkeypatch):
    """Record every threshold table built and every np.unique call on a
    graph's degree array, from every module."""
    tables, sorts = [], []
    init = ThresholdTable.__init__

    def counting_init(self, params, degrees):
        init(self, params, degrees)
        tables.append(self)

    unique = np.unique

    def counting_unique(a, *args, **kwargs):
        sorts.append(a)
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(ThresholdTable, "__init__", counting_init)
    monkeypatch.setattr(np, "unique", counting_unique)
    return tables, sorts


@pytest.mark.parametrize("run,params,seed", [
    (pipelines.bisect_internal, ParamSet(0.0, 0.02, INTERNAL, d_const=0.01), 1),
    (pipelines.bisect_external, ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01), 0),
], ids=["internal", "external"])
def test_one_op_builds_one_table_and_sorts_the_degrees_once(recorded, run, params,
                                                            seed):
    tables, sorts = recorded
    g = gen_gnp(400, 0.03, seed=seed)
    report = run(g, params, seed=seed, size_window="vacuous",
                 weight_budget="vacuous")
    # the floors bind: every vertex is active, and the certificate claims
    # them (the vacuous window leaves the sides unbalanced, so not ok)
    assert tables[0].active[tables[0].rows_of(g)].all()
    assert [c["floor"]["type"] for c in report.certificate.claims
            if c["kind"] == "degree_floor"] == ["table"]
    assert len(tables) == 1
    degree_sorts = [a for a in sorts if a is g.degree]
    assert len(degree_sorts) == 1
    # the standalone verifier builds its own table and sorts nothing again
    built = len(tables)
    assert verify_certificate(g, report.labels, report.certificate, r=2).passed
    assert len(tables) == built + 1 and tables[-1] is not tables[0]
    assert [a for a in sorts if a is g.degree] == degree_sorts


def test_a_rpart_op_builds_no_table_and_sorts_no_degrees(recorded):
    tables, sorts = recorded
    g = gen_gnp(60, 0.2, seed=2)
    report = pipelines.r_partition(g, pipelines.BiasVector(("1/3", "2/3")))
    assert verify_certificate(g, report.labels, report.certificate, r=report.r).passed
    assert tables == [] and g._degree_classes is None
    assert not [a for a in sorts if a is g.degree]


def test_a_handed_table_serves_the_recount_of_its_parameters():
    g = gen_gnp(80, 0.2, seed=5)
    params = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    table = build_threshold_table(params, g.degree_classes[0])
    labels = np.arange(g.n) % 2
    claim = certify.claim_degree_floor("all", "own", certify.table_floor("phi", params))
    handed = certify.recount(g, labels, 2, table)
    fresh = certify.recount(g, labels, 2)
    assert certify.judge(handed, [claim]) == certify.judge(fresh, [claim])
    assert handed._tables[certify._table_key(params)] is table
    assert fresh._tables[certify._table_key(params)] is not table
