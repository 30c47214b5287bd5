import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart import certify
from degpart import graph as graph_module
from degpart.certify import (Certificate, check_claims, graph_fingerprint,
                             verify_certificate)
from degpart.gen import complete_graph, cycle_graph, gen_gnp, path_graph
from degpart.graph import LabeledPartition, LabelError
from degpart.pipelines import bisect_internal
from degpart.thresholds import EXTERNAL, INTERNAL, ParamSet

from conftest import graphs
from test_acceptance import naive_claim_truth


def make_cert(graph, claims, params=None):
    return Certificate(graph_fingerprint(graph),
                       params or {}, 0, "test", claims)


def test_fingerprint_is_order_independent_and_binding():
    g1 = complete_graph(4)
    from degpart.graph import Graph
    g2 = Graph.from_edges(4, [(3, 2), (0, 1), (2, 0), (1, 3), (0, 3), (1, 2)])
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    g3 = cycle_graph(4)
    assert graph_fingerprint(g1) != graph_fingerprint(g3)


def test_verify_refuses_on_hash_mismatch():
    g = complete_graph(4)
    cert = Certificate("deadbeef", {}, 0, "test", [])
    with pytest.raises(ValueError, match="bound to graph"):
        verify_certificate(g, np.array([0, 0, 1, 1]), cert)


def test_verify_refuses_certificate_of_another_graph():
    g = gen_gnp(60, 0.2, seed=2)
    report = bisect_internal(g, ParamSet(0.0, 0.25, INTERNAL), seed=0)
    assert verify_certificate(g, report.labels, report.certificate, r=2).passed
    other = gen_gnp(60, 0.2, seed=3)
    assert other.fingerprint != g.fingerprint
    with pytest.raises(ValueError, match="bound to graph"):
        verify_certificate(other, report.labels, report.certificate, r=2)


def test_k4_own_degree_claim_passes_and_flip_fails():
    g = complete_graph(4)
    labels = np.array([0, 0, 1, 1])
    cert = make_cert(g, [certify.claim_degree_floor(
        "all", "own", certify.const_floor(1))])
    assert verify_certificate(g, labels, cert, r=2).passed
    bad = labels.copy()
    bad[0] = 1  # vertex 1 left alone on side 0
    res = verify_certificate(g, bad, cert, r=2)
    assert not res.passed and res.witness == 1


def test_balance_and_size_claims():
    g = complete_graph(5)
    labels = np.array([0, 0, 1, 1, 1])
    cert = make_cert(g, [certify.claim_balance(1),
                         certify.claim_part_sizes([2, 3]),
                         certify.claim_part_size_window(0, 1.5, 2.5)])
    assert verify_certificate(g, labels, cert, r=2).passed
    labels2 = np.array([0, 0, 0, 0, 1])
    res = verify_certificate(g, labels2, cert, r=2)
    assert not res.passed and res.failed_index == 0


def test_cut_edges_and_count_claims():
    g = cycle_graph(6)
    labels = np.array([0, 1, 0, 1, 0, 1])
    cert = make_cert(g, [certify.claim_cut_edges_at_least(6),
                         certify.claim_count_meeting_floor("cross", 2, 6)])
    assert verify_certificate(g, labels, cert, r=2).passed
    cert2 = make_cert(g, [certify.claim_cut_edges_at_least(7)])
    assert not verify_certificate(g, labels, cert2, r=2).passed


def test_extremal_claims_exact():
    g = complete_graph(4)
    labels = np.array([0, 0, 1, 1])
    good = make_cert(g, [certify.claim_extremal_stat("min_own_degree", 1),
                         certify.claim_extremal_ratio("own", 1, 3)])
    assert verify_certificate(g, labels, good, r=2).passed
    # claiming a better minimum than true must fail
    brag = make_cert(g, [certify.claim_extremal_stat("min_own_degree", 2)])
    assert not verify_certificate(g, labels, brag, r=2).passed
    # claiming a worse minimum also fails: the value must be achieved exactly
    sandbag = make_cert(g, [certify.claim_extremal_ratio("own", 1, 4)])
    assert not verify_certificate(g, labels, sandbag, r=2).passed


def test_table_floor_claim_recomputes_thresholds():
    g = gen_gnp(150, 0.3, seed=2)
    params = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    report = bisect_internal(g, params, seed=1, size_window="vacuous",
                             weight_budget="vacuous")
    res = verify_certificate(g, report.labels, report.certificate, r=2)
    assert res.passed


def test_verdict_independent_of_claim_order():
    g = complete_graph(4)
    labels = np.array([0, 0, 1, 1])
    claims = [certify.claim_balance(1),
              certify.claim_extremal_stat("min_own_degree", 1),
              certify.claim_degree_floor("all", "own", certify.const_floor(1))]
    cert_a = make_cert(g, claims)
    cert_b = make_cert(g, list(reversed(claims)))
    assert verify_certificate(g, labels, cert_a, r=2).passed == \
        verify_certificate(g, labels, cert_b, r=2).passed
    bad = labels.copy()
    bad[0] = 1
    assert verify_certificate(g, bad, cert_a, r=2).passed == \
        verify_certificate(g, bad, cert_b, r=2).passed == False  # noqa: E712


def test_certificate_json_round_trip():
    g = complete_graph(4)
    cert = make_cert(g, [certify.claim_balance(1)], params={"c": 0.0})
    payload = cert.to_jsonable()
    back = Certificate.from_jsonable(payload)
    assert back.graph_hash == cert.graph_hash
    assert back.claims == cert.claims
    assert verify_certificate(g, np.array([0, 1, 0, 1]), back, r=2).passed


def test_verify_refuses_malformed_labels_naming_the_first_bad_vertex():
    g = path_graph(4)
    cert = make_cert(g, [certify.claim_degree_floor(
        "all", "own", certify.const_floor(0))])
    # label 2 with r=2 used to raise IndexError from the degree recount
    res = verify_certificate(g, np.array([0, 2, 0, 0]), cert, r=2)
    assert not res.passed and res.witness == 1 and "outside" in res.reason
    res = verify_certificate(g, np.array([0, 1, 0]), cert, r=2)
    assert not res.passed and res.witness == 3 and "shape" in res.reason
    res = verify_certificate(g, np.array([0.0, 1.0, 0.0, 1.0]), cert, r=2)
    assert not res.passed and res.witness == 0 and "non-integer" in res.reason
    res = verify_certificate(g, np.array([0, 1, -1, 1]), cert)
    assert not res.passed and res.witness == 2
    assert verify_certificate(g, np.array([0, 1, 0, 1]), cert).passed


def test_shifted_report_labels_are_refused_on_both_routes():
    # a +0.4 shift used to be truncated away by LabeledPartition, so the
    # report passed as a partition while its bare labels failed
    g = gen_gnp(40, 0.3, seed=2)
    report = bisect_internal(g, seed=0)
    shifted = report.labels + 0.4
    res = verify_certificate(g, shifted, report.certificate, r=2)
    assert not res.passed and res.witness == 0 and "non-integer" in res.reason
    report.labels = shifted
    with pytest.raises(LabelError, match="non-integer") as exc:
        verify_certificate(g, report.partition(), report.certificate)
    assert exc.value.vertex == 0
    assert LabeledPartition(2, np.array([], dtype=float)).n == 0


def test_out_of_range_and_2d_report_labels_are_refused_on_both_routes():
    # LabeledPartition used to raise a plain ValueError naming no vertex for
    # an out-of-range label, and to accept a 2-D label array
    g = gen_gnp(40, 0.3, seed=2)
    report = bisect_internal(g, seed=0)
    bad = report.labels.copy()
    bad[7] = 2
    res = verify_certificate(g, bad, report.certificate, r=2)
    assert not res.passed and res.witness == 7 and "outside" in res.reason
    report.labels = bad
    with pytest.raises(LabelError, match=r"^vertex 7 has label 2 outside \[0, 2\)$") as exc:
        verify_certificate(g, report.partition(), report.certificate)
    assert exc.value.vertex == 7
    square = bad.reshape(8, 5) % 2
    res = verify_certificate(g, square, report.certificate, r=2)
    assert not res.passed and "shape" in res.reason
    report.labels = square
    with pytest.raises(LabelError, match="is not 1-D") as exc:
        verify_certificate(g, report.partition(), report.certificate)
    assert exc.value.vertex == 0


def test_check_claims_one_flag_per_claim():
    g = complete_graph(4)
    claims = [certify.claim_balance(1), certify.claim_part_sizes([3, 1]),
              certify.claim_degree_floor("all", "own", certify.const_floor(1))]
    assert check_claims(g, np.array([0, 0, 1, 1]), 2, claims) == [True, False, True]
    assert check_claims(g, np.array([0, 0, 1, 1]), 2, []) == []
    with pytest.raises(ValueError):
        check_claims(g, np.array([0, 0, 1, 3]), 2, claims)


def test_tripartition_claims_per_mode():
    floor = certify.const_floor(2)
    internal = certify.tripartition_claims(INTERNAL, floor, (1, 3))
    assert list(internal) == ["size_window", "floor_a", "floor_b", "floor_c"]
    assert [(c["source"], c["target"], c["floor"]["value"])
            for c in internal["floor_a"] + internal["floor_b"] + internal["floor_c"]] \
        == [(0, 0, 2), (1, 1, 2), (2, 0, 4), (2, 1, 4)]
    table = certify.table_floor("psi", ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01))
    external = certify.tripartition_claims(EXTERNAL, table, (1, 3))
    assert list(external) == ["size_window", "floor_cross", "floor_z"]
    assert [(c["source"], c["target"], c["floor"]["factor"])
            for c in external["floor_cross"] + external["floor_z"]] \
        == [(0, 1, 1), (1, 0, 1), (2, 0, 2), (2, 1, 2)]
    assert [(c["part"], c["lo"], c["hi"]) for c in internal["size_window"]] \
        == [(0, 1.0, 3.0), (1, 1.0, 3.0)]


TABLE_FLOOR = certify.table_floor(
    "phi", ParamSet(0.0, 0.02, INTERNAL, d_const=0.05))


@st.composite
def claim_sets(draw, r):
    k = st.integers(0, 6)
    part = st.integers(0, r - 1)
    target = st.sampled_from(["own", "cross"]) | part
    return [
        certify.claim_balance(draw(st.integers(0, 3))),
        certify.claim_part_sizes(draw(st.lists(st.integers(0, 6),
                                               min_size=r, max_size=r))),
        certify.claim_part_size_window(draw(part), draw(k), draw(k) + 3),
        certify.claim_degree_floor(draw(st.just("all") | part), draw(target),
                                   certify.const_floor(draw(k))),
        certify.claim_degree_floor(draw(st.just("all") | part), draw(target),
                                   TABLE_FLOOR),
        certify.claim_cut_edges_at_least(draw(k), parts=(0, 1)),
        certify.claim_count_meeting_floor(draw(st.sampled_from(["own", "cross"])),
                                          draw(k), draw(k)),
        certify.claim_extremal_stat(
            draw(st.sampled_from(["min_own_degree", "min_cross_degree"])),
            draw(k)),
        certify.claim_extremal_ratio(draw(st.sampled_from(["own", "cross"])),
                                     draw(k), draw(st.integers(1, 6))),
    ]


@st.composite
def labeled_claims(draw):
    g = draw(graphs())
    r = draw(st.integers(2, 3))
    # mostly well-formed labels, sometimes off by one in length or range
    n = g.n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    labels = draw(st.lists(st.integers(0, r - 1) | st.integers(-1, r),
                           min_size=n, max_size=n))
    claims = draw(claim_sets(r))
    return g, labels, r, claims


@settings(max_examples=150, deadline=None)
@given(labeled_claims())
def test_verifier_agrees_with_naive_recount(case):
    g, labels, r, claims = case
    cert = make_cert(g, claims)
    res = verify_certificate(g, np.array(labels, dtype=np.int64), cert, r=r)
    if len(labels) != g.n:
        assert not res.passed and res.witness == min(len(labels), g.n)
        return
    bad = [v for v, lab in enumerate(labels) if not 0 <= lab < r]
    if bad:
        assert not res.passed and res.witness == bad[0] and res.reason
        return
    truth = [naive_claim_truth(g, labels, r, c) for c in claims]
    assert res.passed == all(truth)
    if not res.passed:
        assert res.failed_index == truth.index(False)


FLOOR1 = certify.claim_degree_floor("all", "own", certify.const_floor(1))
THREE = [certify.claim_balance(1), certify.claim_extremal_stat("min_own_degree", 1),
         FLOOR1]


@pytest.mark.parametrize("g, labels, claims, failed_index, witness", [
    (complete_graph(4), [1, 0, 1, 1], [FLOOR1], 0, 1),
    (complete_graph(5), [0, 0, 0, 0, 1],
     [certify.claim_balance(1), certify.claim_part_sizes([2, 3]),
      certify.claim_part_size_window(0, 1.5, 2.5)], 0, None),
    (cycle_graph(6), [0, 1, 0, 1, 0, 1], [certify.claim_cut_edges_at_least(7)], 0,
     None),
    (complete_graph(4), [0, 0, 1, 1],
     [certify.claim_extremal_stat("min_own_degree", 2)], 0, 0),
    (complete_graph(4), [0, 0, 1, 1], [certify.claim_extremal_ratio("own", 1, 4)],
     0, None),
    (complete_graph(4), [1, 0, 1, 1], THREE, 0, None),
    (complete_graph(4), [1, 0, 1, 1], THREE[::-1], 0, 1),
    (complete_graph(5), [0, 0, 1, 1, 1],
     [certify.claim_balance(1), FLOOR1,
      certify.claim_extremal_stat("min_cross_degree", 3)], 2, 2),
])
def test_failing_verification_counts_once_and_names_its_witness(
        monkeypatch, g, labels, claims, failed_index, witness):
    calls = []
    original = graph_module.part_profile
    monkeypatch.setattr(graph_module, "part_profile",
                        lambda *args: calls.append(args) or original(*args))
    res = verify_certificate(g, np.array(labels), make_cert(g, claims), r=2)
    assert (res.passed, res.failed_index, res.witness) == (False, failed_index,
                                                           witness)
    assert res.failed_claim == claims[failed_index]
    assert len(calls) == 1
