import copy
import dataclasses
import operator
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart import certify
from degpart import graph as graph_module
from degpart.certify import Certificate, VerifyResult, verify_certificate
from degpart.gen import gen_gnp
from degpart.graph import Graph, LabelError
from degpart.pipelines import bisect_internal
from degpart.thresholds import EXTERNAL, INTERNAL, ParamSet

from conftest import complete_graph, cycle_graph, graphs, path_graph
from test_acceptance import _mutation_bases, naive_claim_truth


def make_cert(graph, claims, params=None):
    return Certificate(graph.fingerprint,
                       params or {}, 0, "test", claims)


def test_fingerprint_is_order_independent_and_binding():
    g1 = complete_graph(4)
    from degpart.graph import Graph
    g2 = Graph.from_edges(4, [(3, 2), (0, 1), (2, 0), (1, 3), (0, 3), (1, 2)])
    assert g1.fingerprint == g2.fingerprint
    g3 = cycle_graph(4)
    assert g1.fingerprint != g3.fingerprint


def test_verify_refuses_on_hash_mismatch():
    g = complete_graph(4)
    cert = Certificate("deadbeef", {}, 0, "test", [])
    with pytest.raises(ValueError, match="bound to graph"):
        verify_certificate(g, np.array([0, 0, 1, 1]), cert, r=2)


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
    # a wrong shape or dtype refuses the array as a whole and names no vertex
    res = verify_certificate(g, np.array([0, 1, 0]), cert, r=2)
    assert not res.passed and res.witness is None and "shape" in res.reason
    res = verify_certificate(g, np.array([0.0, 1.0, 0.0, 1.0]), cert, r=2)
    assert not res.passed and res.witness is None and "non-integer" in res.reason
    res = verify_certificate(g, np.array([0, 1, -1, 1]), cert, r=2)
    assert not res.passed and res.witness == 2
    assert verify_certificate(g, np.array([0, 1, 0, 1]), cert, r=2).passed


def test_shifted_report_labels_are_refused_on_both_routes():
    # a +0.4 shift used to be truncated away by a label cast, so the report
    # passed; the verifier fails it, and the pipelines' recount raises
    g = gen_gnp(40, 0.3, seed=2)
    report = bisect_internal(g, seed=0)
    shifted = report.labels + 0.4
    res = verify_certificate(g, shifted, report.certificate, r=2)
    assert not res.passed and res.witness is None and "non-integer" in res.reason
    with pytest.raises(LabelError, match="non-integer") as exc:
        certify.recount(g, shifted, 2)
    assert exc.value.vertex is None


def test_out_of_range_and_2d_report_labels_are_refused_on_both_routes():
    # the verifier fails an out-of-range label, a 2-D label array and a float
    # one with the reason, and the pipelines' recount raises LabelError
    # naming the vertex; the 2-D and float arrays name none
    g = gen_gnp(40, 0.3, seed=2)
    report = bisect_internal(g, seed=0)
    bad = report.labels.copy()
    bad[7] = 2
    res = verify_certificate(g, bad, report.certificate, r=2)
    assert not res.passed and res.witness == 7 and "outside" in res.reason
    with pytest.raises(LabelError, match=r"^vertex 7 has label 2 outside \[0, 2\)$") as exc:
        certify.recount(g, bad, 2)
    assert exc.value.vertex == 7
    square = bad.reshape(8, 5) % 2
    res = verify_certificate(g, square, report.certificate, r=2)
    assert not res.passed and res.witness is None and "shape" in res.reason
    with pytest.raises(LabelError, match=r"^label array of shape \(8, 5\) for n=40$") as exc:
        certify.recount(g, square, 2)
    assert exc.value.vertex is None
    floats = report.labels.astype(float)
    res = verify_certificate(g, floats, report.certificate, r=2)
    assert not res.passed and res.witness is None and "non-integer" in res.reason
    with pytest.raises(LabelError, match=r"^labels have non-integer dtype float64$") as exc:
        certify.recount(g, floats, 2)
    assert exc.value.vertex is None


MALFORMED_CLAIMS = [
    # numpy would read part -1 (or target -1) as the last part and pass
    ({"kind": "part_size_window", "part": -1, "lo": 0, "hi": 40}, "'part'"),
    ({"kind": "part_size_window", "part": True, "lo": 0, "hi": 40}, "'part'"),
    (certify.claim_degree_floor("all", -1, certify.const_floor(0)), "'target'"),
    (certify.claim_degree_floor(7, "own", certify.const_floor(0)), "'source'"),
    (certify.claim_degree_floor("all", "own", {"type": "const"}), "'floor'"),
    # used to end in IndexError / KeyError tracebacks
    ({"kind": "cut_edges_at_least", "bound": 0, "parts": [0, 9]}, "'parts'"),
    ({"kind": "balance"}, "no 'max_diff'"),
    ({"kind": "count_meeting_floor", "target": "own", "at_least": 1,
      "floor": certify.table_floor("phi", ParamSet(0.0, 0.25, INTERNAL))}, "'floor'"),
    ({"kind": "extremal_stat", "stat": "min_degree", "value": 0}, "'stat'"),
    # used to exit as a parameter error
    ({"kind": "no_such_kind"}, "unknown claim kind 'no_such_kind'"),
    ("balance", "unknown claim kind None"),
    # a list or dict kind is no dict key: used to raise TypeError
    ({"kind": [1]}, "unknown claim kind [1]"),
    ({"kind": {}}, "unknown claim kind {}"),
    # a non-finite constant used to pass, every vertex reading as inactive
    *[(certify.claim_degree_floor("all", "own", dict(
        certify.table_floor("phi", ParamSet(0.0, 0.25, INTERNAL)), d_const=d)), "'floor'")
      for d in (float("nan"), float("inf"), float("-inf"))],
]


@pytest.mark.parametrize("claim,why", MALFORMED_CLAIMS)
def test_verify_refuses_a_malformed_claim_on_both_routes(claim, why):
    # the verifier fails the claim with the reason, and judge raises
    g = gen_gnp(40, 0.3, seed=2)
    report = bisect_internal(g, seed=0)
    cert = report.certificate
    assert verify_certificate(g, report.labels, cert, r=report.r).passed
    idx = len(cert.claims)
    bad = Certificate(cert.graph_hash, cert.params, cert.seed, cert.version,
                      cert.claims + [claim])
    res = verify_certificate(g, report.labels, bad, r=report.r)
    assert not res.passed and res.failed_index == idx
    assert res.failed_claim == claim and res.witness is None
    assert res.reason.startswith(f"malformed claim #{idx}: ") and why in res.reason
    with pytest.raises(certify.MalformedClaim) as exc:
        certify.judge(certify.recount(g, report.labels, report.r), bad.claims)
    assert str(exc.value) == res.reason
    # a well-formed claim on the last part still passes
    ok = Certificate(cert.graph_hash, cert.params, cert.seed, cert.version,
                     cert.claims + [certify.claim_part_size_window(1, 0, 40)])
    assert verify_certificate(g, report.labels, ok, r=report.r).passed


@pytest.mark.parametrize("claim,why", MALFORMED_CLAIMS)
def test_judge_refuses_a_malformed_claim_on_every_path(claim, why):
    g = complete_graph(4)
    labels = np.array([0, 0, 1, 1])
    claims = [certify.claim_balance(1), claim]
    with pytest.raises(ValueError, match=r"^malformed claim #1: ") as exc:
        certify.judge(certify.recount(g, labels, 2), claims)
    assert why in str(exc.value) and exc.value.claim == claim
    # the pipelines judge their conditions on the counts they maintain
    with pytest.raises(certify.MalformedClaim, match=r"^malformed claim #1: "):
        certify.judge(certify.from_counts(graph_module.Counts(g, labels, 2)), claims)


def test_judge_refuses_a_part_read_from_the_end():
    # numpy read part -1 and target -1 as the last part: [True, True]
    claims = [{"kind": "part_size_window", "part": -1, "lo": 2, "hi": 2},
              {"kind": "degree_floor", "source": "all", "target": -1,
               "floor": {"type": "const", "value": 1}}]
    with pytest.raises(ValueError, match=r"^malformed claim #0: part_size_window "
                                         r"claim has a bad 'part': -1 \(r=2\)$"):
        certify.judge(certify.recount(complete_graph(4), [0, 0, 1, 1], 2), claims)


@pytest.mark.parametrize("g, labels, r, claims", [
    # each part exactly on its window's lower bound, then on its upper bound
    (complete_graph(4), [0, 0, 1, 1], 2,
     [certify.claim_part_size_window(0, 2, 3), certify.claim_part_size_window(1, 1, 2)]),
    # one part: every vertex in it, and no cross edge
    (complete_graph(4), [0, 0, 0, 0], 1,
     [certify.claim_part_sizes([4]), certify.claim_balance(0),
      certify.claim_extremal_stat("min_cross_degree", 0)]),
    (Graph.from_edges(0, []), [], 2,
     [certify.claim_extremal_stat("min_own_degree", 0),
      certify.claim_extremal_stat("min_cross_degree", 0)]),
])
def test_verification_passes_on_the_boundary_cases(g, labels, r, claims):
    res = verify_certificate(g, np.array(labels, dtype=np.int64), make_cert(g, claims), r=r)
    assert res == VerifyResult(True)


@pytest.mark.parametrize("r", ["2", 2.5, True, 0])
def test_verify_refuses_a_part_count_that_is_no_integer(r):
    # '2' raised numpy's UFuncTypeError and 2.5 a casting TypeError
    g = complete_graph(4)
    cert = make_cert(g, [certify.claim_balance(1)])
    labels = np.array([0, 0, 1, 1])
    res = verify_certificate(g, labels, cert, r=r)
    assert not res.passed and res.witness is None and res.failed_index is None
    assert res.reason == f"part count r={r!r} is not an integer >= 1"
    with pytest.raises(ValueError, match="is not an integer >= 1"):
        certify.recount(g, labels, r)
    assert verify_certificate(g, labels, cert, r=np.int64(2)).passed


def test_huge_floors_do_not_wrap_on_both_routes():
    # K10 split 5|5: every own degree is 4 and floor(phi(9)) = 2 here, so a
    # table floor with factor f asks for 2f; factor 2**62 wrapped to -2**63
    # in int64 and passed, and a const floor of 2**63 raised OverflowError
    g = complete_graph(10)
    params = ParamSet(0, 0.01, INTERNAL, d_const=1e-4)
    labels = np.array([0] * 5 + [1] * 5)
    cases = [(certify.table_floor("phi", params, f), f <= 2)
             for f in (-2 ** 70, 0, 2, 3, 2 ** 62, 2 ** 63, 2 ** 70)]
    cases += [(certify.const_floor(k), k <= 4)
              for k in (-2 ** 70, 4, 5, 2 ** 63, 2 ** 64)]
    for floor, holds in cases:
        cert = make_cert(g, [certify.claim_degree_floor("all", "own", floor)])
        res = verify_certificate(g, labels, cert, r=2)
        assert res.passed == holds and res.reason is None, floor
        assert res.witness == (None if holds else 0)
        # the verifier and the pipelines' judge agree
        assert certify.judge(certify.recount(g, labels, 2), cert.claims) == [holds]


def test_zero_denominator_ratio_fails_on_both_routes():
    # K10 split 5|5: the true minimum own ratio is 4/9; with den = 0 both
    # cross-multiplied sides were 0 at every vertex, so 0/0 "was achieved"
    g = complete_graph(10)
    labels = np.array([0] * 5 + [1] * 5)
    for num, den, holds in ((4, 9, True), (8, 18, True), (0, 0, False), (4, 0, False),
                            (-4, -9, False), (1, -1, False), (0, 1, False)):
        cert = make_cert(g, [certify.claim_extremal_ratio("own", num, den)])
        res = verify_certificate(g, labels, cert, r=2)
        assert res.passed == holds and res.reason is None, (num, den)
        assert res.failed_index == (None if holds else 0)
        assert certify.judge(certify.recount(g, labels, 2), cert.claims) == [holds]
    # a graph without a positive-degree vertex claims den = 0, and only that
    empty = Graph.from_edges(4, [])
    for den, holds in ((0, True), (1, False)):
        cert = make_cert(empty, [certify.claim_extremal_ratio("cross", 0, den)])
        assert verify_certificate(empty, np.array([0, 0, 1, 1]), cert, r=2).passed == holds


def ref_ratio_claim(graph, col, num, den):
    """The extremal_ratio verdict and witness in Fractions: the first
    positive-degree vertex whose ratio lies below num/den fails the claim;
    else it holds iff some ratio equals num/den.  den < 1 fails, with no
    witness, unless no vertex has positive degree (then den must be 0)."""
    deg = graph.degree.tolist()
    pos = [v for v in range(graph.n) if deg[v] > 0]
    if not pos:
        return den == 0, None
    if den < 1:
        return False, None
    claimed = Fraction(num, den)
    ratios = [Fraction(int(col[v]), deg[v]) for v in pos]
    below = [v for v, q in zip(pos, ratios) if q < claimed]
    if below:
        return False, below[0]
    return claimed in ratios, None


@st.composite
def ratio_cases(draw):
    """The count of a labeled graph and an (own or cross) extremal_ratio
    claim near, at or far from the true minimum."""
    g = draw(graphs() | st.builds(
        gen_gnp, st.integers(20, 60), st.sampled_from([0.1, 0.3]), st.integers(0, 99)))
    r = draw(st.integers(2, 3))
    labels = np.array(draw(st.lists(st.integers(0, r - 1), min_size=g.n,
                                    max_size=g.n)), dtype=np.int64)
    stat = draw(st.sampled_from(["own", "cross"]))
    ctx = certify.recount(g, labels, r)
    col, deg = ctx.stat(stat), g.degree
    pos = np.flatnonzero(deg)
    true = min((Fraction(int(col[v]), int(deg[v])) for v in pos), default=Fraction(0))
    top = int(deg.max(initial=0))
    big = st.integers(-2 ** 70, 2 ** 70)
    num, den = draw(st.one_of(
        st.just((true.numerator, true.denominator)),  # the true minimum
        st.sampled_from([2, 3, 2 ** 31, 2 ** 40, 2 ** 70]).map(  # unreduced multiples
            lambda k: (k * true.numerator, k * true.denominator)),
        st.just((true.numerator + 1, true.denominator)),
        st.tuples(st.integers(top + 1, top + 4), st.just(top + 1)),  # num > den
        st.tuples(st.integers(-2 ** 70, -1), st.integers(1, 5)),  # num < 0
        st.tuples(st.integers(0, 3), st.integers(top + 1, 2 ** 70)),  # den > top
        st.tuples(st.integers(0, 5), st.just(0)),  # den = 0
        st.tuples(big, big),
        st.tuples(st.integers(0, top + 1), st.integers(1, top + 1))))
    return ctx, stat, num, den


@settings(max_examples=400, deadline=None)
@given(ratio_cases())
def test_extremal_ratio_matches_a_fraction_reference(case):
    ctx, stat, num, den = case
    claim = certify.claim_extremal_ratio(stat, num, den)
    assert certify._check_claim(ctx, claim) == \
        ref_ratio_claim(ctx.graph, ctx.stat(stat), num, den)


def test_judge_one_flag_per_claim():
    g = complete_graph(4)
    claims = [certify.claim_balance(1), certify.claim_part_sizes([3, 1]),
              certify.claim_degree_floor("all", "own", certify.const_floor(1))]
    ctx = certify.recount(g, np.array([0, 0, 1, 1]), 2)
    assert certify.judge(ctx, claims) == [True, False, True]
    assert certify.judge(ctx, []) == []
    with pytest.raises(ValueError):
        certify.recount(g, np.array([0, 0, 1, 3]), 2)


def test_tripartition_claims_per_mode():
    # tripartition's own conditions: table floors, doubled on C, and the window
    # [floor((1-c-3eps)n/2), ceil((1-c-eps)n/2)]
    record = {"shape": "tripartition", "c": 0.0, "eps": 0.02, "d_const": 0.01}
    internal = certify.statement(dict(record, mode=INTERNAL), 100)
    assert list(internal) == ["size_window", "floor_a", "floor_b", "floor_c"]
    assert [(c["source"], c["target"], c["floor"]["fn"], c["floor"]["factor"])
            for c in internal["floor_a"] + internal["floor_b"] + internal["floor_c"]] \
        == [(0, 0, "phi", 1), (1, 1, "phi", 1), (2, 0, "phi", 2), (2, 1, "phi", 2)]
    assert internal["floor_a"][0]["floor"] == certify.table_floor(
        "phi", ParamSet(0.0, 0.02, INTERNAL, d_const=0.01))
    external = certify.statement(dict(record, mode=EXTERNAL), 100)
    assert list(external) == ["size_window", "floor_cross", "floor_z"]
    assert [(c["source"], c["target"], c["floor"]["fn"], c["floor"]["factor"])
            for c in external["floor_cross"] + external["floor_z"]] \
        == [(0, 1, "psi", 1), (1, 0, "psi", 1), (2, 0, "psi", 2), (2, 1, "psi", 2)]
    assert [(c["part"], c["lo"], c["hi"]) for c in internal["size_window"]] \
        == [(0, 47.0, 49.0), (1, 47.0, 49.0)] == \
        [(c["part"], c["lo"], c["hi"]) for c in external["size_window"]]
    # the integer-floor tripartition names the floors of A and B jointly
    tripart = certify.statement({"shape": "tripart", "mode": INTERNAL, "k": 2, "c": 0.5,
                                 "eps": 0.5, "window": [[1, 3], [2, 4]]}, 30)
    assert list(tripart) == ["size_window", "floor_ab", "floor_c"]
    assert [(c["source"], c["target"], c["floor"]["value"])
            for c in tripart["floor_ab"] + tripart["floor_c"]] \
        == [(0, 0, 2), (1, 1, 2), (2, 0, 4), (2, 1, 4)]
    assert [(c["part"], c["lo"], c["hi"]) for c in tripart["size_window"]] \
        == [(0, 1.0, 3.0), (1, 2.0, 4.0)]


def test_statement_per_shape():
    n = 10
    bisect = certify.statement({"shape": "bisect", "mode": EXTERNAL, "eps": 0.02,
                                "d_const": 0.01}, n)
    assert bisect == {"balance": [certify.claim_balance(1)],
                      "floor": [certify.claim_degree_floor("all", "cross", certify.table_floor(
                          "psi", ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01)))]}
    # (1 - eps) n from eps itself: (1 - Fraction(0.1)) * 10 is just below 9,
    # while Fraction(1 - 0.1) * 10 is 9.000...2, which rounds up to 10
    dual = certify.statement({"shape": "dual", "mode": INTERNAL, "k": 2, "eps": 0.1}, n)
    assert dual == {"balance": [certify.claim_balance(1)],
                    "primary": [certify.claim_degree_floor("all", "own", certify.const_floor(2))],
                    "secondary": [certify.claim_count_meeting_floor("cross", 2, 9)]}
    dual = certify.statement({"shape": "dual", "mode": EXTERNAL, "k": 1, "eps": 0.5}, 7)
    assert dual["primary"][0]["target"] == "cross"
    assert dual["secondary"] == [certify.claim_count_meeting_floor("own", 1, 4)]
    # ceil(k n / 2): 3 * 7 / 2 = 10.5
    assert certify.statement({"shape": "cutavg", "k": 3}, 7) == {
        "balance": [certify.claim_balance(1)],
        "own": [certify.claim_degree_floor("all", "own", certify.const_floor(3))],
        "cut": [certify.claim_cut_edges_at_least(11)]}
    # largest remainders: 2, 3, 5 of 10; 1.4, 2.1, 3.5 of 7 round to 1, 2, 4
    rpart = {"shape": "rpart", "alpha": ["1/5", "3/10", "1/2"]}
    assert certify.statement(rpart, 10) == {"sizes": [certify.claim_part_sizes([2, 3, 5])]}
    assert certify.statement(rpart, 7) == {"sizes": [certify.claim_part_sizes([1, 2, 4])]}
    # the default tripart window is [(1-c-eps)n/2, (1-c)n/2]
    tripart = certify.statement({"shape": "tripart", "mode": EXTERNAL, "k": 1, "c": 0.5,
                                 "eps": 0.25, "window": None}, 40)
    assert [(c["lo"], c["hi"]) for c in tripart["size_window"]] == [(5.0, 10.0)] * 2
    assert [(c["source"], c["target"]) for c in tripart["floor_ab"]] == [(0, 1), (1, 0)]


@pytest.mark.parametrize("record,error", [
    ({}, KeyError),
    ({"shape": "square"}, ValueError),
    ({"shape": "bisect", "mode": "sideways", "eps": 0.1, "d_const": 1.0}, KeyError),
    ({"shape": "bisect", "mode": INTERNAL, "eps": 1.5, "d_const": 1.0}, ValueError),
    ({"shape": "dual", "mode": INTERNAL, "k": 1.5, "eps": 0.1}, ValueError),
    ({"shape": "cutavg", "k": True}, ValueError),
    ({"shape": "dual", "mode": INTERNAL, "k": 1, "eps": float("inf")}, OverflowError),
    ({"shape": "rpart", "alpha": ["1/0", "1"]}, ZeroDivisionError),
    ({"shape": "rpart", "alpha": ["1/25", "24/25"]}, ValueError),
    ({"shape": "tripart", "mode": INTERNAL, "k": 1, "c": 0.5, "eps": 0.1,
      "window": 5}, TypeError),
    ({"shape": "tripart", "mode": INTERNAL, "k": 1, "c": 0.5, "eps": 0.1,
      "window": [[1, 2, 3]]}, ValueError),
    ([], TypeError)])
def test_statement_refuses_a_record_it_cannot_read(record, error):
    with pytest.raises(error):
        certify.statement(record, 10)


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
        assert not res.passed and res.witness is None and "shape" in res.reason
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
    # the empty graph has no vertex to read a minimum from: only 0 holds
    (Graph.from_edges(0, []), [], [certify.claim_extremal_stat("min_own_degree", 1)],
     0, None),
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


# -- one mutated field of a golden claim ---------------------------------------


mutation_bases = lru_cache(maxsize=None)(_mutation_bases)


def int_fields(claim, path=()):
    """Paths to the integer leaves of a claim (nested floors and lists too)."""
    if isinstance(claim, dict):
        items = claim.items()
    elif isinstance(claim, list):
        items = enumerate(claim)
    else:
        return [path] if type(claim) is int else []
    return [p for key, value in items for p in int_fields(value, path + (key,))]


def get_field(claim, path):
    return reduce(operator.getitem, path, claim)


def with_field(claim, path, value):
    claim = copy.deepcopy(claim)
    get_field(claim, path[:-1])[path[-1]] = value
    return claim


@st.composite
def mutated_claims(draw):
    g, rep = draw(st.sampled_from(mutation_bases()))
    claims = rep.certificate.claims
    idx = draw(st.integers(0, len(claims) - 1))
    path = draw(st.sampled_from(int_fields(claims[idx])))
    old = get_field(claims[idx], path)
    new = draw(st.sampled_from([old - 1, old + 1, -1, -old - 1])
               | st.integers(-2**70, 2**70)
               | st.sampled_from([2**63 - 1, 2**63, 2**70, -2**63, -2**63 - 1, -2**70])
               .flatmap(lambda big: st.integers(-2, 2).map(lambda d: big + d)))
    return g, rep, idx, path, new, with_field(claims[idx], path, new)


@settings(max_examples=400, deadline=None)
@given(mutated_claims())
def test_a_mutated_golden_claim_passes_only_when_it_holds(case):
    # each base passes every claim, so a verdict turns only on the mutated one
    g, rep, idx, path, new, mutated = case
    claims = rep.certificate.claims
    cert = dataclasses.replace(rep.certificate,
                               claims=claims[:idx] + [mutated] + claims[idx + 1:])
    res = verify_certificate(g, rep.labels, cert, r=rep.r)
    names_a_part = path[-1] in ("part", "source", "target") or path[0] == "parts"
    if names_a_part and not 0 <= new < rep.r:
        assert not res.passed and res.failed_index == idx
        assert "malformed claim" in res.reason
        return
    assert res.reason is None
    truth = naive_claim_truth(g, rep.labels.tolist(), rep.r, mutated)
    if res.passed:
        assert truth
    else:
        assert res.failed_index == idx and not truth
