import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import pairs  # noqa: E402
from pairs import merge_rounds, summarize, summarize_traced  # noqa: E402

END_TO_END = [{"name": "int_solve_s.p50", "better": "lower", "bound": 0.25},
              {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def report(solve, ops, out="o", failed=0):
    return {"metrics": {"int_solve_s.p50": {"value": solve},
                        "ops_per_s": {"value": ops}},
            "attempted": 10, "failed": failed, "correct": failed == 0,
            "input_sha256": "i", "output_sha256": out}


def test_summary_of_a_clear_gain():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.0]
    runs = [(report(p, 10.0), report(0.5 * p, 10.0 + k))
            for k, p in enumerate(parent)]
    s = summarize(runs, END_TO_END)
    assert (s["pairs"], s["attempted"], s["failed"]) == (
        10, {"parent": 100, "change": 100}, {"parent": 0, "change": 0})
    assert s["output_sha256_equal"] and s["input_sha256_equal"] and s["correct"]
    solve = s["metrics"]["int_solve_s.p50"]
    assert (solve["parent_median"], solve["change_median"]) == (1.0, 0.5)
    assert solve["rel_change"] == -0.5 and solve["change_wins"] == "10/10"
    assert solve["parent_iqr"] == pytest.approx(1.0625 - 0.9875)
    assert solve["clear_gain"] and solve["within_bound"]
    assert solve["parent"] == parent
    # higher is better for ops_per_s: pair 0 ties, so the change wins 9/10,
    # but a 4.5/s gain on an IQR of 0 is clear
    ops = s["metrics"]["ops_per_s"]
    assert ops["change_wins"] == "9/10" and ops["clear_gain"]


def test_summary_of_a_regression_and_a_mismatch():
    runs = [(report(1.0, 10.0), report(1.3, 7.0, out="x" if k == 3 else "o",
                                      failed=int(k == 5)))
            for k in range(10)]
    s = summarize(runs, END_TO_END)
    assert not s["output_sha256_equal"] and s["input_sha256_equal"]
    assert s["failed"] == {"parent": 0, "change": 1} and not s["correct"]
    for name in ("int_solve_s.p50", "ops_per_s"):
        m = s["metrics"][name]
        assert m["change_wins"] == "0/10"
        assert not m["clear_gain"] and not m["within_bound"]


def traced(sha="o", **work):
    """A traced report: one layer's self time, calls and work counts per op."""
    return {"self_s_per_op": {"graph.part_profile": 0.004},
            "calls_per_op": {"graph.part_profile": 3.0,
                             "thresholds.build_threshold_table": work.get("builds", 3.0)},
            "counts_per_op": {"dense.deleted": work.get("deleted", 145.25),
                              **work.get("extra", {})},
            "output_sha256": sha, "metrics": {}, "spans": 10}


def test_traced_summary_keeps_each_side_and_lists_changed_work():
    s = summarize_traced(traced(), traced(builds=2.0, extra={"cuts.flips": 1.5}))
    assert set(s) == {"parent", "change", "output_sha256_equal", "work_changed"}
    # each side keeps its per-layer figures and nothing else of the report
    assert s["parent"] == {key: traced()[key] for key in (
        "self_s_per_op", "calls_per_op", "counts_per_op", "output_sha256")}
    assert s["change"]["calls_per_op"]["thresholds.build_threshold_table"] == 2.0
    assert s["output_sha256_equal"]
    # a count missing on one side reads 0 there; equal counts are not listed
    assert s["work_changed"] == {
        "calls_per_op": {"thresholds.build_threshold_table": [3.0, 2.0]},
        "counts_per_op": {"cuts.flips": [0, 1.5]}}


def test_traced_summary_of_identical_work_and_a_changed_output():
    s = summarize_traced(traced(), traced(sha="x"))
    assert s["work_changed"] == {"calls_per_op": {}, "counts_per_op": {}}
    assert not s["output_sha256_equal"]
    assert (s["parent"]["output_sha256"], s["change"]["output_sha256"]) == ("o", "x")


def test_three_rounds_merge_to_the_median_self_time():
    rounds = [traced(), traced(), traced()]
    for r, t in zip(rounds, (0.005, 0.002, 0.004)):
        r["self_s_per_op"] = {"graph.part_profile": t, "cuts.local_maxcut": 10 * t}
    del rounds[1]["self_s_per_op"]["cuts.local_maxcut"]  # reads 0 there
    merged, mismatch = merge_rounds(rounds)
    assert merged["self_s_per_op"] == {"cuts.local_maxcut": 0.04,
                                       "graph.part_profile": 0.004}
    # the rest of the report is the first round's, untouched
    assert rounds[0]["self_s_per_op"]["graph.part_profile"] == 0.005
    assert {key: merged[key] for key in ("calls_per_op", "counts_per_op",
                                         "output_sha256")} == {
        key: traced()[key] for key in ("calls_per_op", "counts_per_op",
                                       "output_sha256")}
    assert mismatch == {}
    # a merged side goes to summarize_traced like a single traced run
    s = summarize_traced(merged, merge_rounds([traced()] * 3)[0])
    assert s["change"]["self_s_per_op"] == {"graph.part_profile": 0.004}
    assert s["work_changed"] == {"calls_per_op": {}, "counts_per_op": {}}


def test_three_rounds_report_every_count_and_digest_that_differs():
    rounds = [traced(), traced(builds=2.0, sha="x"),
              traced(extra={"cuts.flips": 1.5})]
    _, mismatch = merge_rounds(rounds)
    assert mismatch == {
        "calls_per_op": {"thresholds.build_threshold_table": [3.0, 2.0, 3.0]},
        "counts_per_op": {"cuts.flips": [0, 0, 1.5]},
        "output_sha256": ["o", "x", "o"]}


def test_a_missing_workdir_is_made(tmp_path, monkeypatch):
    # TemporaryDirectory(dir=...) used to raise FileNotFoundError here
    workdir = tmp_path / "fresh" / "exports"
    made = []

    class Exported(Exception):
        pass

    def export(ref, dest):
        made.append((ref, dest.parent.parent))
        raise Exported

    monkeypatch.setattr(pairs, "export", export)
    with pytest.raises(Exported):
        pairs.main(["HEAD", "HEAD", "--workload", "gnp-paper", "--out",
                    str(tmp_path / "out.json"), "--workdir", str(workdir)])
    assert made == [("HEAD", workdir)]
    assert workdir.is_dir() and not any(workdir.iterdir())
