import json
import warnings
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest

import degpart
from degpart import bench, certify, cli
from degpart.gen import (GENERATORS, gen_complete_bipartite, gen_gnp,
                         gen_kuhn_osthus, generate)
from degpart.pipelines import SHAPES, PipelineReport, partition_stats, run_shape


def test_gnp_edge_extremes():
    assert gen_gnp(20, 0.0, seed=1).m == 0
    g = gen_gnp(10, 1.0, seed=1)
    assert g.m == comb(10, 2)


def test_gnp_deterministic_and_windowed():
    a = gen_gnp(100, 0.5, seed=42)
    b = gen_gnp(100, 0.5, seed=42)
    ua, va = a.edge_array()
    ub, vb = b.edge_array()
    assert ua.tolist() == ub.tolist() and va.tolist() == vb.tolist()
    # binomial window around 2475 (sd ~ 35, window set generously)
    assert abs(a.m - 2475) <= 300


def test_kuhn_osthus_4_2_profile():
    g = gen_kuhn_osthus(4, 2)
    assert g.n == 10 and g.m == 12
    assert (g.degree[:4] == 3).all()       # C(3,1) per ground vertex
    assert (g.degree[4:] == 2).all()       # l per subset vertex
    assert int(g.degree.min()) == 2        # minimum degree is l


def test_kuhn_osthus_degenerate_single_subset():
    g = gen_kuhn_osthus(3, 3)
    assert g.n == 4
    assert g.degree.tolist() == [1, 1, 1, 3]


def test_kuhn_osthus_degree_closed_form():
    for n, l in [(5, 2), (6, 3), (5, 1)]:
        g = gen_kuhn_osthus(n, l)
        assert (g.degree[:n] == comb(n - 1, l - 1)).all()
        assert (g.degree[n:] == l).all()


def test_kuhn_osthus_size_guard():
    with pytest.raises(ValueError):
        gen_kuhn_osthus(40, 20)


def test_complete_bipartite_profile():
    g = gen_complete_bipartite(3, 5)
    assert sorted(g.degree.tolist(), reverse=True) == [5, 5, 5, 3, 3, 3, 3, 3]
    assert gen_complete_bipartite(2, 2).m == 4  # C4
    assert gen_complete_bipartite(1, 3).degree.tolist() == [3, 1, 1, 1]


def test_bench_empty_manifest_header_only():
    rows = bench.bench_sweep([])
    assert rows == []
    text = bench.rows_to_csv_text(rows)
    assert text.splitlines() == [",".join(bench.COLUMNS)]


def test_bench_k4_row_vacuous_min_ratio():
    manifest = [{"generator": {"type": "gnp", "n": 4, "p": 1.0},
                 "shape": "bisect", "mode": "internal", "seeds": [0]}]
    rows = bench.bench_sweep(manifest)
    assert len(rows) == 2
    pipe = [r for r in rows if r["row_kind"] == "pipeline"][0]
    base = [r for r in rows if r["row_kind"] == "baseline"][0]
    assert pipe["ok"] and pipe["min_own_ratio"] == pytest.approx(1 / 3)
    assert base["min_own_ratio"] == pytest.approx(1 / 3)


def test_bench_rows_recomputable_from_emitted_labels():
    manifest = [{"generator": {"type": "gnp", "n": 30, "p": 0.3},
                 "shape": "bisect", "mode": "internal", "seeds": [1]}]
    rows = bench.bench_sweep(manifest, emit_labels=True)
    pipe = [r for r in rows if r["row_kind"] == "pipeline"][0]
    g = generate("gnp", {"n": 30, "p": 0.3, "seed": 1})
    labels = np.array([int(x) for x in pipe["labels"].split()])
    stats = partition_stats(certify.recount(g, labels, 2))
    assert stats["min_own_degree"] == pipe["min_own_degree"]
    assert stats["cut_edges"] == pipe["cut_edges"]


def test_bench_failures_become_rows():
    manifest = [{"generator": {"type": "nonsense"}, "seeds": [0]}]
    rows = bench.bench_sweep(manifest)
    assert len(rows) == 1 and rows[0]["error"]


def test_bench_csv_write(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"generator": {"type": "gnp", "n": 10, "p": 0.5},
                                     "shape": "bisect", "mode": "internal",
                                     "seeds": [0, 1]}]))
    out = tmp_path / "rows.csv"
    assert cli.main(["bench", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    raw = out.read_bytes()
    lines = raw.decode().split("\r\n")
    # every row ends in \r\n, the csv module's line ending, and no other
    assert lines[-1] == "" and b"\n" not in raw.replace(b"\r\n", b"")
    assert lines[0] == ",".join(bench.COLUMNS)
    assert len(lines[1:-1]) == 4  # a pipeline and a baseline row per seed


def test_cli_gen_and_partition_and_verify(tmp_path):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "cert.json"
    assert cli.main(["gen", "--type", "gnp", "--n", "30", "--p", "0.4",
                     "--seed", "3", "--out", str(gpath)]) == 0
    assert cli.main(["partition", "--graph", str(gpath), "--mode", "int",
                     "--shape", "bisect", "--eps", "0.25", "--seed", "1",
                     "--out", str(cpath)]) == 0
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 0
    # corrupt a label: verification must fail with exit code 1
    payload = json.loads(cpath.read_text())
    payload["labels"][0] = 1 - payload["labels"][0]
    cpath.write_text(json.dumps(payload))
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1


def test_cli_parameter_error_exit_code(tmp_path):
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "10", "--p", "0.5",
              "--out", str(gpath)])
    # eps out of range for internal mode -> parameter error
    assert cli.main(["partition", "--graph", str(gpath), "--mode", "int",
                     "--shape", "bisect", "--eps", "0.7"]) == 2
    assert cli.main(["oracle", "--graph", str(gpath),
                     "--objective", "min-own-degree"]) == 0


@pytest.mark.parametrize("command", [
    ["thresholds", "--eps", "1e-300"],
    ["partition", "--graph", "{graph}", "--mode", "int", "--shape", "bisect",
     "--eps", "1e-170"],
])
def test_cli_refuses_an_eps_whose_default_d_is_not_finite(command, tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n1 2\n")
    argv = [arg.format(graph=gpath) for arg in command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps=") and err.count("\n") == 1


def test_cli_thresholds_and_bench(tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["thresholds", "--eps", "0.25", "--d-const", "1",
                     "--degrees", "1:10", "--out", str(out)]) == 0
    assert out.read_text().startswith("i,phi,psi")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        [{"generator": {"type": "gnp", "n": 12, "p": 0.5},
          "shape": "bisect", "mode": "internal", "seeds": [0]}]))
    rows_out = tmp_path / "rows.csv"
    assert cli.main(["bench", "--manifest", str(manifest),
                     "--out", str(rows_out)]) == 0
    assert rows_out.read_text().count("\n") == 3  # header + 2 rows


def test_cli_ko_oracle():
    assert cli.main(["oracle", "--ko", "4", "2", "1"]) == 0
    # a negative floor is a parameter error, not a trivially met one
    assert cli.main(["oracle", "--ko", "4", "2", "-5"]) == 2


def test_cli_ko_oracle_names_a_bad_subset_size(capsys):
    assert cli.main(["oracle", "--ko", "4", "-1", "1"]) == 2
    assert "need 1 <= l <= n, got l=-1, n=4" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["oracle"],
                                  ["oracle", "--graph", "g.txt", "--ko", "4", "2", "1"]])
def test_cli_oracle_needs_exactly_one_of_graph_and_ko(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: degpart oracle")


def test_cli_oracle_prints_exact_ratio(tmp_path, capsys):
    k4, edgeless = tmp_path / "k4.txt", tmp_path / "e.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    edgeless.write_text("# n 4\n")

    def oracle(path, objective):
        capsys.readouterr()
        assert cli.main(["oracle", "--graph", str(path),
                         "--objective", objective]) == 0
        return json.loads(capsys.readouterr().out)

    # every vertex of K4 keeps 1 of its 3 neighbours: 1/3 has no exact float
    out = oracle(k4, "min-own-ratio")
    assert out["value_frac"] == [1, 3] and out["value"] == 1 / 3
    assert oracle(k4, "min-cross-ratio")["value_frac"] == [2, 3]
    assert "value_frac" not in oracle(k4, "min-own-degree")
    assert oracle(edgeless, "min-own-ratio")["value_frac"] is None


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as other JSON readers do."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("objective", ["min-own-ratio", "min-cross-ratio"])
def test_cli_oracle_on_an_edgeless_graph_prints_strict_json(tmp_path, capsys,
                                                            objective):
    edgeless = tmp_path / "e.txt"
    edgeless.write_text("# n 4\n")
    assert cli.main(["oracle", "--graph", str(edgeless),
                     "--objective", objective]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["value"] is None and out["value_frac"] is None
    assert out["labels"] == [0, 0, 1, 1]


@pytest.mark.parametrize("shape", ["bisect", "tripart"])
def test_cli_report_of_an_edgeless_graph_is_strict_json_and_verifies(
        tmp_path, capsys, shape):
    gpath, cpath = tmp_path / "e.txt", tmp_path / "r.json"
    gpath.write_text("# n 6\n")
    assert cli.main(["partition", "--graph", str(gpath), "--shape", shape,
                     "--vacuous-windows", "--out", str(cpath)]) == 0
    stats = strict_json(cpath.read_text())["stats"]
    for name in ("min_own_ratio", "min_cross_ratio"):
        assert stats[name] is None and stats[f"{name}_frac"] is None
    report = PipelineReport.from_jsonable(json.loads(cpath.read_text()))
    assert report.stats["min_own_ratio"] == report.stats["min_cross_ratio"] == inf
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_cli_report_carries_the_stage_one_log(tmp_path):
    gpath, out = tmp_path / "g.txt", tmp_path / "r.json"
    cli.main(["gen", "--type", "gnp", "--n", "40", "--p", "0.4", "--seed", "1",
              "--out", str(gpath)])
    argv = ["partition", "--graph", str(gpath), "--shape", "tripart", "--k", "1",
            "--c", "0.5", "--eps", "0.5", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 1  # stage one holds; the floors then fail
    diagnostics = json.loads(out.read_text())["diagnostics"]
    # the per-attempt lines this run wrote to a side file before the log
    # moved into the report
    assert diagnostics["stage1_attempts"] == 4
    assert diagnostics["stage1_log"] == [
        {"attempt": 0, "sizes": [8, 12, 20], "weight": 0, "violated": ["size"]},
        {"attempt": 1, "sizes": [10, 14, 16], "weight": 0, "violated": ["size"]},
        {"attempt": 2, "sizes": [11, 12, 17], "weight": 0, "violated": ["size"]},
        {"attempt": 3, "sizes": [8, 10, 22], "weight": 0, "violated": []}]
    # an empty window fails all three attempts, and each record says why
    assert cli.main(argv + ["--retries", "3", "--size-window", "1:0"]) == 1
    diagnostics = json.loads(out.read_text())["diagnostics"]
    log = diagnostics["stage1_log"]
    assert diagnostics["stage1_attempts"] == len(log) == 3
    assert [rec["attempt"] for rec in log] == [0, 1, 2]
    assert all(set(rec) == {"attempt", "sizes", "weight", "violated"}
               and "size" in rec["violated"] for rec in log)
    assert diagnostics["failure"] == {"stage": "stage1", "violated": log[-1]["violated"]}


def test_cli_tripart_vacuous_windows(tmp_path):
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "60", "--p", "0.3", "--seed", "2",
              "--out", str(gpath)])
    code = cli.main(["partition", "--graph", str(gpath), "--shape", "tripart",
                     "--k", "1", "--c", "0.5", "--eps", "0.5", "--retries", "3",
                     "--vacuous-windows", "--out", str(tmp_path / "r.json")])
    assert code in (0, 1)


def test_cli_external_bisect_uses_its_default_eps(tmp_path):
    gpath = tmp_path / "g.txt"
    out = tmp_path / "r.json"
    cli.main(["gen", "--type", "gnp", "--n", "40", "--p", "0.4", "--seed", "2",
              "--out", str(gpath)])
    code = cli.main(["partition", "--graph", str(gpath), "--mode", "ext",
                     "--d-const", "1", "--out", str(out)])
    assert code in (0, 1)
    assert json.loads(out.read_text())["certificate"]["params"]["eps"] == 0.09


def test_cli_verify_malformed_labels_exit_1(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "cert.json"
    cli.main(["gen", "--type", "gnp", "--n", "30", "--p", "0.4", "--seed", "3",
              "--out", str(gpath)])
    cli.main(["partition", "--graph", str(gpath), "--seed", "1",
              "--out", str(cpath)])
    payload = json.loads(cpath.read_text())
    # a label out of range names its vertex; a wrong shape or dtype names none
    for labels, why in (
            ([2] + payload["labels"][1:],
             "vertex 0 has label 2 outside [0, 2) (witness vertex 0)"),
            (payload["labels"][:-1], "label array of shape (29,) for n=30"),
            ([0.5] + payload["labels"][1:], "labels have non-integer dtype float64")):
        cpath.write_text(json.dumps(dict(payload, labels=labels)))
        capsys.readouterr()
        assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
        assert capsys.readouterr().out == f"FAIL: {why}\n"


def test_cli_verify_non_integer_r_exit_1(tmp_path, capsys):
    # a report whose r is '2' or 2.5 used to end in a numpy traceback
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "cert.json"
    cli.main(["gen", "--type", "gnp", "--n", "30", "--p", "0.4", "--seed", "3",
              "--out", str(gpath)])
    cli.main(["partition", "--graph", str(gpath), "--seed", "1",
              "--out", str(cpath)])
    payload = json.loads(cpath.read_text())
    # a null r used to be guessed from the labels, and passed
    for r in ("2", 2.5, None):
        cpath.write_text(json.dumps(dict(payload, r=r)))
        capsys.readouterr()
        assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
        assert capsys.readouterr().out == f"FAIL: part count r={r!r} is not an integer >= 1\n"


def test_cli_verify_zero_denominator_ratio_exit_1(tmp_path, capsys):
    # 0/0 used to pass as the min own ratio of a graph with edges
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "cert.json"
    cli.main(["gen", "--type", "gnp", "--n", "30", "--p", "0.4", "--seed", "3",
              "--out", str(gpath)])
    cli.main(["partition", "--graph", str(gpath), "--seed", "1",
              "--out", str(cpath)])
    payload = json.loads(cpath.read_text())
    claims = payload["certificate"]["claims"]
    cert = dict(payload["certificate"],
                claims=claims + [certify.claim_extremal_ratio("own", 0, 0)])
    cpath.write_text(json.dumps(dict(payload, certificate=cert)))
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL: claim #{len(claims)} ")


def test_cli_verify_malformed_claim_or_report_exit_1(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "cert.json"
    cli.main(["gen", "--type", "gnp", "--n", "30", "--p", "0.4", "--seed", "3",
              "--out", str(gpath)])
    cli.main(["partition", "--graph", str(gpath), "--seed", "1",
              "--out", str(cpath)])
    payload = json.loads(cpath.read_text())
    claims = payload["certificate"]["claims"]
    for claim, why in (
            ({"kind": "part_size_window", "part": -1, "lo": 0, "hi": 30}, "'part'"),
            ({"kind": "balance"}, "no 'max_diff'"),
            ({"kind": "no_such_kind"}, "unknown claim kind")):
        cert = dict(payload["certificate"], claims=claims + [claim])
        cpath.write_text(json.dumps(dict(payload, certificate=cert)))
        capsys.readouterr()
        assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL: malformed claim #{len(claims)}: ") and why in out
    for field in ("labels", "certificate", "r"):
        cpath.write_text(json.dumps({k: v for k, v in payload.items() if k != field}))
        capsys.readouterr()
        assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
        assert f"FAIL: malformed report file: missing or bad field '{field}'" \
            in capsys.readouterr().out


def _report_files(tmp_path):
    """A G(30, 0.4) graph file and its bisection report, and the report's
    payload."""
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "cert.json"
    cli.main(["gen", "--type", "gnp", "--n", "30", "--p", "0.4", "--seed", "3",
              "--out", str(gpath)])
    cli.main(["partition", "--graph", str(gpath), "--seed", "1",
              "--out", str(cpath)])
    return gpath, cpath, json.loads(cpath.read_text())


@pytest.mark.parametrize("claims,out", [
    ({}, "FAIL: malformed report file: missing or bad field "
         "'claims' must be a list, got dict\n"),
    ("balance", "FAIL: malformed report file: missing or bad field "
                "'claims' must be a list, got str\n"),
    ([], "FAIL: the bisect statement is not certified: condition 'balance' has no "
         "claim {\"kind\": \"balance\", \"max_diff\": 1}\n")],
    ids=["dict", "str", "empty-list"])
def test_verify_refuses_claims_that_are_not_a_list(tmp_path, capsys, claims, out):
    # "claims": {} used to pass, since list({}) is []; "claims": [] passed
    # until the verifier required the recorded statement
    gpath, cpath, payload = _report_files(tmp_path)
    cert = dict(payload["certificate"], claims=claims)
    cpath.write_text(json.dumps(dict(payload, certificate=cert)))
    capsys.readouterr()
    code = cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)])
    assert (code, capsys.readouterr().out) == (1, out)


def _floor_claim(claims):
    return next(i for i, c in enumerate(claims) if c["kind"] == "degree_floor")


@pytest.mark.parametrize("edit,why", [
    (lambda cert: cert["claims"].pop(_floor_claim(cert["claims"])), "condition 'floor'"),
    (lambda cert: cert["claims"][_floor_claim(cert["claims"])]["floor"].update(
        d_const=1e9), "condition 'floor'"),
    (lambda cert: cert.update(claims=[]), "condition 'balance'"),
    (lambda cert: cert["params"].pop("statement"), "records no statement")],
    ids=["floor-deleted", "d_const-1e9", "no-claims", "no-statement"])
def test_verify_passes_only_a_certified_statement(tmp_path, capsys, edit, why):
    # on a G(150, 0.3) bisection, the first three used to print "PASS: all
    # claims verified" and exit 0; the fourth is a report made before the
    # statement was recorded
    gpath, cpath = tmp_path / "g.txt", tmp_path / "r.json"
    assert cli.main(["gen", "--type", "gnp", "--n", "150", "--p", "0.3", "--seed", "1",
                     "--out", str(gpath)]) == 0
    assert cli.main(["partition", "--graph", str(gpath), "--out", str(cpath)]) == 0
    payload = json.loads(cpath.read_text())
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 0
    record = payload["certificate"]["params"]["statement"]
    assert capsys.readouterr().out == \
        f"PASS: all claims verified; statement certified: {json.dumps(record)}\n"
    edit(payload["certificate"])
    cpath.write_text(json.dumps(payload))
    graph = degpart.load_graph(gpath.read_text())
    result = certify.verify_report(graph, PipelineReport.from_jsonable(payload))
    assert not result.passed and result.statement in (False, None)
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    out = capsys.readouterr().out
    assert out == f"FAIL: {result.reason}\n" and why in out


@pytest.mark.parametrize("edit,why", [
    (lambda payload: [], "the report must be a JSON object, got list"),
    (lambda payload: None, "the report must be a JSON object, got NoneType"),
    (lambda payload: 5, "the report must be a JSON object, got int"),
    (lambda payload: dict(payload, certificate=[]),
     "'certificate' must be an object, got list"),
    (lambda payload: dict(payload, certificate="x"),
     "'certificate' must be an object, got str")],
    ids=["list", "null", "int", "certificate-list", "certificate-str"])
def test_verify_names_a_report_or_certificate_that_is_not_an_object(
        tmp_path, capsys, edit, why):
    # these used to print Python internals ("list indices must be integers",
    # "object is not subscriptable", "object has no attribute 'get'")
    gpath, cpath, payload = _report_files(tmp_path)
    cpath.write_text(json.dumps(edit(payload)))
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    assert capsys.readouterr().out == \
        f"FAIL: malformed report file: missing or bad field {why}\n"


@pytest.mark.parametrize("kind", [[1], {}], ids=["list", "dict"])
def test_verify_refuses_a_claim_kind_that_is_no_string(tmp_path, capsys, kind):
    # a list or dict kind used to end in "TypeError: unhashable type"
    gpath, cpath, payload = _report_files(tmp_path)
    claims = payload["certificate"]["claims"]
    cert = dict(payload["certificate"], claims=claims + [{"kind": kind}])
    cpath.write_text(json.dumps(dict(payload, certificate=cert)))
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    assert capsys.readouterr().out == \
        f"FAIL: malformed claim #{len(claims)}: unknown claim kind {kind!r}\n"


@pytest.mark.parametrize("d", ["nan", "inf", "-inf"])
def test_a_non_finite_d_const_is_refused_by_verify_and_partition(tmp_path, capsys, d):
    # verify used to print PASS for a floor claim with "d_const": NaN, and
    # partition ran the whole pipeline and then died in json.dumps
    gpath, cpath, payload = _report_files(tmp_path)
    claims = payload["certificate"]["claims"]
    idx = next(i for i, c in enumerate(claims) if c["kind"] == "degree_floor")
    claims[idx]["floor"]["d_const"] = float(d)
    cpath.write_text(json.dumps(payload))  # written as NaN, Infinity, -Infinity
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL: malformed claim #{idx}: degree_floor claim has a "
                          f"bad 'floor': ") and out.count("\n") == 1
    for shape in ("bisect", "tripart", "dual", "cutavg"):
        assert cli.main(["partition", "--graph", str(gpath), "--shape", shape,
                         f"--d-const={d}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: d_const must be finite, got {float(d)}\n"


@pytest.mark.parametrize("r", [10 ** 30, 10 ** 6])
def test_verify_refuses_a_part_count_above_the_vertex_count(tmp_path, capsys, r):
    # r=10**30 used to raise OverflowError from the count, and r=10**6 to
    # allocate n*r counters (about 248 MB) before any check
    gpath, cpath, payload = _report_files(tmp_path)
    why = f"part count r={r!r} exceeds max(3, n) = 30"
    report = PipelineReport.from_jsonable(payload)
    res = certify.verify_certificate(degpart.load_graph(gpath.read_text()),
                                     report.labels, report.certificate, r=r)
    assert not res.passed and res.reason == why
    cpath.write_text(json.dumps(dict(payload, r=r)))
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    assert capsys.readouterr().out == f"FAIL: {why}\n"


def test_verify_refuses_a_non_string_graph_hash(tmp_path, capsys):
    # "graph_hash": 5 used to raise TypeError from the hash comparison
    gpath, cpath, payload = _report_files(tmp_path)
    cert = dict(payload["certificate"], graph_hash=5)
    why = "certificate field 'graph_hash' must be a string, got 5"
    report = PipelineReport.from_jsonable(dict(payload, certificate=cert))
    with pytest.raises(ValueError, match=why):
        certify.verify_certificate(degpart.load_graph(gpath.read_text()),
                                   report.labels, report.certificate, r=2)
    cpath.write_text(json.dumps(dict(payload, certificate=cert)))
    capsys.readouterr()
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    assert capsys.readouterr().out == f"FAIL: {why}\n"


@pytest.mark.parametrize("manifest,why", [
    ({"generator": {"type": "gnp"}}, "manifest must be a list of entries, got dict"),
    ([{"seeds": [0]}], "manifest entry #0 needs a 'generator' object"),
    ([{"generator": {"type": "gnp", "n": 5}}, {"generator": "gnp"}],
     "manifest entry #1 needs a 'generator' object"),
    ([{"generator": {"type": "gnp"}, "seeds": 3}],
     "manifest entry #0 has 'seeds' that is not a list of integers"),
    ([["gnp", 10]], "manifest entry #0 is a list, not an object"),
    ([{"generator": {"type": "gnp", "n": 5}},
      {"generator": {"type": "complete_bipartite", "a": 2, "b": 2}, "seeds": [0, -1]}],
     "manifest entry #1 has a negative seed -1")])
def test_bench_screens_its_manifest_before_any_run(tmp_path, capsys, manifest, why):
    # each of these ended in a traceback from inside the sweep, or, for the
    # negative seed, in "expected non-negative integer" after the earlier runs
    with pytest.raises(ValueError, match=f"^{why}$"):
        bench.bench_sweep(manifest)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["bench", "--manifest", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {why}\n"


def test_bench_reports_a_malformed_window_or_budget_as_a_diagnosis():
    # these gave "'int' object is not subscriptable", "not enough values to
    # unpack" and "'>' not supported ..." as error cells
    window = ("size_window must be 'vacuous', (lo, hi) or ((loA, hiA), "
              "(loB, hiB)) of finite reals, got ")
    cases = [({"size_window": 5}, window + "5"),
             ({"size_window": [1]}, window + "[1]"),
             ({"weight_budget": "abc"},
              "weight_budget must be 'vacuous' or a number, got 'abc'"),
             ({"shape": "tripart", "k": 1.5}, "k must be an integer >= 0, got 1.5")]
    rows = bench.bench_sweep([{"generator": {"type": "gnp", "n": 12, "p": 0.4},
                               **options} for options, _ in cases])
    assert [row["row_kind"] for row in rows] == ["pipeline", "baseline"] * len(cases)
    assert [row["error"] for row in rows[::2]] == [why for _, why in cases]
    assert not any(row["ok"] for row in rows[::2])


def test_bench_has_no_workers_option(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text("[]")
    with pytest.raises(SystemExit):
        cli.main(["bench", "--manifest", str(manifest), "--workers", "2"])


def test_cli_gen_runs_every_generator_of_the_table(tmp_path, capsys):
    args = {"gnp": ["--n", "12", "--p", "0.4", "--seed", "5"],
            "kuhn_osthus": ["--n", "4", "--l", "2"],
            "complete_bipartite": ["--a", "2", "--b", "3"]}
    assert set(args) == set(GENERATORS)
    for name, argv in args.items():
        capsys.readouterr()
        assert cli.main(["gen", "--type", name] + argv) == 0
        params = dict(zip([a[2:] for a in argv[::2]], argv[1::2]))
        assert capsys.readouterr().out == \
            generate(name, params).to_edge_list_text()
    with pytest.raises(ValueError, match="unknown generator type 'ko'"):
        generate("ko", {"n": 4, "l": 2})


# (shape, CLI mode, options): every shape in each mode it runs in
AGREE_CASES = [
    ("bisect", "int", {"eps": 0.25, "d_const": 1.0}),
    ("bisect", "ext", {"d_const": 1.0}),
    ("tripart", "int", {"k": 1, "c": 0.5, "eps": 0.5}),
    ("tripart", "ext", {"k": 1, "c": 0.5}),
    ("rpart", "int", {"alpha": ["1/5", "3/10", "1/2"]}),
    ("rpart", "ext", {"alpha": ["1/5", "3/10", "1/2"]}),
    ("dual", "int", {"k": 1, "eps": 0.5}),
    ("dual", "ext", {"k": 1, "eps": 0.5, "d_const": 1.0}),
    ("cutavg", "int", {"k": 1, "eps": 0.5}),
]


def test_agree_cases_cover_every_shape():
    assert {shape for shape, _, _ in AGREE_CASES} == set(degpart.pipelines.SHAPES)


@pytest.mark.parametrize("shape,mode,options", AGREE_CASES,
                         ids=[f"{s}-{m}" for s, m, _ in AGREE_CASES])
def test_bench_and_cli_agree_on_every_shape(shape, mode, options, tmp_path):
    seed = 2
    gpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    assert cli.main(["gen", "--type", "gnp", "--n", "40", "--p", "0.4",
                     "--seed", str(seed), "--out", str(gpath)]) == 0
    flags = []
    for key, value in options.items():
        text = ",".join(value) if key == "alpha" else str(value)
        flags += ["--" + key.replace("_", "-"), text]
    code = cli.main(["partition", "--graph", str(gpath), "--shape", shape,
                     "--mode", mode, "--seed", str(seed), "--out", str(rpath)]
                    + flags)
    assert code in (0, 1)
    report = json.loads(rpath.read_text())
    # verify passes the report exactly when its statement holds, as ok says
    assert cli.main(["verify", "--graph", str(gpath), "--cert", str(rpath)]) == code

    entry = dict(options, generator={"type": "gnp", "n": 40, "p": 0.4},
                 shape=shape, mode=cli.MODES[mode], seeds=[seed])
    row = bench.bench_sweep([entry])[0]
    assert row["row_kind"] == "pipeline" and row["error"] == ""
    assert row["ok"] == report["ok"] and report["shape"] == shape
    for key in ("min_own_degree", "min_cross_degree", "min_own_ratio",
                "min_cross_ratio", "cut_edges", "cut_avg_degree"):
        assert row[key] == report["stats"][key], key


def test_bisect_with_nonzero_c_is_refused_on_both_routes(tmp_path, capsys):
    # c=0.5 used to fail on eps <= (1-c)/4 on the command line, and to run at
    # c=0 in the bench while its row recorded c=0.5
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "20", "--p", "0.4",
              "--out", str(gpath)])
    want = "bisect_internal needs an internal-mode ParamSet with c=0"
    capsys.readouterr()
    assert cli.main(["partition", "--graph", str(gpath), "--shape", "bisect",
                     "--c", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    row = bench.bench_sweep([{"generator": {"type": "gnp", "n": 20, "p": 0.4},
                              "shape": "bisect", "c": 0.5, "seeds": [0]}])[0]
    assert row["row_kind"] == "pipeline" and row["error"] == want


def test_options_a_shape_does_not_read_are_refused(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "20", "--p", "0.4",
              "--out", str(gpath)])
    for argv, why in ((["--shape", "rpart", "--retries", "3"],
                       "rpart has no stage one; it takes no attempts"),
                      (["--shape", "cutavg", "--mode", "ext"],
                       "cutavg runs in internal mode only, got 'external'")):
        capsys.readouterr()
        assert cli.main(["partition", "--graph", str(gpath)] + argv) == 2
        assert capsys.readouterr().err == f"error: {why}\n"
    row = bench.bench_sweep([{"generator": {"type": "gnp", "n": 20, "p": 0.4},
                              "shape": "rpart", "size_window": [0, 20],
                              "seeds": [0]}])[0]
    assert row["error"] == "rpart has no stage one; it takes no size_window"


@pytest.mark.parametrize("command, flag, text", [
    (["partition"], "--size-window", "3"),
    (["partition"], "--size-window", "a:b"),
    (["partition"], "--size-window", "1:2:3"),
    (["thresholds", "--eps", "0.25"], "--degrees", "5"),
    (["thresholds", "--eps", "0.25"], "--degrees", "1:x")])
def test_lo_hi_flags_name_themselves(tmp_path, capsys, command, flag, text):
    # these printed "not enough values to unpack (expected 2, got 1)" and
    # "could not convert string to float: 'a'"
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "20", "--p", "0.4", "--out", str(gpath)])
    if command[0] == "partition":
        command = command + ["--graph", str(gpath)]
    capsys.readouterr()
    assert cli.main(command + [flag, text]) == 2
    assert capsys.readouterr().err == f"error: {flag} takes lo:hi, got {text!r}\n"


def test_an_inverted_degree_range_is_refused(tmp_path, capsys):
    # this wrote only the CSV header and exited 0; an inverted --size-window
    # stays a window that no attempt meets
    assert cli.main(["thresholds", "--eps", "0.25", "--degrees", "5:1"]) == 2
    assert capsys.readouterr().err == "error: --degrees takes lo <= hi, got '5:1'\n"
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "20", "--p", "0.4", "--out", str(gpath)])
    assert cli.main(["partition", "--graph", str(gpath), "--retries", "2",
                     "--size-window", "5:1"]) == 1


def test_parameters_a_shape_never_reads_are_refused(tmp_path, capsys):
    # dual used to run at c = 1-eps = 0.6 and record c=0.6 for this call
    g = gen_gnp(40, 0.4, seed=0)
    with pytest.raises(ValueError, match="^dual does not read c; keep the default$"):
        run_shape(g, "dual", "internal", c=0.7, k=1, eps=0.4)
    for shape, mode, given, want in (
            ("cutavg", "internal", {"c": 0.25, "k": 1}, "c"),
            ("bisect", "external", {"k": 2}, "k"),
            ("rpart", "internal", {"c": 0.5, "k": 1, "eps": 0.3, "d_const": 1.0},
             "c, k, eps, d_const"),
            ("rpart", "external", {"d_const": 1.0}, "d_const")):
        with pytest.raises(ValueError, match=f"^{shape} does not read {want};"):
            run_shape(g, shape, mode, **given)
    gpath = tmp_path / "g.txt"
    cli.main(["gen", "--type", "gnp", "--n", "40", "--p", "0.4", "--out", str(gpath)])
    capsys.readouterr()
    assert cli.main(["partition", "--graph", str(gpath), "--shape", "dual",
                     "--c", "0.7"]) == 2
    assert capsys.readouterr().err == "error: dual does not read c; keep the default\n"
    row = bench.bench_sweep([{"generator": {"type": "gnp", "n": 40, "p": 0.4},
                              "shape": "dual", "c": 0.7, "k": 1, "eps": 0.4,
                              "seeds": [0]}])[0]
    assert row["row_kind"] == "pipeline" and row["error"] == \
        "dual does not read c; keep the default"


@pytest.mark.parametrize("shape", SHAPES)
def test_cli_defaults_run_every_shape(shape, tmp_path):
    gpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    cli.main(["gen", "--type", "gnp", "--n", "40", "--p", "0.4", "--out", str(gpath)])
    assert cli.main(["partition", "--graph", str(gpath), "--shape", shape,
                     "--out", str(rpath)]) in (0, 1)
    assert json.loads(rpath.read_text())["shape"] == shape


def test_distribution_version_is_the_package_version():
    # pyproject.toml reads its version from pipelines.VERSION, as setuptools
    # resolves it when it builds the distribution
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    from setuptools.dist import Distribution
    root = Path(__file__).resolve().parent.parent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dist = pyprojecttoml.apply_configuration(Distribution(), root / "pyproject.toml")
    assert dist.get_version() == degpart.__version__


def test_report_records_the_package_version(tmp_path):
    gpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    cli.main(["gen", "--type", "gnp", "--n", "20", "--p", "0.4",
              "--out", str(gpath)])
    cli.main(["partition", "--graph", str(gpath), "--out", str(rpath)])
    report = json.loads(rpath.read_text())
    assert report["certificate"]["version"] == degpart.__version__
