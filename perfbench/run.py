"""Benchmark of the degpart engine: one closed-loop client, checked ops.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gnp-paper --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  The run makes
the workload's inputs from the seed, loads them through ``load_graph``
(set-up, timed several times), then calls the public API one op at a time
for ``--seconds`` seconds, checking every op.  With ``--trace 0`` it reports
the end-to-end metrics.  With ``--trace 1`` it runs whole cycles of the op
pool in which each load and each op runs once untraced and once with every
layer wrapped, and reports per-layer metrics per op.  A table of all figures
goes to standard output and the full report to ``.perfbench_out/``; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import tracing
from probe import probe

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# set-up is repeated at least this often, and until it has taken SETUP_SECONDS
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 3, 0.5, 200
TAIL_BEYOND = 10
# End-to-end timings are in reference seconds: measured seconds scaled by
# PROBE_REF_S over the median time of the probes taken alongside them (after
# each set-up load, or after each op).  The host's speed swings by up to 1.7x
# from one run to the next; the probe swings with it, so the scaled figures
# follow the program, not the host.
PROBE_REF_S = 0.006

END_TO_END = {
    "setup_s": "s",
    "int_solve_s.p50": "s",
    "ext_solve_s.p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer self time and calls, by span name; all are per op
SELF_S = ("graph.load_graph", "graph.from_edges", "graph.cross_subgraph",
          "graph.part_profile", "thresholds.build_threshold_table",
          "stage1.stage_one", "stage1.goodness_map", "dense.extract_dense",
          "refine_int.refine_internal_once",
          "refine_int.check_tripartition_conditions",
          "refine_ext.refine_external", "refine_ext.check_external_conditions",
          "cuts.biased_max_r_cut", "cuts.check_biased_local_min",
          "cuts.local_maxcut", "pipelines.bisect_internal",
          "pipelines.bisect_external", "pipelines.r_partition",
          "pipelines.distribute_c_for_balance", "pipelines.partition_stats",
          "certify.verify_certificate", "oracle.best_bisection")
CALLS = ("graph.from_edges", "graph.cross_subgraph", "graph.part_profile",
         "thresholds.build_threshold_table", "stage1.goodness_map",
         "dense.extract_dense", "certify.verify_certificate")
COUNTS = ("stage1.attempts", "dense.deleted", "refine_int.evacuations",
          "refine_int.evacuated_c", "refine_int.patch_pulls", "refine_ext.w1",
          "refine_ext.absorbed", "refine_ext.w2", "cuts.moves", "cuts.flips",
          "pipelines.repaired_vertices", "oracle.bisections")
PER_LAYER = {
    **{f"{name}.self_s": "s/op" for name in SELF_S},
    **{f"{name}.calls": "calls/op" for name in CALLS},
    **{name: "count/op" for name in COUNTS},
    "thresholds.active_fraction": "fraction",
    "stage1.attempt_yield": "fraction",
    "trace.overhead": "fraction",
}


def import_program():
    """Import degpart from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "degpart" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import degpart
    if Path(degpart.__file__).resolve().parent != src / "degpart":
        return None
    return degpart


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list) -> dict | None:
    """The highest percentile with TAIL_BEYOND samples beyond it, or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return {"value": sorted(samples)[rank - 1], "percentile": 100.0 * rank / n,
            "samples": n}


class Client:
    """Runs ops one after another and keeps their timings and verdicts."""

    def __init__(self, dp, wl):
        self.dp, self.wl = dp, wl
        # op mode, "verify", "oracle", "load" or "probe" -> seconds per call
        self.seconds = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict = {}            # op key -> output hash
        self.first: dict = {}              # op key -> result of its first run

    def execute(self, op, tracer=None) -> None:
        self.attempted += 1
        try:
            with tracer.op(op.key) if tracer else nullcontext():
                t0 = perf_counter()
                result = op.call(op.input.graph)
                t1 = perf_counter()
                verified = None
                if op.api != "oracle":
                    verified = self.dp.verify_certificate(
                        op.input.graph, result.labels, result.certificate, r=result.r)
                    self.seconds["verify"].append(perf_counter() - t1)
            self.seconds[op.kind].append(t1 - t0)
            if op.api == "oracle":
                self.seconds["oracle"].append(t1 - t0)
            errors = self.wl.check(op, result, verified)
            digest = self.wl.output_hash(op, result)
            if self.outputs.setdefault(op.key, digest) != digest:
                errors.append("output differs from an earlier run of the op")
            self.first.setdefault(op.key, result)
        except Exception:  # a failed op is counted, and the run goes on
            errors = [traceback.format_exc(limit=3)]
        if errors:
            self.failed += 1
            self.errors += [f"{op.key}: {e}" for e in errors]

    def api_seconds(self) -> float:
        """Seconds spent inside the program's API: ops and their verification."""
        return sum(sum(self.seconds[k]) for k in ("int", "ext", "verify"))

    def busy_seconds(self) -> float:
        """API seconds plus the seconds spent loading inputs."""
        return self.api_seconds() + sum(self.seconds["load"])

    def load(self, inp, tracer=None) -> None:
        with tracer.op("load") if tracer else nullcontext():
            t0 = perf_counter()
            inp.graph = self.dp.load_graph(inp.text)
            self.seconds["load"].append(perf_counter() - t0)

    def digest(self, ops) -> str:
        h = hashlib.sha256()
        for op in ops:
            h.update(f"{op.key} {self.outputs.get(op.key)}\n".encode())
        return h.hexdigest()


def setup(dp, ins) -> tuple[float, list]:
    """Load every input, repeatedly; return the median seconds of one full
    load and the probe times taken after each."""
    times, probes = [], []
    while (len(times) < SETUP_REPEATS
           or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        for inp in ins:
            inp.graph = None
        gc.collect()
        t0 = perf_counter()
        for inp in ins:
            inp.graph = dp.load_graph(inp.text)
        times.append(perf_counter() - t0)
        probes.append(probe())
    return statistics.median(times), probes


def active_fraction(dp, ins, params_list) -> list[float]:
    """Share of vertices whose floor is active, per parameter set."""
    out = []
    for params in params_list:
        active = total = 0
        for inp in ins:
            deg = inp.graph.degree
            table = dp.build_threshold_table(params, np.unique(deg))
            active += int(table.active[table.row_index(deg)].sum())
            total += inp.n
        out.append(active / total)
    return out


def run(workload, seed: int, seconds: float, trace: int, write: bool = True):
    """One benchmark run; returns (result line, full report)."""
    dp = sys.modules["degpart"]
    import workloads as wl

    report = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace, "env": environment(),
              "generator": workload.generator}
    ins = wl.make_inputs(workload, seed)
    report["input_sha256"] = inputs.sha256("".join(i.text for i in ins))
    setup_s, probes = setup(dp, ins)
    problems = [f"loaded graph {k} has n={i.graph.n}, m={i.graph.m}; "
                f"expected n={i.n}, m={len(i.u)}"
                for k, i in enumerate(ins)
                if (i.graph.n, i.graph.m) != (i.n, len(i.u))]
    fractions = active_fraction(dp, ins, workload.engine_params)
    report["active_fraction"] = fractions
    if workload.binds and not all(fractions):
        raise SystemExit(f"refused: {workload.name} has no active vertex "
                         f"(active fractions {fractions}), so it no longer binds")
    baseline = [dp.pipelines.random_bisection_stats(i.graph, seed) for i in ins]
    report["random_bisection"] = {
        f"{k}_min_ratio": statistics.fmean(b[f"min_{s}_ratio"] for b in baseline)
        for k, s in (("int", "own"), ("ext", "cross"))}

    ops = workload.make_ops(ins, seed, workload.pool)
    client = Client(dp, wl)
    gc.collect()
    if trace:
        metrics, tracer = traced_run(client, ins, ops, seconds, report)
        if write:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(OUT_DIR / f"{workload.name}-seed{seed}-spans.jsonl")
        metrics["thresholds.active_fraction"] = (
            statistics.fmean(fractions) if fractions else 0.0)
        units = PER_LAYER
    else:
        start = perf_counter()
        done = 0
        while done < len(ops) or perf_counter() - start < seconds:
            client.execute(ops[done % len(ops)])
            client.seconds["probe"].append(probe())
            done += 1
        report["measured_s"] = perf_counter() - start
        setup_scale = PROBE_REF_S / statistics.median(probes)
        scale = PROBE_REF_S / statistics.median(client.seconds["probe"])
        report["probe"] = {"ref_s": PROBE_REF_S, "setup_scale": setup_scale,
                           "scale": scale, "raw_setup_s": setup_s}
        metrics = {
            "setup_s": setup_s * setup_scale,
            "int_solve_s.p50": statistics.median(client.seconds["int"]) * scale,
            "ext_solve_s.p50": statistics.median(client.seconds["ext"]) * scale,
            "ops_per_s": done / (client.api_seconds() * scale),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        report["issue_metrics"] = issue_metrics(client, ops, metrics, scale)
        report["samples"] = {**client.seconds, "setup_probe": probes}
    problems += client.errors
    report["output_sha256"] = client.digest(ops)
    report["attempted"], report["failed"] = client.attempted, client.failed
    report["errors"] = problems
    report["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    result = {"correct": not problems, "attempted": client.attempted,
              "failed": client.failed, "metrics": report["metrics"]}
    if write:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}.json"
        path.write_text(json.dumps(report, indent=1, default=str) + "\n")
        report["path"] = str(path)
    return result, report


def issue_metrics(client, ops, metrics, scale: float) -> dict:
    """Every end-to-end figure, with its unit and timings in reference
    seconds; None where a workload has no sample of it."""
    out = {}
    for kind in ("int_solve_s", "ext_solve_s", "verify_s", "oracle_s"):
        samples = [t * scale for t in client.seconds[kind.split("_")[0]]]
        out[f"{kind}.p50"] = (statistics.median(samples) if samples else None, "s")
        out[f"{kind}.tail"] = (tail(samples), "s")
    out["ops_per_s"] = (metrics["ops_per_s"], "1/s")
    out["fail_rate"] = (client.failed / client.attempted, "fraction")
    for kind in ("int", "ext"):
        values = [client.wl.min_ratio(op, client.first[op.key]) for op in ops
                  if op.kind == kind and op.key in client.first]
        out[f"{kind}_min_ratio"] = (statistics.fmean(values) if values else None,
                                    "ratio")
    out["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def traced_run(client, ins, ops, seconds: float, report: dict):
    """Each input load and each op runs untraced and then traced, in turn,
    so both see the same machine; whole cycles repeat for about `seconds`."""
    tracer = tracing.Tracer()
    traced = Client(client.dp, client.wl)
    start = perf_counter()
    cycles = 0
    while True:
        t0 = perf_counter()
        for inp in ins:
            client.load(inp)
            with tracer.installed():
                traced.load(inp, tracer)
        for op in ops:
            client.execute(op)
            with tracer.installed():
                traced.execute(op, tracer)
        cycles += 1
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    client.attempted += traced.attempted
    client.failed += traced.failed
    client.errors += traced.errors
    if traced.digest(ops) != client.digest(ops):
        client.errors.append("traced outputs differ from the untraced outputs")

    self_s, calls = tracer.self_times()
    n_ops = traced.attempted
    report.update(cycles=cycles, spans=len(tracer.spans),
                  self_s_per_op={k: v / n_ops for k, v in sorted(self_s.items())},
                  calls_per_op={k: v / n_ops for k, v in sorted(calls.items())},
                  counts_per_op={k: v / n_ops for k, v in sorted(tracer.counts.items())})
    metrics = {f"{k}.self_s": self_s.get(k, 0.0) / n_ops for k in SELF_S}
    metrics.update({f"{k}.calls": calls.get(k, 0) / n_ops for k in CALLS})
    metrics.update({k: tracer.counts[k] / n_ops for k in COUNTS})
    attempts = tracer.counts["stage1.attempts"]
    metrics["stage1.attempt_yield"] = (
        tracer.counts["stage1.ok"] / attempts if attempts else 0.0)
    metrics["trace.overhead"] = (traced.busy_seconds() / client.busy_seconds()
                                 - 1.0)
    return metrics, tracer


def print_table(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"env={json.dumps(report['env'])}")
    print(f"# why: {report['why']}")
    rows = {**report.get("issue_metrics", {}), **report["metrics"]}
    for name, m in rows.items():
        value = m["value"]
        if isinstance(value, dict):
            value = (f"{value['value']} (p{value['percentile']:.1f} of "
                     f"{value['samples']} samples)")
        print(f"{name:48s} {value} {m['unit']}")
    for line in ("probe", "input_sha256", "output_sha256", "random_bisection",
                 "active_fraction", "attempted", "failed", "path"):
        if line in report:
            print(f"# {line}: {report[line]}")
    for err in report["errors"][:20]:
        print(f"# error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_program() is None:
        print(f"degpart sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = run(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                         args.trace)
    print_table(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
