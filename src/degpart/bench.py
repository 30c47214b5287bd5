"""Benchmark harness: run (generator, params, seed) sweeps into CSV rows.

Each manifest entry describes a generator, a pipeline configuration, and a
list of seeds.  Every run emits one row for the pipeline and one paired
baseline row (a uniformly random bisection of the same graph and seed), so
pipeline quality is always read against chance.  Individual run failures
become rows with an error column, never aborts.  The column schema is fixed
and versioned; certificates and traces are JSON, sweeps are CSV.
"""

from __future__ import annotations

import csv
import io
import os
import time

from . import certify, pipelines
from .gen import gen_complete_bipartite, gen_gnp, gen_kuhn_osthus
from .graph import Graph
from .thresholds import INTERNAL, ParamSet

SCHEMA_VERSION = 1

COLUMNS = [
    "schema_version", "row_kind", "generator", "n", "m", "seed", "mode",
    "shape", "c", "eps", "d_const", "ok", "guaranteed", "min_own_degree",
    "min_cross_degree", "min_own_ratio", "min_cross_ratio", "cut_edges",
    "cut_avg_degree", "runtime_s", "error", "labels",
]

def build_graph(spec: dict) -> Graph:
    kind = spec["type"]
    if kind == "gnp":
        return gen_gnp(int(spec["n"]), float(spec["p"]), int(spec.get("seed", 0)))
    if kind == "kuhn_osthus":
        return gen_kuhn_osthus(int(spec["n"]), int(spec["l"]))
    if kind == "complete_bipartite":
        return gen_complete_bipartite(int(spec["a"]), int(spec["b"]))
    raise ValueError(f"unknown generator type {spec['type']!r}")


def _run_pipeline(graph: Graph, entry: dict, seed: int):
    shape = entry.get("shape", "bisect")
    mode = entry.get("mode", INTERNAL)
    kwargs = {}
    for key in ("attempts", "size_window", "weight_budget"):
        if key in entry:
            kwargs[key] = entry[key]
    if shape == "bisect":
        fn = pipelines.bisect_internal if mode == INTERNAL else pipelines.bisect_external
        params = ParamSet(0.0, float(entry.get("eps", 0.25 if mode == INTERNAL else 0.09)),
                          mode, d_const=entry.get("d_const"))
        return fn(graph, params, seed=seed, **kwargs)
    if shape == "tripart":
        params = ParamSet(float(entry.get("c", 0.0)), float(entry["eps"]), mode,
                          d_const=entry.get("d_const"))
        return pipelines.tripartition_exact(graph, int(entry["k"]), params,
                                            seed=seed, **kwargs)
    if shape == "rpart":
        from .cuts import BiasVector
        bias = BiasVector(tuple(entry["alpha"]))
        return pipelines.r_partition(graph, bias, mode, seed=seed)
    raise ValueError(f"unknown shape {shape!r}")


def _row_from_stats(base: dict, stats: dict) -> dict:
    row = dict(base)
    row.update({
        "min_own_degree": stats["min_own_degree"],
        "min_cross_degree": stats["min_cross_degree"],
        "min_own_ratio": stats["min_own_ratio"],
        "min_cross_ratio": stats["min_cross_ratio"],
        "cut_edges": stats["cut_edges"],
        "cut_avg_degree": stats["cut_avg_degree"],
    })
    return row


def run_entry(entry: dict, seed: int, emit_labels: bool = False) -> list[dict]:
    """One (manifest entry, seed) run: a pipeline row plus a baseline row."""
    gen_spec = dict(entry["generator"])
    if gen_spec.get("type") == "gnp":
        gen_spec.setdefault("seed", seed)
    base = {
        "schema_version": SCHEMA_VERSION,
        "generator": gen_spec["type"],
        "seed": seed,
        "mode": entry.get("mode", INTERNAL),
        "shape": entry.get("shape", "bisect"),
        "c": entry.get("c", 0.0),
        "eps": entry.get("eps", ""),
        "d_const": entry.get("d_const", "paper"),
        "error": "", "labels": "",
    }
    rows = []
    try:
        graph = build_graph(gen_spec)
        base["n"], base["m"] = graph.n, graph.m
    except Exception as exc:
        row = dict(base)
        row.update({"row_kind": "pipeline", "n": "", "m": "", "ok": False,
                    "guaranteed": False, "runtime_s": 0.0, "error": str(exc)})
        return [row]
    t0 = time.perf_counter()
    try:
        report = _run_pipeline(graph, entry, seed)
        runtime = time.perf_counter() - t0
        row = _row_from_stats(dict(base, row_kind="pipeline", ok=report.ok,
                                   guaranteed=report.guaranteed,
                                   runtime_s=round(runtime, 6)),
                              report.stats)
        if emit_labels:
            row["labels"] = " ".join(map(str, report.labels.tolist()))
        rows.append(row)
    except Exception as exc:
        rows.append(dict(base, row_kind="pipeline", ok=False, guaranteed=False,
                         runtime_s=round(time.perf_counter() - t0, 6),
                         error=str(exc)))
    t0 = time.perf_counter()
    labels = pipelines.random_bisection_labels(graph.n, seed)
    baseline_stats = pipelines.partition_stats(certify.recount(graph, labels, 2))
    brow = _row_from_stats(dict(base, row_kind="baseline", ok=True,
                                guaranteed=False,
                                runtime_s=round(time.perf_counter() - t0, 6)),
                           baseline_stats)
    if emit_labels:
        brow["labels"] = " ".join(map(str, labels.tolist()))
    rows.append(brow)
    return rows


def bench_sweep(manifest: list[dict], emit_labels: bool = False) -> list[dict]:
    """Run every (entry, seed) pair; returns rows in manifest order."""
    return [row for entry in manifest for seed in entry.get("seeds", [0])
            for row in run_entry(entry, seed, emit_labels)]


def write_csv(rows: list[dict], path_or_fh) -> None:
    """Serialize rows under the fixed, versioned column schema."""
    own = isinstance(path_or_fh, (str, os.PathLike))
    fh = open(path_or_fh, "w", newline="") if own else path_or_fh
    try:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if own:
            fh.close()


def rows_to_csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()
