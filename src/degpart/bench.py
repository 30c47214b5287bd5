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
import time

from . import certify, pipelines
from .gen import generate
from .thresholds import INTERNAL

SCHEMA_VERSION = 1

COLUMNS = [
    "schema_version", "row_kind", "generator", "n", "m", "seed", "mode",
    "shape", "c", "eps", "d_const", "ok", "guaranteed", "min_own_degree",
    "min_cross_degree", "min_own_ratio", "min_cross_ratio", "cut_edges",
    "cut_avg_degree", "runtime_s", "error", "labels",
]

# manifest keys passed on to ``pipelines.run_shape``; an absent key takes its
# default there
_SHAPE_KEYS = ("c", "eps", "k", "alpha", "d_const", "attempts", "size_window",
               "weight_budget")


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
    # every generator that takes a seed gets the run's, unless the spec names one
    gen_spec = {"seed": seed, **entry["generator"]}
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
        graph = generate(gen_spec["type"], gen_spec)
        base["n"], base["m"] = graph.n, graph.m
    except Exception as exc:
        row = dict(base)
        row.update({"row_kind": "pipeline", "n": "", "m": "", "ok": False,
                    "guaranteed": False, "runtime_s": 0.0, "error": str(exc)})
        return [row]
    t0 = time.perf_counter()
    try:
        report = pipelines.run_shape(
            graph, base["shape"], base["mode"], seed=seed,
            **{key: entry[key] for key in _SHAPE_KEYS if key in entry})
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


def _screen(manifest) -> None:
    """Raise ValueError, naming the entry's index, unless the manifest is a
    list of objects, each with a ``generator`` object whose ``type`` is a
    string and, if present, ``seeds`` a list of integers >= 0.  An unknown
    generator type passes: its runs become error rows."""
    if not isinstance(manifest, list):
        raise ValueError(f"manifest must be a list of entries, "
                         f"got {type(manifest).__name__}")
    for idx, entry in enumerate(manifest):
        if not isinstance(entry, dict):
            reason = f"is a {type(entry).__name__}, not an object"
        elif not isinstance(entry.get("generator"), dict):
            reason = "needs a 'generator' object"
        elif not isinstance(entry["generator"].get("type"), str):
            reason = "needs a string generator 'type'"
        elif not (isinstance(seeds := entry.get("seeds", []), list)
                  and all(isinstance(s, int) and not isinstance(s, bool)
                          for s in seeds)):
            reason = "has 'seeds' that is not a list of integers"
        elif any(s < 0 for s in seeds):  # numpy takes no negative seed
            reason = f"has a negative seed {min(seeds)}"
        else:
            continue
        raise ValueError(f"manifest entry #{idx} {reason}")


def bench_sweep(manifest: list[dict], emit_labels: bool = False) -> list[dict]:
    """Run every (entry, seed) pair; returns rows in manifest order.  The
    manifest is screened before any run (ValueError)."""
    _screen(manifest)
    return [row for entry in manifest for seed in entry.get("seeds", [0])
            for row in run_entry(entry, seed, emit_labels)]


def rows_to_csv_text(rows: list[dict]) -> str:
    """The one CSV writer: rows under the fixed, versioned column schema,
    with the csv module's \\r\\n line endings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
