"""Command-line surface: gen, partition, verify, oracle, bench, thresholds.

Exit codes: 0 success, 1 verification failure, 2 parameter error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, bench, pipelines
from .certify import verify_report
from .gen import GENERATORS, generate
from .graph import GraphFormatError, load_graph
from .oracle import OBJECTIVES, best_bisection, ko_bisection_exists
from .pipelines import PipelineReport
from .thresholds import EXTERNAL, INTERNAL, ParamSet, build_threshold_table

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAM = 2

# the command line's mode names
MODES = {"int": INTERNAL, "ext": EXTERNAL}


def _read_graph(path: str):
    with open(path) as fh:
        return load_graph(fh)


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout without one; the file
    keeps the text's line endings (a CSV's \\r\\n rows stay as written)."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lo_hi(text: str, flag: str, kind=float) -> tuple:
    """The two numbers of a lo:hi flag; ValueError naming the flag if the
    text is no such pair."""
    try:
        lo, hi = text.split(":")
        return kind(lo), kind(hi)
    except ValueError:
        raise ValueError(f"{flag} takes lo:hi, got {text!r}") from None


def _parse_d_const(text: str) -> float | None:
    if text == "paper":
        return None
    return float(text)


def _cmd_gen(args) -> int:
    _write(generate(args.type, vars(args)).to_edge_list_text(), args.out)
    return EXIT_OK


def _cmd_partition(args) -> int:
    graph = _read_graph(args.graph)
    options = {"attempts": args.retries}
    if args.size_window:
        options["size_window"] = _lo_hi(args.size_window, "--size-window")
    if args.vacuous_windows:
        options["size_window"] = "vacuous"
        options["weight_budget"] = "vacuous"
    report = pipelines.run_shape(
        graph, args.shape, MODES[args.mode], c=args.c, eps=args.eps, k=args.k,
        alpha=args.alpha.split(","), d_const=_parse_d_const(args.d_const),
        seed=args.seed, **options)
    _write(json.dumps(report.to_jsonable(), indent=2, allow_nan=False) + "\n",
           args.out)
    print(f"ok={report.ok} guaranteed={report.guaranteed} "
          f"stats={report.stats['min_own_degree']}/{report.stats['min_cross_degree']}",
          file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _cmd_verify(args) -> int:
    graph = _read_graph(args.graph)
    try:
        with open(args.cert) as fh:
            report = PipelineReport.from_jsonable(json.load(fh))
    except (KeyError, TypeError, AttributeError) as exc:
        print(f"FAIL: malformed report file: missing or bad field {exc}")
        return EXIT_VERIFY_FAIL
    try:
        result = verify_report(graph, report)
    except ValueError as exc:  # refused: another graph's or a malformed hash
        print(f"FAIL: {exc}")
        return EXIT_VERIFY_FAIL
    if result.passed:
        record = json.dumps(report.certificate.params["statement"])
        print(f"PASS: all claims verified; statement certified: {record}")
        return EXIT_OK
    what = result.reason or f"claim #{result.failed_index} {result.failed_claim}"
    witness = "" if result.witness is None else f" (witness vertex {result.witness})"
    print(f"FAIL: {what}{witness}")
    return EXIT_VERIFY_FAIL


def _cmd_oracle(args) -> int:
    if args.ko:
        n, l, k = args.ko
        answer = ko_bisection_exists(n, l, k)
        print(json.dumps(answer))
        return EXIT_OK
    graph = _read_graph(args.graph)
    value, witness = best_bisection(graph, args.objective)
    # an infinite ratio optimum (no vertex of positive degree) is null,
    # as in a report's stats
    unbounded = value == math.inf
    payload = {"objective": args.objective,
               "value": None if unbounded else float(value)}
    if args.objective.endswith("ratio"):
        # the exact optimum, as partition_stats reports its ratio minima
        payload["value_frac"] = (None if unbounded
                                 else [value.numerator, value.denominator])
    payload["labels"] = witness.tolist()
    print(json.dumps(payload, allow_nan=False))
    return EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    rows = bench.bench_sweep(manifest, emit_labels=args.emit_labels)
    _write(bench.rows_to_csv_text(rows), args.out)
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    params = ParamSet(args.c, args.eps, MODES[args.mode],
                      d_const=_parse_d_const(args.d_const),
                      relaxed=args.relaxed)
    lo, hi = _lo_hi(args.degrees, "--degrees", int)
    if lo > hi:
        raise ValueError(f"--degrees takes lo <= hi, got {args.degrees!r}")
    table = build_threshold_table(params, range(lo, hi + 1))
    _write(table.dump_csv(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degpart",
        description="degree-constrained graph partitioning engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph as edge-list text")
    p.add_argument("--type", choices=list(GENERATORS), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("partition", help="run a partitioning pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=list(MODES), default="int")
    p.add_argument("--shape", choices=pipelines.SHAPES, default="bisect")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--eps", type=float,
                   help="default 0.25, or 0.09 for --shape bisect --mode ext")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", default="1/2,1/2",
                   help="comma-separated rationals for rpart, e.g. 1/5,3/10,1/2")
    p.add_argument("--d-const", default="paper",
                   help="'paper' selects the built-in default; otherwise a positive real")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int,
                   help="stage-one attempts (default 64); not for rpart")
    p.add_argument("--size-window", default="",
                   help="lo:hi override for the stage-one size window")
    p.add_argument("--vacuous-windows", action="store_true",
                   help="disable stage-one windows (diagnostic runs)")
    p.add_argument("--out", help="write the full report JSON here, stage one's "
                   "per-attempt log included")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verify", help="re-verify a report's certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact answers on small graphs")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--graph")
    target.add_argument("--ko", nargs=3, type=int, metavar=("N", "L", "K"),
                        help="existence check on the set-inclusion graph")
    p.add_argument("--objective", choices=list(OBJECTIVES),
                   default="min-own-degree")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a manifest sweep to CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.add_argument("--emit-labels", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("thresholds", help="dump a threshold table as CSV")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=list(MODES), default="int")
    p.add_argument("--d-const", default="paper")
    p.add_argument("--degrees", default="1:100", help="lo:hi inclusive range")
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thresholds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GraphFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
