"""Alternating parent/change pairs of benchmark runs, summarised as JSON.

    python3 tools/pairs.py PARENT CHANGE --workload rpart-3 --pairs 10 \\
        --seed 3 --out BENCH_label.json

PARENT and CHANGE are git tree-ishes: a commit, a branch, or the tree id that
``git write-tree`` prints for the staged files.  Each is exported with
``git archive`` into a directory of its own, and every run is
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in that
export, T being ``run_seconds`` of the repo's BENCHMARK.json.  Pair k runs the
parent first when k is even and the change first when k is odd.  After its
pairs, each workload runs three rounds per side with ``--trace 1``,
alternating the same way.  --workload may be given more than once; the
workloads run in turn.

The output holds, per workload, the ``pairs`` layout of BENCH_verdict.json:
for each end-to-end metric of BENCHMARK.json every run's value, both medians,
the parent's interquartile range, the pairs the change won, the bound and
whether the change's median is within it; then the summed attempted and
failed ops and whether the input and output digests matched in every pair.
Its ``traced`` section holds, per workload, each side's per-layer figures
from the traced rounds (the median over the rounds of each layer's self
seconds per op; calls and work counts per op, and the output digest, of the
first round), every call or work count per op that differs between the
sides, and per side every such count or digest that differs between its
rounds (all equal on deterministic code).  Nothing under perfbench/ and no
BENCHMARK.json is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# traced runs per side: one traced run cannot resolve a per-layer change
# below about a fifth, so each layer reads its median self time over these
TRACED_ROUNDS = 3
# the per-layer figures of a traced report, and the ones that count work
TRACED = ("self_s_per_op", "calls_per_op", "counts_per_op", "output_sha256")
WORK = ("calls_per_op", "counts_per_op")


def export(ref: str, dest: Path) -> Path:
    """Write the files of a git tree-ish into dest with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One run in an exported tree: its full report, with the result line's
    ``correct``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    report = json.loads(path.read_text())
    report["correct"] = result["correct"]
    return report


def summarize(runs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """The ``pairs`` entry of one workload from its (parent, change) reports.

    A report needs ``metrics`` ({name: {"value": ...}}), ``attempted``,
    ``failed``, ``correct``, ``input_sha256`` and ``output_sha256``.  A change
    wins a pair when its value is strictly better; the parent's IQR is
    q3 - q1 of ``statistics.quantiles``.  ``clear_gain`` says whether the
    change won at least nine in ten pairs and its median beats the parent's
    by more than the parent's IQR.
    """
    summary = {
        "pairs": len(runs),
        "output_sha256_equal": all(p["output_sha256"] == c["output_sha256"]
                                   for p, c in runs),
        "input_sha256_equal": all(p["input_sha256"] == c["input_sha256"]
                                  for p, c in runs),
        "attempted": {side: sum(pair[i]["attempted"] for pair in runs)
                      for i, side in enumerate(SIDES)},
        "failed": {side: sum(pair[i]["failed"] for pair in runs)
                   for i, side in enumerate(SIDES)},
        "correct": all(p["correct"] and c["correct"] for p, c in runs),
        "metrics": {},
    }
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else (parent[0],) * 3)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        summary["metrics"][name] = {
            "parent_median": p_med, "change_median": c_med,
            "rel_change": round(c_med / p_med - 1, 4) if p_med else None,
            "parent_iqr": q3 - q1,
            "change_wins": f"{wins}/{len(runs)}",
            "clear_gain": 10 * wins >= 9 * len(runs)
                          and sign * (p_med - c_med) > q3 - q1,
            "bound": bound,
            "within_bound": sign * (c_med - p_med) <= bound * p_med,
            "parent": parent, "change": change,
        }
    return summary


def merge_rounds(reports: list[dict]) -> tuple[dict, dict]:
    """One side's traced rounds as one traced report, and their mismatches.

    The report's ``self_s_per_op`` is each layer's median over the rounds (a
    layer missing in a round reads 0 there); its calls and work counts per
    op and its ``output_sha256`` are the first round's.  The mismatches list,
    per section, each call or work count per op whose rounds differ, and
    under ``output_sha256`` the digests if they differ, as the list of the
    rounds' values.
    """
    layers = sorted(set().union(*(r["self_s_per_op"] for r in reports)))
    merged = dict(reports[0], self_s_per_op={
        name: statistics.median(r["self_s_per_op"].get(name, 0.0) for r in reports)
        for name in layers})
    mismatch = {}
    for section in WORK:
        names = sorted(set().union(*(r[section] for r in reports)))
        values = {name: [r[section].get(name, 0) for r in reports] for name in names}
        changed = {name: v for name, v in values.items() if len(set(v)) > 1}
        if changed:
            mismatch[section] = changed
    digests = [r["output_sha256"] for r in reports]
    if len(set(digests)) > 1:
        mismatch["output_sha256"] = digests
    return merged, mismatch


def summarize_traced(parent: dict, change: dict) -> dict:
    """The ``traced`` entry of one workload from one traced report per side
    (a side's rounds merged by ``merge_rounds``).

    Each side keeps its ``self_s_per_op``, ``calls_per_op``,
    ``counts_per_op`` and ``output_sha256``.  ``work_changed`` lists, per
    section, each call or work count per op that differs between the sides
    as [parent, change]; a name missing on one side reads 0 there.
    """
    summary = {side: {key: report[key] for key in TRACED}
               for side, report in zip(SIDES, (parent, change))}
    summary["output_sha256_equal"] = parent["output_sha256"] == change["output_sha256"]
    summary["work_changed"] = {}
    for section in WORK:
        p, c = parent[section], change[section]
        summary["work_changed"][section] = {
            name: [p.get(name, 0), c.get(name, 0)] for name in sorted(p.keys() | c.keys())
            if p.get(name, 0) != c.get(name, 0)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", help="where the exports go, made if missing "
                        "(default: a temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = [export(ref, Path(tmp) / side)
                 for ref, side in zip((args.parent, args.change), SIDES)]
        out = {"what": f"perfbench/run.py --seed {args.seed} --seconds "
                       f"{bench['run_seconds']} --trace 0 on {args.parent} "
                       f"('parent') and {args.change} ('change'), "
                       f"{args.pairs} alternating pairs per workload, then "
                       f"{TRACED_ROUNDS} alternating rounds of --trace 1 per "
                       f"side, self times their per-layer median",
               "pairs": {}, "traced": {}}
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                order = (0, 1) if k % 2 == 0 else (1, 0)
                pair = [None, None]
                for i in order:
                    pair[i] = run_once(trees[i], workload, args.seed,
                                       bench["run_seconds"])
                runs.append(tuple(pair))
                print(f"{workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
            out["pairs"][workload] = summarize(runs, bench["end_to_end"])
            rounds = ([], [])
            for k in range(TRACED_ROUNDS):
                for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                    rounds[i].append(run_once(trees[i], workload, args.seed,
                                              bench["run_seconds"], trace=1))
            merged = [merge_rounds(side) for side in rounds]
            traced = summarize_traced(merged[0][0], merged[1][0])
            traced["rounds"] = TRACED_ROUNDS
            traced["round_mismatch"] = {side: m for side, (_, m) in zip(SIDES, merged)}
            for side, (_, m) in zip(SIDES, merged):
                if m:
                    print(f"{workload}: the {side}'s traced rounds differ: {m}",
                          file=sys.stderr)
            out["traced"][workload] = traced
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
