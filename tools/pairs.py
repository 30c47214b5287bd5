"""Alternating parent/change pairs of benchmark runs, summarised as JSON.

    python3 tools/pairs.py PARENT CHANGE --workload rpart-3 --pairs 10 \\
        --seed 3 --out BENCH_label.json

PARENT and CHANGE are git tree-ishes: a commit, a branch, or the tree id that
``git write-tree`` prints for the staged files.  Each is exported with
``git archive`` into a directory of its own, and every run is
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in that
export, T being ``run_seconds`` of the repo's BENCHMARK.json.  Pair k runs the
parent first when k is even and the change first when k is odd.  After its
pairs, each workload runs once more per side with ``--trace 1``, the parent
first.  --workload may be given more than once; the workloads run in turn.

The output holds, per workload, the ``pairs`` layout of BENCH_verdict.json:
for each end-to-end metric of BENCHMARK.json every run's value, both medians,
the parent's interquartile range, the pairs the change won, the bound and
whether the change's median is within it; then the summed attempted and
failed ops and whether the input and output digests matched in every pair.
Its ``traced`` section holds, per workload, each side's per-layer figures
from the traced run (self seconds, calls and work counts per op, and the
output digest) and every call or work count per op that differs between
the sides.  Nothing under perfbench/ and no BENCHMARK.json is written.
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


def summarize_traced(parent: dict, change: dict) -> dict:
    """The ``traced`` entry of one workload from one traced report per side.

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
    parser.add_argument("--workdir", help="where the exports go "
                        "(default: a temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = [export(ref, Path(tmp) / side)
                 for ref, side in zip((args.parent, args.change), SIDES)]
        out = {"what": f"perfbench/run.py --seed {args.seed} --seconds "
                       f"{bench['run_seconds']} --trace 0 on {args.parent} "
                       f"('parent') and {args.change} ('change'), "
                       f"{args.pairs} alternating pairs per workload, then "
                       f"one --trace 1 run per side",
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
            out["traced"][workload] = summarize_traced(
                *(run_once(tree, workload, args.seed, bench["run_seconds"], trace=1)
                  for tree in trees))
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
