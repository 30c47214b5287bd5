"""README's diagnostics table names exactly the keys the shapes write.

Every shape runs once ok and, where it can fail, once failed: the golden
runs, plus a failed dual bisection and a cut-average run whose C split is
infeasible.  The (key, shape) pairs their reports' diagnostics hold must be
the (key, shape) pairs of the table's rows, in both directions.
"""

import re
from pathlib import Path

from degpart.gen import gen_gnp
from degpart.pipelines import bisect_dual, bisect_with_cut_average
from degpart.thresholds import INTERNAL

from test_golden import RUNS

README = Path(__file__).resolve().parent.parent / "README.md"

FAILED = {
    "dual-stage1-fail": lambda: bisect_dual(
        gen_gnp(40, 0.5, seed=2), 1, 0.5, INTERNAL, seed=0, attempts=2,
        size_window=(3.9, 4.0)),
    "cutavg-split-fail": lambda: bisect_with_cut_average(
        gen_gnp(6, 0.6, seed=0), 0, 0.5, seed=6, attempts=1,
        size_window="vacuous", weight_budget="vacuous"),
}


def table_pairs() -> set:
    """(key, shape) of every row of the table after "The keys each shape
    writes"; a row's key cell may name several keys."""
    text = README.read_text()
    rows = text[text.index("The keys each shape writes"):].split("\n| --- |")[1]
    pairs = set()
    for line in rows.splitlines()[1:]:
        if not line.startswith("|"):
            break
        keys, shapes = line.split("|")[1:3]
        pairs |= {(key, shape.strip()) for key in re.findall(r"`(\w+)`", keys)
                  for shape in shapes.split(",")}
    return pairs


def test_the_diagnostics_table_names_the_keys_the_shapes_write():
    reports = [run() for run in [*RUNS.values(), *FAILED.values()]]
    assert {report.ok for report in reports} == {True, False}
    assert {report.shape for report in reports} == {
        "bisect", "tripart", "dual", "cutavg", "rpart"}
    written = {(key, report.shape) for report in reports
               for key in report.diagnostics}
    documented = table_pairs()
    assert sorted(written - documented) == []
    assert sorted(documented - written) == []
