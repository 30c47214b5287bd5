"""The names of ``degpart`` that the benchmark's tracer pins.

``perfbench/tracing.py`` wraps every public module-level function of each
layer by name, and reads work counts from the results of some of them.  A
public driver that stops being a plain module-level function is no longer
wrapped: the benchmark's smoke test still passes, while that driver's self
time silently reads 0.  This test runs the tracer, imported unedited from
``perfbench/``, over the two binding golden bisections and one r-partition.

The tracer keeps one span stack, so a public function called from one of
``part_profile``'s worker threads would push its span onto whatever the
calling thread has open; the last test counts a split labeling under it.
"""

import sys
from pathlib import Path

import numpy as np

from degpart import graph, pipelines
from degpart.cuts import BiasVector
from degpart.gen import gen_gnp
from degpart.thresholds import EXTERNAL, INTERNAL, ParamSet

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

from test_golden import VACUOUS  # noqa: E402

SPANS = ("pipelines.bisect_internal", "pipelines.bisect_external",
         "pipelines.r_partition", "stage1.stage_one", "dense.extract_dense",
         "refine_int.refine_internal_once", "refine_ext.refine_external")
COUNTS = ("dense.deleted", "refine_int.evacuations", "refine_ext.absorbed",
          "pipelines.repaired_vertices")


def test_the_tracer_records_the_pinned_spans_and_counts():
    tracer = tracing.Tracer()
    with tracer.installed():
        # the golden runs "bisect-int", "bisect-ext" and "rpart-int", called
        # through the module as the benchmark does, so the wrappers apply
        pipelines.bisect_internal(
            gen_gnp(400, 0.03, seed=1), ParamSet(0.0, 0.02, INTERNAL, d_const=0.01),
            seed=1, **VACUOUS)
        pipelines.bisect_external(
            gen_gnp(400, 0.03, seed=0), ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01),
            seed=0, **VACUOUS)
        pipelines.r_partition(gen_gnp(60, 0.3, seed=2),
                              BiasVector((1 / 5, 3 / 10, 1 / 2)), INTERNAL, seed=1)
    recorded = {name for name, *_ in tracer.spans}
    assert [name for name in SPANS if name not in recorded] == []
    assert [name for name in COUNTS if tracer.counts[name] == 0] == []


def test_a_split_count_is_one_span_inside_its_parent(monkeypatch):
    g = gen_gnp(1700, 0.05, seed=4)
    labels = np.random.default_rng(0).integers(0, 3, g.n)
    monkeypatch.setattr(graph, "_cpus", lambda: 2)
    assert graph._ranges(len(g.indices), g.n) == 2
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.op("count"):
            graph.part_profile(g, labels, 3)
            graph.Counts(g, labels, 3)    # calls part_profile by module name
    names = [name for name, *_ in tracer.spans]
    assert names.count("graph.part_profile") == 2
    assert names.count("op") == 1 and len(names) == 3
    for name, start, end, parent, op in tracer.spans:
        assert op == "count"
        if name != "op":
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start <= end <= p_end
