"""Spans and work counts around the program's layers, recorded from outside.

``Tracer.installed`` replaces every public function of each layer module of
``degpart`` (and ``Graph.from_edges`` / ``Graph.cross_subgraph``) with a
timing wrapper, in every ``degpart`` namespace that holds a reference to it,
since the modules import one another's functions by name, and puts the
originals back when its block ends.  Spans stay in memory as (name, start, end, parent,
op) tuples; self time is a span's duration minus that of its child spans.
Work counts are read from the wrapped functions' return values.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb
from time import perf_counter

LAYERS = ("graph", "thresholds", "stage1", "dense", "refine_int",
          "refine_ext", "cuts", "pipelines", "certify", "oracle")
GRAPH_METHODS = ("from_edges", "cross_subgraph")


def _count_stage_one(counts, args, result):
    counts["stage1.attempts"] += result.attempts
    counts["stage1.ok"] += int(result.ok)


def _count_extract(counts, args, result):
    counts["dense.deleted"] += len(result.deleted)


def _count_refine_internal(counts, args, result):
    counts["refine_int.evacuations"] += len(result.evacuations)
    counts["refine_int.evacuated_c"] += sum(len(e.absorbed)
                                            for e in result.evacuations)
    counts["refine_int.patch_pulls"] += sum(len(rx)
                                            for rx in result.patch.values())


def _count_refine_external(counts, args, result):
    counts["refine_ext.w1"] += len(result.w1)
    counts["refine_ext.absorbed"] += len(result.absorbed)
    counts["refine_ext.w2"] += len(result.w2)


def _count_rcut(counts, args, result):
    counts["cuts.moves"] += result.moves


def _count_maxcut(counts, args, result):
    counts["cuts.flips"] += result[2]


def _count_rpartition(counts, args, result):
    counts["pipelines.repaired_vertices"] += result.diagnostics["repaired_vertices"]


def _count_oracle(counts, args, result):
    n = args[0].n
    counts["oracle.bisections"] += comb(n, n // 2)


COUNTERS = {
    "stage1.stage_one": _count_stage_one,
    "dense.extract_dense": _count_extract,
    "refine_int.refine_internal_once": _count_refine_internal,
    "refine_ext.refine_external": _count_refine_external,
    "cuts.biased_max_r_cut": _count_rcut,
    "cuts.local_maxcut": _count_maxcut,
    "pipelines.r_partition": _count_rpartition,
    "oracle.best_bisection": _count_oracle,
}


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._patches: list = []  # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, count, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)
        if count is not None:
            count(self.counts, args, result)
        return result

    @contextmanager
    def op(self, op_id: str):
        """Root span of one benchmark op; layer spans inside it carry op_id."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = ("op", start, perf_counter(), -1, op_id)
            self._op = None

    def _wrapper(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)
        return traced

    # -- installing --------------------------------------------------------

    @contextmanager
    def installed(self):
        """The program's layers wrapped for the duration of the block."""
        self._install()
        try:
            yield
        finally:
            self._restore()

    def _install(self) -> None:
        traced_of = {}
        for layer in LAYERS:
            mod = sys.modules[f"degpart.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    traced_of[fn] = self._wrapper(f"{layer}.{attr}", fn)
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if (k == "degpart" or k.startswith("degpart."))
                      and m is not None]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in traced_of:
                    self._patch(ns, attr, traced_of[value])
        graph_cls = sys.modules["degpart.graph"].Graph
        for attr in GRAPH_METHODS:
            raw = vars(graph_cls)[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrapper(f"graph.{attr}", raw.__func__))
            else:
                traced = self._wrapper(f"graph.{attr}", raw)
            self._patch(graph_cls, attr, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (summed self seconds, call count)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
