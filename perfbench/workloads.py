"""The benchmark's workloads: inputs made from a seed, op pools, and checks.

An op is one call into the program's public API.  Each workload turns its
seed into edge-list text (see inputs.py) and a fixed pool of ops; a run
cycles through the pool.  Ops look the API up on the ``degpart`` package at
call time, so the tracer's wrappers see them.  Every op has a mode: "int"
(own-part floors) or "ext" (cross floors).

Every op is checked.  An engine report must say ok, the program's verifier
must pass its certificate, and the benchmark recounts part sizes and degree
and ratio minima from its own copy of the edges.  Each oracle witness must
be a bisection that achieves the returned optimum, by the same recount.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import degpart as dp

import inputs

INT_PAPER = dp.ParamSet(0.0, 0.25, "internal", d_const=1.0)
EXT_PAPER = dp.ParamSet(0.0, 0.09, "external", d_const=1.0)
INT_BIND = dp.ParamSet(0.0, 0.02, "internal", d_const=0.01)
EXT_BIND = dp.ParamSet(0.0, 0.02, "external", d_const=0.01)
VACUOUS = {"size_window": "vacuous", "weight_budget": "vacuous"}
RPART_BIAS = (1 / 5, 3 / 10, 1 / 2)
# the oracle objectives of each mode
OBJECTIVES = {"int": ("min-own-degree", "min-own-ratio"),
              "ext": ("min-cross-degree", "min-cross-ratio")}


@dataclass
class Input:
    """One graph: the text the program loads and the benchmark's own edges."""

    n: int
    u: np.ndarray          # distinct edges, u < v
    v: np.ndarray
    text: str
    graph: object = None   # the program's Graph, set by the set-up phase


@dataclass
class Op:
    kind: str                    # mode: "int" or "ext"
    api: str                     # "bisect", "rpart" or "oracle"
    key: str                     # identity within the pool
    input: Input
    call: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: dict              # recorded generator parameters
    make_ops: Callable
    pool: int = 1                # op seeds per mode
    engine_params: tuple = ()    # ParamSets whose active floors are reported
    binds: bool = False          # refuse a run whose floors bind nowhere
    toy: dict = field(default_factory=dict)

    def toy_size(self) -> "Workload":
        """The same workload at smoke-test size, one op seed per mode."""
        return dataclasses.replace(self, generator={**self.generator, **self.toy},
                                   pool=1)


def make_inputs(workload: Workload, seed: int) -> list[Input]:
    gen = workload.generator
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(gen.get("graphs", 1)):
        n = gen["n"]
        if gen["type"] == "gnp":
            u, v = inputs.gnp_edges(n, gen["p"], rng)
        else:
            u, v = inputs.chung_lu_edges(n, gen["mean_degree"], gen["exponent"], rng)
        su, sv = inputs.simple_edges(n, u, v)
        out.append(Input(n, su, sv, inputs.edge_list_text(n, u, v)))
    return out


# -- op pools ----------------------------------------------------------------


def bisection_ops(int_params, ext_params, windows):
    def make(ins: list[Input], seed: int, pool: int) -> list[Op]:
        ops = []
        for k in range(pool):
            s = 1000 * seed + k
            ops.append(Op("int", "bisect", f"int/{s}", ins[0], lambda g, s=s:
                          dp.bisect_internal(g, int_params, seed=s, **windows)))
            ops.append(Op("ext", "bisect", f"ext/{s}", ins[0], lambda g, s=s:
                          dp.bisect_external(g, ext_params, seed=s, **windows)))
        return ops
    return make


def rpartition_ops(alpha):
    def make(ins: list[Input], seed: int, pool: int) -> list[Op]:
        ops = []
        for k in range(pool):
            s = 1000 * seed + k
            for kind, mode in (("int", "internal"), ("ext", "external")):
                ops.append(Op(kind, "rpart", f"{kind}/{s}", ins[0],
                              lambda g, s=s, mode=mode:
                              dp.r_partition(g, dp.BiasVector(alpha), mode, seed=s)))
        return ops
    return make


def oracle_ops(ins: list[Input], seed: int, pool: int) -> list[Op]:
    """Per graph, one op per mode: best_bisection for that mode's two
    objectives, so each graph gets all four."""
    return [Op(kind, "oracle", f"{kind}/{gi}", inp, lambda g, objs=objs: {
                obj: dp.best_bisection(g, obj) for obj in objs})
            for gi, inp in enumerate(ins) for kind, objs in OBJECTIVES.items()]


# -- checks ------------------------------------------------------------------


def _recount(inp: Input, labels: np.ndarray):
    """Own and total degree per vertex, from the benchmark's edge arrays."""
    same = labels[inp.u] == labels[inp.v]
    own = (np.bincount(inp.u[same], minlength=inp.n)
           + np.bincount(inp.v[same], minlength=inp.n))
    deg = np.bincount(inp.u, minlength=inp.n) + np.bincount(inp.v, minlength=inp.n)
    return own, deg


def _min_ratio(num: np.ndarray, deg: np.ndarray):
    """Exact min of num/deg over deg > 0 (None when every vertex is isolated).

    A float argmin proposes the minimum; integer cross-multiplication then
    replaces it while any ratio is strictly smaller.
    """
    pos = np.nonzero(deg > 0)[0]
    if not len(pos):
        return None
    num, deg = num[pos].astype(np.int64), deg[pos].astype(np.int64)
    i = int(np.argmin(num / deg))
    while True:
        smaller = np.nonzero(num * deg[i] < num[i] * deg)[0]
        if not len(smaller):
            return Fraction(int(num[i]), int(deg[i]))
        i = int(smaller[0])


def check_report(op: Op, report, verified) -> list[str]:
    """Errors in an engine report; empty when it is correct."""
    inp = op.input
    errors = []
    if not report.ok:
        errors.append(f"report not ok: {report.diagnostics.get('failure')}")
    if not verified.passed:
        errors.append(f"verify_certificate rejected claim {verified.failed_claim}")
    labels = np.asarray(report.labels)
    if labels.shape != (inp.n,) or labels.min() < 0 or labels.max() >= report.r:
        return errors + ["labels malformed"]
    sizes = np.bincount(labels, minlength=report.r)
    if sizes.tolist() != report.stats["sizes"]:
        errors.append("part sizes differ from the report")
    if report.r == 2 and abs(int(sizes[0]) - int(sizes[1])) > 1:
        errors.append("bisection not balanced")
    own, deg = _recount(inp, labels)
    stats = report.stats
    if int(own.min()) != stats["min_own_degree"]:
        errors.append("min own degree differs from the recount")
    if int((deg - own).min()) != stats["min_cross_degree"]:
        errors.append("min cross degree differs from the recount")
    for name, num in (("own", own), ("cross", deg - own)):
        claimed = stats[f"min_{name}_ratio_frac"]
        exact = _min_ratio(num, deg)
        if (None if exact is None else [exact.numerator, exact.denominator]) != claimed:
            errors.append(f"min {name} ratio differs from the recount")
    return errors


def _objective(objective: str, own: np.ndarray, deg: np.ndarray):
    if objective == "min-own-degree":
        return int(own.min())
    if objective == "min-cross-degree":
        return int((deg - own).min())
    num = own if objective == "min-own-ratio" else deg - own
    value = _min_ratio(num, deg)
    return float("inf") if value is None else value


def check_oracle(op: Op, result: dict) -> list[str]:
    """Each witness must be a bisection achieving the returned value."""
    inp = op.input
    errors = []
    for obj, (value, labels) in result.items():
        labels = np.asarray(labels)
        sizes = np.bincount(labels, minlength=2)
        if len(sizes) != 2 or sorted(sizes.tolist()) != [inp.n // 2, inp.n - inp.n // 2]:
            errors.append(f"{obj}: witness is not a bisection")
            continue
        own, deg = _recount(inp, labels)
        if _objective(obj, own, deg) != value:
            errors.append(f"{obj}: witness does not achieve {value}")
    return errors


def check(op: Op, result, verified) -> list[str]:
    if op.api == "oracle":
        return check_oracle(op, result)
    return check_report(op, result, verified)


def min_ratio(op: Op, result) -> float:
    """The op's certified (or, for the oracle, optimal) min ratio in its mode."""
    if op.api == "oracle":
        return float(result[OBJECTIVES[op.kind][1]][0])
    return result.stats["min_own_ratio" if op.kind == "int" else "min_cross_ratio"]


def output_hash(op: Op, result) -> str:
    """Hash of what an op emitted: labels and certificate claims, or the
    oracle's values and witnesses."""
    h = hashlib.sha256(op.key.encode())
    if op.api == "oracle":
        for obj, (value, labels) in result.items():
            h.update(f"{obj}={value};".encode())
            h.update(np.asarray(labels, dtype="<i8").tobytes())
    else:
        h.update(np.asarray(result.labels, dtype="<i8").tobytes())
        h.update(json.dumps(result.certificate.claims, sort_keys=True).encode())
    return h.hexdigest()


# -- the workloads -----------------------------------------------------------

GNP_PAPER = {"type": "gnp", "n": 4000, "p": 0.05}

WORKLOADS = {w.name: w for w in (
    Workload(
        "gnp-paper",
        "G(4000,0.05) at the acceptance-test parameters: no vertex is active, "
        "so time goes to ingestion, cross_subgraph, stage one, stats and certify",
        GNP_PAPER, pool=6,
        make_ops=bisection_ops(INT_PAPER, EXT_PAPER, {}),
        engine_params=(INT_PAPER, EXT_PAPER), toy={"n": 400}),
    Workload(
        "powerlaw-bind",
        "Chung-Lu n=20000 with vacuous windows: every vertex is active and "
        "refinement moves vertices (extraction, evacuation, absorption)",
        {"type": "chung_lu", "n": 20000, "mean_degree": 20, "exponent": 2.5},
        pool=6, make_ops=bisection_ops(INT_BIND, EXT_BIND, VACUOUS),
        engine_params=(INT_BIND, EXT_BIND), binds=True, toy={"n": 2000}),
    Workload(
        "rpart-3",
        "3-part r_partition of G(4000,0.05) in both modes: the only path that "
        "gives the cuts layer work",
        GNP_PAPER, pool=4, make_ops=rpartition_ops(RPART_BIAS),
        toy={"n": 400}),
    Workload(
        "oracle-n16",
        "exact best_bisection of fresh G(16,0.4) graphs for all four "
        "objectives: the only path that reaches the oracle",
        {"type": "gnp", "n": 16, "p": 0.4, "graphs": 6}, make_ops=oracle_ops,
        toy={"n": 10, "graphs": 2}),
)}
