"""End-to-end constructions: bisections, exact tripartitions, dual-floor
bisections, cut-average bisections, and r-partitions.

Every pipeline returns a PipelineReport carrying the final labeling, from-
scratch statistics, and a certificate whose claims were each re-checked
before emission, so the independent verifier always passes it.  Whenever a
hypothesis is unmet (minimum degree, or the instance being too small for the
asymptotic guarantees to bind) the pipeline still runs but reports
guaranteed=False; nothing is claimed silently.  The asymptotic thresholds
have no known explicit values, so guaranteed=True additionally requires the
caller to set ``n_guarantee_threshold`` and the instance to clear it.

Every tripartition comes from one driver, ``tripartition``: stage one, the
refinement of the run's mode, and the target conditions expressed as
certificate claims and judged by the verifier.  The driver keeps one
``graph.Counts`` for the whole run: stage one counts each attempt once, and
every later move, check and judgement reads the maintained counts.  Each
labeling a pipeline emits is counted once more from scratch
(``certify.recount``); that count serves its statistics, its conditions and
the self-verification of its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import certify
from .certify import Certificate
from .cuts import BiasVector, biased_max_r_cut, check_biased_local_min
from .graph import Counts, Graph, LabeledPartition
from .refine_ext import refine_external
from .refine_int import refine_internal_once
from .stage1 import (PART_A, PART_B, PART_C, VACUOUS, StageOneResult,
                     balancing_sides, stage_one)
from .thresholds import (EXTERNAL, INTERNAL, ParamSet, ThresholdTable,
                         build_threshold_table)

VERSION = "0.1.0"

# the table floor and the degree a mode constrains
_FLOOR_FN = {INTERNAL: "phi", EXTERNAL: "psi"}
_TARGET = {INTERNAL: "own", EXTERNAL: "cross"}


# -- statistics --------------------------------------------------------------


def _exact_min_ratio(num: np.ndarray, den: np.ndarray):
    """Exact min of num[i]/den[i] over entries with den > 0, as a reduced
    Fraction (inf when no entry qualifies).

    A float argmin seeds the search; int64 cross-multiplication settles it,
    exactly, because the products of degree counts stay below n^2.
    """
    pos = den > 0
    if not pos.any():
        return math.inf
    num, den = num[pos], den[pos]
    best = int(np.argmin(num / den))
    while (below := np.flatnonzero(num * den[best] < num[best] * den)).size:
        best = int(below[np.argmin(num[below] / den[below])])
    return Fraction(int(num[best]), int(den[best]))


def partition_stats(graph: Graph, labels: np.ndarray, r: int, counted=None) -> dict:
    """From-scratch degree statistics of a labeling.

    Degree minima run over all vertices (isolated vertices count as 0);
    ratio minima run over positive-degree vertices only and are exact
    fractions (inf when every vertex is isolated).  counted is a
    ``certify.recount`` of the same labeling to read, when the caller has one.
    """
    if counted is None:
        counted = certify.recount(graph, labels, r)
    own, cross = counted.own, counted.cross
    cut = int(cross.sum()) // 2
    own_ratio = _exact_min_ratio(own, graph.degree)
    cross_ratio = _exact_min_ratio(cross, graph.degree)

    def frac_fields(frac):
        if frac is math.inf:
            return math.inf, None
        return float(frac), [frac.numerator, frac.denominator]

    own_val, own_frac = frac_fields(own_ratio)
    cross_val, cross_frac = frac_fields(cross_ratio)
    return {
        "sizes": counted.sizes.tolist(),
        "min_own_degree": int(own.min()) if graph.n else 0,
        "min_cross_degree": int(cross.min()) if graph.n else 0,
        "min_own_ratio": own_val,
        "min_own_ratio_frac": own_frac,
        "min_cross_ratio": cross_val,
        "min_cross_ratio_frac": cross_frac,
        "cut_edges": cut,
        "cut_avg_degree": (2.0 * cut / graph.n) if graph.n else 0.0,
    }


def _stats_claims(stats: dict) -> list[dict]:
    claims = [
        certify.claim_extremal_stat("min_own_degree", stats["min_own_degree"]),
        certify.claim_extremal_stat("min_cross_degree", stats["min_cross_degree"]),
    ]
    if stats["min_own_ratio_frac"] is not None:
        claims.append(certify.claim_extremal_ratio(
            "own", *stats["min_own_ratio_frac"]))
    if stats["min_cross_ratio_frac"] is not None:
        claims.append(certify.claim_extremal_ratio(
            "cross", *stats["min_cross_ratio_frac"]))
    return claims


def random_bisection_labels(n: int, seed: int = 0) -> np.ndarray:
    """A uniformly random balanced bisection: n // 2 vertices in part 1."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.permutation(n)[: n // 2]] = 1
    return labels


def random_bisection_stats(graph: Graph, seed: int = 0) -> dict:
    """Stats of a uniformly random balanced bisection (baseline pairing)."""
    return partition_stats(graph, random_bisection_labels(graph.n, seed), 2)


# -- report ------------------------------------------------------------------


@dataclass
class PipelineReport:
    mode: str
    shape: str
    params: dict
    n: int
    r: int
    labels: np.ndarray
    stats: dict
    certificate: Certificate
    ok: bool
    guaranteed: bool
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def partition(self) -> LabeledPartition:
        return LabeledPartition(self.r, self.labels)

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode, "shape": self.shape, "params": self.params,
            "n": self.n, "r": self.r, "labels": self.labels.tolist(),
            "stats": self.stats, "certificate": self.certificate.to_jsonable(),
            "ok": self.ok, "guaranteed": self.guaranteed, "seed": self.seed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "PipelineReport":
        return cls(d["mode"], d["shape"], d["params"], d["n"], d["r"],
                   np.asarray(d["labels"]), d["stats"],
                   Certificate.from_jsonable(d["certificate"]), d["ok"],
                   d["guaranteed"], d.get("seed", 0), d.get("diagnostics", {}))


def _make_report(graph: Graph, shape: str, params: ParamSet | dict,
                 labels: np.ndarray, r: int, claims: list, ok: bool, seed: int,
                 diagnostics: dict, n_guarantee_threshold: int | None = None,
                 hyp_ok: bool = True, counted=None) -> PipelineReport:
    """Assemble a report; its certificate must pass the verifier.

    counted is the ``certify.recount`` of labels that judged the claims;
    the stats and every certificate claim are judged on it as well.
    """
    # the asymptotic size thresholds have no explicit values; without a
    # user-asserted threshold no run claims a guarantee
    guaranteed = bool(ok and hyp_ok and n_guarantee_threshold is not None
                      and graph.n >= n_guarantee_threshold)
    pdict = params.as_dict() if isinstance(params, ParamSet) else dict(params)
    mode = pdict.get("mode", "n/a")
    if counted is None:
        counted = certify.recount(graph, labels, r)
    stats = partition_stats(graph, labels, r, counted)
    cert = Certificate(graph.fingerprint, pdict, seed, VERSION,
                       claims + _stats_claims(stats))
    res = certify.verify_counted(counted, cert)
    assert res.passed, (
        f"pipeline emitted a certificate its own verifier rejects: "
        f"claim {res.failed_claim} witness {res.witness}")
    return PipelineReport(mode, shape, pdict, graph.n, r, labels, stats, cert,
                          ok, guaranteed, seed, diagnostics)


def _judge(counted, conditions: dict):
    """Judge named conditions, each a list of claims, with the verifier's
    claim code on a certify context (a recount, or the driver's counts).

    Returns ({name: whether all its claims hold}, the claims of the conditions
    that hold).  Keeps failure reports honest: a pipeline never certifies a
    statement the verifier rejects.
    """
    flags = iter(certify.judge(
        counted, [c for claims in conditions.values() for c in claims]))
    verdict = {name: all([next(flags) for _ in claims])
               for name, claims in conditions.items()}
    return verdict, [c for name, claims in conditions.items() if verdict[name]
                     for c in claims]


# -- C distribution ----------------------------------------------------------


def distribute_c_for_balance(counts: Counts, prefer: str = "own",
                             cap_a: int | None = None):
    """Fold part C of a counted tripartition into A and B to form a bisection.

    C-vertices are sorted by d_A - d_B (descending), and the available A
    slots go to the most A-leaning vertices when prefer="own" (internal
    pipelines: keep movers next to their neighbors) or the least A-leaning
    when prefer="cross" (external pipelines: put movers opposite their
    neighbors).  cap_a fixes the number of C-vertices that A receives
    (cut-average split); default fills A up to ceil-half of n.

    Returns (labels2, feasible); infeasible slot counts fall back to
    smaller-side filling and feasible=False.  The fold reads counts and does
    not update them, since at c=0 it moves half the vertices.
    """
    lab = counts.labels.copy()
    c_ids = np.nonzero(lab == PART_C)[0]
    size_a, size_b = int(counts.sizes[PART_A]), int(counts.sizes[PART_B])
    n = counts.graph.n
    slots_a = ((n - n // 2 if size_a >= size_b else n // 2) - size_a
               if cap_a is None else int(cap_a))
    slots_b = len(c_ids) - slots_a
    if slots_a < 0 or slots_b < 0:
        # best effort: keep sizes as close as we can
        lab[c_ids] = balancing_sides(size_a, size_b, len(c_ids))
        return lab, False
    lean = counts.matrix[c_ids, PART_A] - counts.matrix[c_ids, PART_B]
    order = np.lexsort((c_ids, -lean))  # descending lean, ties by id
    ranked = c_ids[order]
    if prefer == "cross":
        ranked = ranked[::-1]
    lab[ranked[:slots_a]] = PART_A
    lab[ranked[slots_a:]] = PART_B
    return lab, True


def _fold(graph: Graph, tri: TripartitionResult, prefer: str,
          cap_a: int | None = None):
    """Fold C of a tripartition in, relabel A to 0 and B to 1, and count the
    bisection: (its ``certify.recount``, whether the fold was feasible)."""
    labels, feasible = distribute_c_for_balance(tri.counts, prefer, cap_a)
    return certify.recount(graph, np.where(labels == PART_B, 1, 0), 2), feasible


# -- the tripartition driver -------------------------------------------------


@dataclass
class TripartitionResult:
    """A tripartition run: labels, per-condition outcomes, and the audit
    trail; counts are the run's maintained Counts of labels."""

    ok: bool
    labels: np.ndarray
    conditions: dict
    stage1: StageOneResult
    traces: list
    params: ParamSet
    table: ThresholdTable
    diagnostics: dict = field(default_factory=dict)
    counts: Counts | None = None


def tripartition(graph: Graph, params: ParamSet,
                 table: ThresholdTable | None = None, seed: int = 0,
                 attempts: int = 64, size_window=None, weight_budget=None,
                 stage_log=None) -> TripartitionResult:
    """Stage one, then the refinement of ``params.mode``, then the conditions.

    Internal mode refines side A, then side B with the roles of the sides
    exchanged (``refine_internal_once``); external mode extracts, absorbs and
    cuts (``refine_external``).  The conditions of
    ``certify.tripartition_claims`` under the mode's table floor are judged
    by the verifier's claim code on the maintained counts and this table; ok
    means the construction completed and every condition holds.  An explicit
    size_window override replaces the default contract: the final size
    window is still recorded but no longer gates ok.
    Stage-one failure short-circuits with the stage diagnostics.
    """
    if table is None:
        table = build_threshold_table(params, np.unique(graph.degree))
    s1 = stage_one(graph, params, table, seed=seed, attempts=attempts,
                   size_window=size_window, weight_budget=weight_budget,
                   diagnostics_fh=stage_log)
    counts = s1.counts.copy()
    if not s1.ok:
        return TripartitionResult(
            False, counts.labels, {}, s1, [], params, table,
            {"stage": "stage1", "violated": s1.violated,
             "failure_counts": s1.failure_counts}, counts)
    if params.mode == INTERNAL:
        traces, diagnostics = [], {}
        for stage, swap in (("refine_a", False), ("refine_b", True)):
            if swap:
                counts.swap(PART_A, PART_B)
            trace = refine_internal_once(counts, params, table)
            if swap:
                counts.swap(PART_A, PART_B)
            traces.append(trace)
            if not trace.ok:
                return TripartitionResult(
                    False, counts.labels, {}, s1, traces, params, table,
                    {"stage": stage, "failed_vertex": trace.failed_vertex}, counts)
    else:
        trace = refine_external(counts, params, table, cut_seed=seed)
        traces = [trace]
        diagnostics = {"precut_checks": dict(trace.checks),
                       "refine_precond": dict(trace.precond)}
    n, c, eps = graph.n, params.c, params.eps
    # rounded outward like the stage window, so small instances are not
    # rejected by a sub-integer window width
    window = (math.floor((1.0 - c - 3.0 * eps) / 2.0 * n),
              math.ceil((1.0 - c - eps) / 2.0 * n))
    floor = certify.table_floor(_FLOOR_FN[params.mode], params)
    conditions, _ = _judge(certify.from_counts(counts, table),
                           certify.tripartition_claims(params.mode, floor, window))
    failed = [k for k, v in conditions.items() if not v]
    ok = not [k for k in failed if size_window is None or k != "size_window"]
    if not ok:
        diagnostics.update({"stage": "conditions", "failed": failed})
    return TripartitionResult(ok, counts.labels, conditions, s1, traces, params,
                              table, diagnostics, counts)


# -- bisection pipelines -----------------------------------------------------


def _failure_report(graph: Graph, shape: str, params: ParamSet, tri,
                    seed: int) -> PipelineReport:
    diagnostics = {"failure": tri.diagnostics,
                   "stage1_attempts": tri.stage1.attempts}
    return _make_report(graph, shape, params, tri.labels, 3, [], False, seed,
                        diagnostics)


def _bisect(graph: Graph, params: ParamSet, mode: str, seed: int, attempts: int,
            size_window, weight_budget, stage_log,
            n_guarantee_threshold: int | None) -> PipelineReport:
    """Tripartition with doubled floors on C, then fold C in for balance:
    either destination preserves a C-vertex's floor."""
    if params.c != 0.0 or params.mode != mode:
        raise ValueError(f"bisect_{mode} needs an {mode}-mode ParamSet with c=0")
    tri = tripartition(graph, params, seed=seed, attempts=attempts,
                       size_window=size_window, weight_budget=weight_budget,
                       stage_log=stage_log)
    if not tri.ok:
        return _failure_report(graph, "bisect", params, tri, seed)
    counted, feasible = _fold(graph, tri, _TARGET[mode])
    verdict, claims = _judge(counted, {
        "balance": [certify.claim_balance(1)],
        "sizes": [certify.claim_part_sizes(counted.sizes)],
        "floor": [certify.claim_degree_floor(
            "all", _TARGET[mode], certify.table_floor(_FLOOR_FN[mode], params, 1))],
    })
    ok = feasible and verdict["balance"] and verdict["floor"]
    diagnostics = {"tripartition_conditions": tri.conditions}
    if mode == EXTERNAL:
        diagnostics["precut_checks"] = tri.diagnostics.get("precut_checks")
    diagnostics["stage1_attempts"] = tri.stage1.attempts
    return _make_report(graph, "bisect", params, counted.labels, 2, claims, ok,
                        seed, diagnostics, n_guarantee_threshold, counted=counted)


def bisect_internal(graph: Graph, params: ParamSet | None = None, *,
                    eps: float = 0.25, d_const: float | None = None,
                    seed: int = 0, attempts: int = 64, size_window=None,
                    weight_budget=None, stage_log=None,
                    n_guarantee_threshold: int | None = None) -> PipelineReport:
    """Bisection where every active vertex keeps floor(phi(d)) own-part
    neighbors: C-vertices carry doubled floors and join the side they lean
    toward."""
    if params is None:
        params = ParamSet(0.0, eps, INTERNAL, d_const=d_const)
    return _bisect(graph, params, INTERNAL, seed, attempts, size_window,
                   weight_budget, stage_log, n_guarantee_threshold)


def bisect_external(graph: Graph, params: ParamSet | None = None, *,
                    eps: float = 0.09, d_const: float | None = None,
                    seed: int = 0, attempts: int = 64, size_window=None,
                    weight_budget=None, stage_log=None,
                    n_guarantee_threshold: int | None = None) -> PipelineReport:
    """Bisection where every active vertex keeps floor(psi(d)) neighbors in
    the opposite part; C-vertices carry doubled floors toward both sides, so
    any destination works."""
    if params is None:
        params = ParamSet(0.0, eps, EXTERNAL, d_const=d_const)
    return _bisect(graph, params, EXTERNAL, seed, attempts, size_window,
                   weight_budget, stage_log, n_guarantee_threshold)


# -- exact tripartitions and derived bisection pipelines ---------------------


def _run_derived(graph: Graph, shape: str, c: float, eps: float, mode: str,
                 d_const: float | None, hyp_floor: float, run: dict):
    """Run the tripartition at c with the derived eps' = (1-c)^2*eps/40.

    ``run`` holds the driver's seed, attempts, size_window, weight_budget and
    stage_log.  Returns (run params, tripartition, min-degree-hypothesis
    dict, failure report or None); unmet final conditions are not a failure
    here, the caller reports them.
    """
    run_params = ParamSet(c, (1.0 - c) ** 2 * eps / 40.0, mode, d_const=d_const)
    tri = tripartition(graph, run_params, **run)
    min_deg = int(graph.degree.min()) if graph.n else 0
    hyp = {"required": hyp_floor, "actual": min_deg, "ok": min_deg >= hyp_floor}
    failure = None
    if not tri.ok and tri.diagnostics.get("stage") != "conditions":
        failure = _failure_report(graph, shape, run_params, tri, run["seed"])
        failure.diagnostics["min_degree_hypothesis"] = hyp
    return run_params, tri, hyp, failure


def tripartition_exact(graph: Graph, k: int, params: ParamSet, *,
                       seed: int = 0, attempts: int = 64, size_window=None,
                       weight_budget=None, stage_log=None,
                       n_guarantee_threshold: int | None = None) -> PipelineReport:
    """Tripartition with integer floors: own-degree >= k on A and B (internal
    mode) or cross-degree >= k on A∪B (external), plus >= 2k from C toward
    both sides, and sizes within [(1-c-eps)/2, (1-c)/2]*n.

    The run uses the derived parameter eps' = (1-c)^2*eps/40 internally; the
    minimum-degree hypothesis (4/(1-c)+eps)*k is reported and inputs below it
    run best-effort with guaranteed=False.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    c, eps = params.c, params.eps
    if eps > 1.0 - c:
        raise ValueError(f"tripartition_exact needs eps <= 1-c, got {eps}")
    n = graph.n
    if size_window is None:
        size_window = ((1.0 - c - eps) / 2.0 * n, (1.0 - c) / 2.0 * n)
    elif size_window == VACUOUS:
        size_window = (0.0, float(n))
    run_params, tri, hyp, failure = _run_derived(
        graph, "tripart", c, eps, params.mode, params.d_const,
        (4.0 / (1.0 - c) + eps) * k,
        dict(seed=seed, attempts=attempts, size_window=size_window,
             weight_budget=weight_budget, stage_log=stage_log))
    if failure:
        return failure
    # the integer-floor contract names the floors of A and B jointly
    groups = list(certify.tripartition_claims(
        params.mode, certify.const_floor(k), size_window).values())
    named = {"size_window": groups[0], "floor_ab": sum(groups[1:-1], []),
             "floor_c": groups[-1]}
    counted = certify.recount(graph, tri.labels, 3)
    conditions, claims = _judge(counted, named)
    ok = all(conditions.values())
    diagnostics = {"conditions": conditions, "min_degree_hypothesis": hyp,
                   "k": k, "stage1_attempts": tri.stage1.attempts}
    return _make_report(graph, "tripart", run_params, tri.labels, 3, claims, ok,
                        seed, diagnostics, n_guarantee_threshold, hyp["ok"],
                        counted)


def bisect_dual(graph: Graph, k: int, eps: float, primary: str = INTERNAL, *,
                d_const: float | None = None, seed: int = 0, attempts: int = 64,
                size_window=None, weight_budget=None, stage_log=None,
                n_guarantee_threshold: int | None = None) -> PipelineReport:
    """Bisection meeting the primary floor k everywhere, with the count of
    vertices also meeting the secondary floor k reported against (1-eps)*n.

    Runs the exact tripartition machinery at c = 1-eps: the C part (nearly
    everything) carries doubled floors toward both sides, so after folding C
    in, its vertices meet both the own and the cross floor.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    c = 1.0 - eps
    n = graph.n
    if size_window is None:
        size_window = (0.0, (1.0 - c) / 2.0 * n)
    run_params, tri, hyp, failure = _run_derived(
        graph, "dual", c, eps, primary, d_const, (4.0 / eps + eps) * k,
        dict(seed=seed, attempts=attempts, size_window=size_window,
             weight_budget=weight_budget, stage_log=stage_log))
    if failure:
        return failure
    counted, feasible = _fold(graph, tri, _TARGET[primary])
    secondary = counted.cross if primary == INTERNAL else counted.own
    secondary_count = int((secondary >= k).sum())
    secondary_target = (1.0 - eps) * n
    secondary_name = "cross" if primary == INTERNAL else "own"
    verdict, claims = _judge(counted, {
        "balance": [certify.claim_balance(1)],
        "secondary": [certify.claim_count_meeting_floor(
            secondary_name, k, secondary_count)],
        "primary": [certify.claim_degree_floor(
            "all", _TARGET[primary], certify.const_floor(k))],
    })
    ok = feasible and verdict["primary"] and verdict["balance"]
    diagnostics = {
        "k": k, "eps": eps, "primary": primary,
        "secondary_count": secondary_count,
        "secondary_target": secondary_target,
        "secondary_ok": secondary_count >= secondary_target,
        "min_degree_hypothesis": hyp,
        "stage1_attempts": tri.stage1.attempts,
    }
    return _make_report(graph, "dual", run_params, counted.labels, 2, claims, ok,
                        seed, diagnostics, n_guarantee_threshold, hyp["ok"],
                        counted)


def bisect_with_cut_average(graph: Graph, k: int, eps: float, *,
                            d_const: float | None = None, seed: int = 0,
                            attempts: int = 64, size_window=None,
                            weight_budget=None, stage_log=None,
                            n_guarantee_threshold: int | None = None) -> PipelineReport:
    """Bisection with own-degree >= k on both sides and cut size >= 2k*|C|.

    Runs the internal tripartition at c = 1/4; C is split with exactly
    floor(n/2) - |A| vertices joining A, so each C-vertex spends its doubled
    floor once on its own side and keeps >= 2k cross neighbors, giving the
    cut at least 2k*|C| >= k*n/2 edges when the tripartition conditions held.
    """
    c = 0.25
    n = graph.n
    if size_window is None:
        size_window = ((1.0 - c - eps) / 2.0 * n, (1.0 - c) / 2.0 * n)
    run_params, tri, hyp, failure = _run_derived(
        graph, "cutavg", c, eps, INTERNAL, d_const, (16.0 / 3.0 + eps) * k,
        dict(seed=seed, attempts=attempts, size_window=size_window,
             weight_budget=weight_budget, stage_log=stage_log))
    if failure:
        return failure
    sizes = tri.counts.sizes
    cap_a = n // 2 - int(sizes[PART_A])
    size_c = int(sizes[PART_C])
    if not 0 <= cap_a <= size_c:
        return _make_report(graph, "cutavg", run_params, tri.labels, 3, [],
                            False, seed, {"failure": "C split infeasible",
                                          "cap_a": cap_a, "size_c": size_c})
    counted, _ = _fold(graph, tri, "own", cap_a)
    cut = int(counted.matrix[counted.labels == 0, 1].sum())
    cut_bound = 2 * k * size_c
    verdict, claims = _judge(counted, {
        "balance": [certify.claim_balance(1)],
        "own": [certify.claim_degree_floor("all", "own", certify.const_floor(k))],
        "cut": [certify.claim_cut_edges_at_least(cut_bound)],
    })
    ok = all(verdict.values())
    diagnostics = {
        "k": k, "eps": eps, "cut_edges": cut, "cut_bound": cut_bound,
        "size_c": size_c, "cut_avg_degree": 2.0 * cut / n if n else 0.0,
        "avg_cut_target": float(k),
        "min_degree_hypothesis": hyp,
        "stage1_attempts": tri.stage1.attempts,
    }
    return _make_report(graph, "cutavg", run_params, counted.labels, 2, claims,
                        ok, seed, diagnostics, n_guarantee_threshold, hyp["ok"],
                        counted)


# -- r-partitions ------------------------------------------------------------


def _target_sizes(bias: BiasVector, n: int) -> list[int]:
    """floor(alpha_i * n) with the remainder going to the largest fractional
    parts (ties to the lower index)."""
    alphas = [Fraction(a) if not isinstance(a, Fraction) else a
              for a in bias.alpha]
    floors = [int(a * n) for a in alphas]
    fracs = [a * n - f for a, f in zip(alphas, floors)]
    rest = n - sum(floors)
    order = sorted(range(len(alphas)), key=lambda i: (-fracs[i], i))
    for i in order[:rest]:
        floors[i] += 1
    if any(f < 1 for f in floors):
        bad = floors.index(0)
        raise ValueError(
            f"part {bad} rounds to zero vertices (alpha={float(alphas[bad])}, n={n})")
    return floors


def r_partition(graph: Graph, bias: BiasVector, mode: str = EXTERNAL, *,
                seed: int = 0,
                n_guarantee_threshold: int | None = None) -> PipelineReport:
    """r-partition with exact part sizes |V_i| = alpha_i*n (largest-remainder
    rounding) built from a biased local search plus a size repair.

    external mode minimizes sum e(U_i)/alpha_i: at the local optimum every
    vertex satisfies d_outside(x) >= (1-alpha_i)*d(x) exactly.  internal mode
    maximizes the same objective, giving d_own(x) >= alpha_i*d(x) for
    vertices in parts of size >= 2.  The repair moves lowest-degree vertices
    from oversized to undersized parts and can break the local-optimum
    inequalities, so the report keeps the certified pre-repair values apart
    from the measured post-repair values.
    """
    if mode not in (INTERNAL, EXTERNAL):
        raise ValueError(f"mode must be internal or external, got {mode!r}")
    targets = _target_sizes(bias, graph.n)
    maximize = mode == INTERNAL
    result = biased_max_r_cut(graph, bias, seed=seed, maximize=maximize)
    # one count of the local optimum serves its check and its statistics
    pre = certify.recount(graph, result.labels, bias.r)
    violations = check_biased_local_min(pre.counts, bias, maximize=maximize)
    pre_stats = partition_stats(graph, result.labels, bias.r, pre)
    pre_certified = not violations

    labels = result.labels.copy()
    sizes = np.bincount(labels, minlength=bias.r).tolist()
    deltas = [s - t for s, t in zip(sizes, targets)]
    # movers: lowest-degree vertices of oversized parts first
    movers = []
    for j in range(bias.r):
        if deltas[j] > 0:
            members = np.nonzero(labels == j)[0]
            order = np.lexsort((members, graph.degree[members]))
            movers.extend(members[order][: deltas[j]].tolist())
    movers.sort(key=lambda v: (int(graph.degree[v]), v))
    for v in movers:
        src = int(labels[v])
        dst = min(range(bias.r), key=lambda q: (sizes[q] - targets[q], q))
        labels[v] = dst
        sizes[src] -= 1
        sizes[dst] += 1
    sizes = np.bincount(labels, minlength=bias.r).tolist()
    assert sizes == targets, f"size repair missed targets: {sizes} vs {targets}"

    claims = [certify.claim_part_sizes(targets)]
    diagnostics = {
        "pre_repair": {"stats": pre_stats, "local_optimum_certified": pre_certified,
                       "objective_start": str(result.objective_start),
                       "objective_end": str(result.objective_end),
                       "moves": result.moves, "violations": len(violations)},
        "repaired_vertices": len(movers),
        "alpha": [str(a) for a in bias.alpha],
        "bias_exact": bias.exact,
    }
    params = {"mode": mode, "alpha": [float(a) for a in bias.alpha],
              "r": bias.r}
    return _make_report(graph, "rpart", params, labels, bias.r, claims, True,
                        seed, diagnostics, n_guarantee_threshold)
