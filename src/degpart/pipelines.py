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
refinement of the run's mode, and the target conditions of its
``certify.statement``, judged by the verifier.  Every shape built on it
(bisections, exact tripartitions, dual and cut-average bisections) sets its
run parameters, statement record and finish step; one private function,
``_construct``, does the rest.  The shapes take ``seed``,
``n_guarantee_threshold`` and the keywords of ``stage1.stage_one``
(attempts, size_window, weight_budget) and pass them through unchanged; the
report's diagnostics carry stage one's per-attempt log.  ``tripartition``
keeps one ``graph.Counts`` and one threshold table, built over the graph's
degree classes, for the whole run: stage one counts each attempt once, and
every later move, check and judgement reads the maintained counts.  Each
labeling a pipeline emits is counted once more from scratch
(``certify.recount``, with the run's table), and ``_make_report`` judges its
conditions and its statistics on that count in one verifier pass, so each
claim is judged once; it is the one place a report's ok is decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import certify
from .certify import Certificate
from .cuts import BiasVector, biased_max_r_cut
from .graph import Counts, Graph
from .refine_ext import refine_external
from .refine_int import refine_internal_once
from .stage1 import (PART_A, PART_B, PART_C, VACUOUS, StageOneResult,
                     balancing_sides, stage_one, window_bounds)
from .thresholds import (EXTERNAL, INTERNAL, ParamSet, ThresholdTable,
                         build_threshold_table)

VERSION = "0.2.0"


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


def partition_stats(counted) -> dict:
    """Degree statistics of a counted labeling.

    counted is a ``certify`` context (``recount`` or ``from_counts``); graph,
    labels and part count are read from it.  Degree minima run over all
    vertices (isolated vertices count as 0); ratio minima run over
    positive-degree vertices only and are exact fractions (inf when every
    vertex is isolated).
    """
    graph, own, cross = counted.graph, counted.own, counted.cross
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
    return partition_stats(
        certify.recount(graph, random_bisection_labels(graph.n, seed), 2))


# -- report ------------------------------------------------------------------

# the stats that read inf on a graph without edges
_RATIO_STATS = ("min_own_ratio", "min_cross_ratio")


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

    def to_jsonable(self) -> dict:
        """The report as JSON values; an infinite ratio minimum (no vertex
        of positive degree) is written as null, which JSON can carry."""
        stats = {key: None if key in _RATIO_STATS and value == math.inf else value
                 for key, value in self.stats.items()}
        return {
            "mode": self.mode, "shape": self.shape, "params": self.params,
            "n": self.n, "r": self.r, "labels": self.labels.tolist(),
            "stats": stats, "certificate": self.certificate.to_jsonable(),
            "ok": self.ok, "guaranteed": self.guaranteed, "seed": self.seed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "PipelineReport":
        """Read back ``to_jsonable``'s form; a null ratio minimum is inf.
        Labels that make no 1-D array (a nested or ragged list, a scalar)
        raise TypeError naming them."""
        if not isinstance(d, dict):
            raise TypeError(f"the report must be a JSON object, got {type(d).__name__}")
        try:
            labels = np.asarray(d["labels"])
        except ValueError:  # a ragged list
            labels = None
        if labels is None or labels.ndim != 1:
            raise TypeError("'labels' must be a flat list")
        stats = d["stats"]
        if isinstance(stats, dict):
            stats = {key: math.inf if key in _RATIO_STATS and value is None else value
                     for key, value in stats.items()}
        return cls(d["mode"], d["shape"], d["params"], d["n"], d["r"], labels, stats,
                   Certificate.from_jsonable(d["certificate"]), d["ok"],
                   d["guaranteed"], d.get("seed", 0), d.get("diagnostics", {}))


def _make_report(counted, params: dict, conditions: dict, seed: int,
                 diagnostics: dict, n_guarantee_threshold: int | None = None,
                 hyp_ok: bool = True) -> PipelineReport:
    """Judge an emitted labeling and assemble its report; the one place a
    report's ok is decided.

    counted is the ``certify.recount`` of the labeling.  Its statistics and
    the shape's named conditions (each a list of claims) are judged in one
    verifier pass on it.  The certificate carries the claims of the
    conditions that hold, then the statistics' claims, which must all hold.
    ok means there is a condition and every condition holds; diagnostics'
    ``"conditions"`` key, if any, receives the verdict.
    """
    graph, labels, r = counted.graph, counted.labels, counted.matrix.shape[1]
    stats = partition_stats(counted)
    verdict, claims = _judge(counted, {**conditions, "stats": _stats_claims(stats)})
    assert verdict.pop("stats"), (
        f"pipeline emitted statistics its own verifier rejects: {stats}")
    if "conditions" in diagnostics:
        diagnostics["conditions"] = verdict
    ok = bool(conditions) and all(verdict.values())
    # the asymptotic size thresholds have no explicit values; without a
    # user-asserted threshold no run claims a guarantee
    guaranteed = bool(ok and hyp_ok and n_guarantee_threshold is not None
                      and graph.n >= n_guarantee_threshold)
    cert = Certificate(graph.fingerprint, params, seed, VERSION, claims)
    return PipelineReport(params["mode"], params["statement"]["shape"], params,
                          graph.n, r, labels, stats, cert, ok, guaranteed, seed,
                          diagnostics)


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

    Returns the folded labels; infeasible slot counts fall back to
    smaller-side filling.  The fold reads counts and does not update them,
    since at c=0 it moves half the vertices.
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
        return lab
    lean = counts.matrix[c_ids, PART_A] - counts.matrix[c_ids, PART_B]
    order = np.lexsort((c_ids, -lean))  # descending lean, ties by id
    ranked = c_ids[order]
    if prefer == "cross":
        ranked = ranked[::-1]
    lab[ranked[:slots_a]] = PART_A
    lab[ranked[slots_a:]] = PART_B
    return lab


def _fold(tri: TripartitionResult, prefer: str, cap_a: int | None = None):
    """Fold C of a tripartition in, relabel A to 0 and B to 1, and count the
    bisection with ``certify.recount``, which judges table floors with the
    run's table.  An infeasible fold leaves the sides at least two apart, so
    the balance claim of a bisection judges it."""
    labels = distribute_c_for_balance(tri.counts, prefer, cap_a)
    return certify.recount(tri.counts.graph, np.where(labels == PART_B, 1, 0), 2,
                           tri.table)


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
    table: ThresholdTable
    diagnostics: dict = field(default_factory=dict)
    counts: Counts | None = None


def tripartition(graph: Graph, params: ParamSet, seed: int = 0,
                 **stage_one_options) -> TripartitionResult:
    """Stage one, then the refinement of ``params.mode``, then the conditions.

    stage_one_options (attempts, size_window, weight_budget) go to
    ``stage_one``.  Internal mode refines side A, then side B with the
    roles of the sides exchanged (``refine_internal_once``); external mode
    extracts, absorbs and cuts (``refine_external``).  The threshold table
    is built over ``graph.degree_classes[0]``.  The conditions of the
    ``"tripartition"`` statement at these parameters are judged by the
    verifier's claim code on the maintained counts and this table; ok
    means stage one succeeded and every condition holds.  An explicit
    size_window override replaces the default contract: the final size
    window is still recorded but no longer gates ok.
    Stage-one failure short-circuits with the stage diagnostics.
    """
    table = build_threshold_table(params, graph.degree_classes[0])
    s1 = stage_one(graph, params, table, seed=seed, **stage_one_options)
    counts = s1.counts.copy()
    if not s1.ok:
        return TripartitionResult(
            False, counts.labels, {}, s1, [], table,
            {"stage": "stage1", "violated": s1.violated}, counts)
    if params.mode == INTERNAL:
        traces = [refine_internal_once(counts, table)]
        counts.swap(PART_A, PART_B)
        traces.append(refine_internal_once(counts, table))
        counts.swap(PART_A, PART_B)
    else:
        traces = [refine_external(counts, table, cut_seed=seed)]
    conditions, _ = _judge(certify.from_counts(counts, table), certify.statement(
        {"shape": "tripartition", **params.as_dict()}, graph.n))
    failed = [k for k, v in conditions.items() if not v]
    gate_window = stage_one_options.get("size_window") is None
    ok = not [k for k in failed if gate_window or k != "size_window"]
    diagnostics = {} if ok else {"stage": "conditions", "failed": failed}
    return TripartitionResult(ok, counts.labels, conditions, s1, traces, table,
                              diagnostics, counts)


def _construct(graph: Graph, record: dict, run_params: ParamSet, finish,
               hyp_floor: float | None = None, window=None, /, *, seed: int = 0,
               n_guarantee_threshold: int | None = None,
               **stage_one_options) -> PipelineReport:
    """Run the tripartition, report its failure or finish it, and make the
    report, with the statement record in its params.

    finish(tri, statement) gets ``certify.statement`` of record and returns
    the counted labeling to emit, its named conditions and diagnostics, all
    handed to ``_make_report`` to judge; giving up, it names no condition
    and the report is not ok.  window is the shape's default stage-one size
    window.  hyp_floor is a derived shape's minimum-degree hypothesis; such
    a shape judges unmet tripartition conditions in its finish step, while a
    bisection (no hypothesis) fails on them.  finish, hyp_floor and window
    are positional only, so no option a caller passes can bind them.
    """
    if stage_one_options.get("size_window") is None:
        stage_one_options["size_window"] = window
    # a caller's table= reaches stage_one beside the run's table: a TypeError
    tri = tripartition(graph, run_params, seed=seed, **stage_one_options)
    if tri.ok or (hyp_floor is not None and tri.diagnostics["stage"] == "conditions"):
        counted, conditions, diagnostics = finish(
            tri, certify.statement(record, graph.n))
    else:
        counted, conditions, diagnostics = (
            certify.recount(graph, tri.labels, 3), {}, {"failure": tri.diagnostics})
    min_deg = int(graph.degree.min()) if graph.n else 0
    hyp_ok = hyp_floor is None or min_deg >= hyp_floor
    if hyp_floor is not None:
        diagnostics["min_degree_hypothesis"] = {
            "required": hyp_floor, "actual": min_deg, "ok": hyp_ok}
    diagnostics["stage1_attempts"] = tri.stage1.attempts
    diagnostics["stage1_log"] = tri.stage1.log
    return _make_report(counted, {**run_params.as_dict(), "statement": record},
                        conditions, seed, diagnostics, n_guarantee_threshold, hyp_ok)


# -- bisection pipelines -----------------------------------------------------


def _bisect(graph: Graph, params: ParamSet, mode: str, options) -> PipelineReport:
    """A bisection: C carries doubled floors, so folding it in for balance
    keeps a C-vertex's floor on either side.  Its measured sizes ride beside
    its statement, certifying stats["sizes"]."""
    if params.c != 0.0 or params.mode != mode:
        raise ValueError(f"bisect_{mode} needs an {mode}-mode ParamSet with c=0")

    def finish(tri, statement):
        counted = _fold(tri, certify.TARGET[mode])
        conditions = {"balance": statement["balance"],
                      "sizes": [certify.claim_part_sizes(counted.sizes)],
                      "floor": statement["floor"]}
        return counted, conditions, {"tripartition_conditions": tri.conditions}
    record = {"shape": "bisect", "mode": mode, "eps": params.eps, "d_const": params.d}
    return _construct(graph, record, params, finish, **options)


def bisect_internal(graph: Graph, params: ParamSet | None = None, *,
                    eps: float = 0.25, d_const: float | None = None,
                    **options) -> PipelineReport:
    """Bisection where every active vertex keeps floor(phi(d)) own-part
    neighbors: C-vertices carry doubled floors and join the side they lean
    toward."""
    if params is None:
        params = ParamSet(0.0, eps, INTERNAL, d_const=d_const)
    return _bisect(graph, params, INTERNAL, options)


def bisect_external(graph: Graph, params: ParamSet | None = None, *,
                    eps: float = 0.09, d_const: float | None = None,
                    **options) -> PipelineReport:
    """Bisection where every active vertex keeps floor(psi(d)) neighbors in
    the opposite part; C-vertices carry doubled floors toward both sides, so
    any destination works."""
    if params is None:
        params = ParamSet(0.0, eps, EXTERNAL, d_const=d_const)
    return _bisect(graph, params, EXTERNAL, options)


# -- exact tripartitions and derived bisection pipelines ---------------------


def _derived(c: float, eps: float, mode: str, d_const: float | None) -> ParamSet:
    """The run parameters of a derived shape: c with eps' = (1-c)^2*eps/40."""
    return ParamSet(c, (1.0 - c) ** 2 * eps / 40.0, mode, d_const=d_const)


def tripartition_exact(graph: Graph, k: int, params: ParamSet,
                       **options) -> PipelineReport:
    """Tripartition with integer floors: own-degree >= k on A and B (internal
    mode) or cross-degree >= k on A∪B (external), plus >= 2k from C toward
    both sides, and sizes within [(1-c-eps)/2, (1-c)/2]*n.

    The run uses the derived parameter eps' = (1-c)^2*eps/40 internally; the
    minimum-degree hypothesis (4/(1-c)+eps)*k is reported and inputs below it
    run best-effort with guaranteed=False.
    """
    k = certify.floor_k(k)
    c, eps = params.c, params.eps
    if eps > 1.0 - c:
        raise ValueError(f"tripartition_exact needs eps <= 1-c, got {eps}")
    window = options.pop("size_window", None)
    if window is not None:
        window = [[float(lo), float(hi)] for lo, hi in window_bounds(
            (0.0, graph.n) if window == VACUOUS else window)]
    record = {"shape": "tripart", "mode": params.mode, "k": k, "c": c, "eps": eps,
              "window": window}
    # the window is stage one's and the final claim's alike
    window = [(w["lo"], w["hi"])
              for w in certify.statement(record, graph.n)["size_window"]]

    def finish(tri, statement):
        return (certify.recount(graph, tri.labels, 3), statement,
                {"conditions": None, "k": k})
    return _construct(graph, record, _derived(c, eps, params.mode, params.d_const),
                      finish, (4.0 / (1.0 - c) + eps) * k, window, **options)


def bisect_dual(graph: Graph, k: int, eps: float, primary: str = INTERNAL, *,
                d_const: float | None = None, **options) -> PipelineReport:
    """Bisection meeting the primary floor k everywhere, with at least
    ceil((1-eps)*n) vertices also meeting the secondary floor k: the
    ``"dual"`` statement, which gates ok.

    Runs the exact tripartition machinery at c = 1-eps: the C part (nearly
    everything) carries doubled floors toward both sides, so after folding C
    in, its vertices meet both the own and the cross floor.
    """
    k = certify.floor_k(k)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    c = 1.0 - eps

    def finish(tri, statement):
        counted = _fold(tri, certify.TARGET[primary])
        secondary = counted.cross if primary == INTERNAL else counted.own
        return counted, statement, {"k": k, "eps": eps, "primary": primary,
                                    "secondary_count": int((secondary >= k).sum())}
    record = {"shape": "dual", "mode": primary, "k": k, "eps": eps}
    return _construct(graph, record, _derived(c, eps, primary, d_const), finish,
                      (4.0 / eps + eps) * k, (0.0, (1.0 - c) / 2.0 * graph.n),
                      **options)


def bisect_with_cut_average(graph: Graph, k: int, eps: float, *,
                            d_const: float | None = None,
                            **options) -> PipelineReport:
    """Bisection with own-degree >= k on both sides and at least
    ceil(k*n/2) cut edges: the ``"cutavg"`` statement, which gates ok.

    Runs the internal tripartition at c = 1/4; C is split with exactly
    floor(n/2) - |A| vertices joining A, so each C-vertex spends its doubled
    floor once on its own side and keeps >= 2k cross neighbors, giving the
    cut at least 2k*|C| >= k*n/2 edges (|C| >= n/4) when the tripartition
    conditions held; ``diagnostics["cut_bound"]`` holds 2k*|C|.
    """
    k = certify.floor_k(k)
    c = 0.25
    n = graph.n

    def finish(tri, statement):
        sizes = tri.counts.sizes
        cap_a = n // 2 - int(sizes[PART_A])
        size_c = int(sizes[PART_C])
        if not 0 <= cap_a <= size_c:
            return (certify.recount(graph, tri.labels, 3), {},
                    {"failure": "C split infeasible", "cap_a": cap_a,
                     "size_c": size_c})
        counted = _fold(tri, "own", cap_a)
        cut = int(counted.matrix[counted.labels == 0, 1].sum())
        return counted, statement, {
            "k": k, "eps": eps, "cut_edges": cut, "cut_bound": 2 * k * size_c,
            "size_c": size_c, "cut_avg_degree": 2.0 * cut / n if n else 0.0,
            "avg_cut_target": float(k)}
    return _construct(graph, {"shape": "cutavg", "k": k},
                      _derived(c, eps, INTERNAL, d_const), finish,
                      (16.0 / 3.0 + eps) * k,
                      ((1.0 - c - eps) / 2.0 * n, (1.0 - c) / 2.0 * n), **options)


# -- r-partitions ------------------------------------------------------------


def _repair(labels: np.ndarray, degree: np.ndarray,
            targets: list[int]) -> tuple[np.ndarray, int]:
    """r_partition's size repair: (repaired labels, number of movers).  Only
    deficit parts receive, so the destinations follow from the deficits
    alone: part q's slots carry need_q, ..., 1, taken in (-deficit, q) order.
    """
    r = len(targets)
    sizes = np.bincount(labels, minlength=r)
    excess = sizes - np.asarray(targets)
    # (part, degree, id) order: lexsort is stable, so ids stay ascending
    by_part = np.lexsort((degree, labels))
    rank = np.arange(len(labels)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    movers = np.sort(by_part[rank < np.maximum(excess, 0)[labels[by_part]]])
    movers = movers[np.argsort(degree[movers], kind="stable")]
    need = np.maximum(-excess, 0)
    parts = np.repeat(np.arange(r), need)
    # the deficit a slot carries is need - rank, so -deficit is rank - need
    rank = np.arange(len(parts)) - np.repeat(np.cumsum(need) - need, need)
    labels = labels.copy()
    labels[movers] = parts[np.lexsort((parts, rank - need[parts]))]
    return labels, len(movers)


def r_partition(graph: Graph, bias: BiasVector, mode: str = EXTERNAL, *,
                seed: int = 0,
                n_guarantee_threshold: int | None = None) -> PipelineReport:
    """r-partition with exact part sizes |V_i| = alpha_i*n (largest-remainder
    rounding) built from a biased local search plus a size repair.

    external mode minimizes sum e(U_i)/alpha_i: at the local optimum every
    vertex satisfies d_outside(x) >= (1-alpha_i)*d(x) exactly.  internal mode
    maximizes the same objective, giving d_own(x) >= alpha_i*d(x) for
    vertices in parts of size >= 2.  The repair: each oversized part gives up
    its surplus of lowest-(degree, id) members; the movers, in (degree, id)
    order, each go to the part with the largest remaining deficit, the lower
    index on ties.  ``diagnostics["repaired_vertices"]`` counts the movers,
    and ``diagnostics["pre_repair"]`` holds the search's objective at its
    start and end and its moves.  The search stops only at a local optimum;
    the repair can break its inequalities, and the report's stats and claims
    are the measured post-repair ones.
    """
    if mode not in (INTERNAL, EXTERNAL):
        raise ValueError(f"mode must be internal or external, got {mode!r}")
    record = {"shape": "rpart", "alpha": [str(a) for a in bias.alpha]}
    statement = certify.statement(record, graph.n)
    targets = statement["sizes"][0]["sizes"]
    result = biased_max_r_cut(graph, bias, seed=seed, maximize=mode == INTERNAL)
    labels, repaired = _repair(result.labels, graph.degree, targets)

    diagnostics = {
        "pre_repair": {"objective_start": str(result.objective_start),
                       "objective_end": str(result.objective_end),
                       "moves": result.moves},
        "repaired_vertices": repaired}
    params = {"mode": mode, "r": bias.r, "statement": record}
    return _make_report(certify.recount(graph, labels, bias.r), params, statement,
                        seed, diagnostics, n_guarantee_threshold)


# -- shapes by name ----------------------------------------------------------


SHAPES = ("bisect", "tripart", "rpart", "dual", "cutavg")
# the run_shape parameters each shape never reads: dual runs at c = 1-eps and
# cutavg at c = 1/4 whatever c is given
_UNREAD = {"bisect": ("k",), "rpart": ("c", "k", "eps", "d_const"),
           "dual": ("c",), "cutavg": ("c",)}


def run_shape(graph: Graph, shape: str, mode: str, *, c: float = 0.0,
              eps: float | None = None, k: int = 0, alpha=("1/2", "1/2"),
              d_const: float | None = None, seed: int = 0,
              **stage_one_options) -> PipelineReport:
    """Run the construction a shape name stands for, for the command line and
    the bench alike.

    eps defaults to 0.25, or to 0.09 for an external bisection (external mode
    caps eps at 0.1).  stage_one_options (attempts, size_window,
    weight_budget) go to stage one, None meaning the default; rpart has
    none.  A parameter the shape does not read must keep its default (c=0,
    k=0, eps and d_const None), or ValueError is raised.
    """
    given = {"c": c != 0.0, "k": k != 0, "eps": eps is not None,
             "d_const": d_const is not None}
    if shape == "bisect" and given["c"]:
        # refused before ParamSet judges eps against a c it never runs at
        raise ValueError(f"bisect_{mode} needs an {mode}-mode ParamSet with c=0")
    unread = [name for name in _UNREAD.get(shape, ()) if given[name]]
    if unread:
        raise ValueError(f"{shape} does not read {', '.join(unread)}; "
                         f"keep the default")
    if eps is None:
        eps = 0.09 if (shape, mode) == ("bisect", EXTERNAL) else 0.25
    opts = {key: v for key, v in stage_one_options.items() if v is not None}
    if shape == "rpart":
        if opts:
            raise ValueError(f"rpart has no stage one; it takes no "
                             f"{', '.join(sorted(opts))}")
        return r_partition(graph, BiasVector(tuple(alpha)), mode, seed=seed)
    opts["seed"] = seed
    if shape == "bisect":
        run = bisect_internal if mode == INTERNAL else bisect_external
        return run(graph, ParamSet(0.0, eps, mode, d_const=d_const), **opts)
    if shape == "tripart":
        # the integer-floor construction accepts eps up to 1-c; the derived
        # run parameter always satisfies the mode cap
        params = ParamSet(c, eps, mode, d_const=d_const, relaxed=True)
        return tripartition_exact(graph, k, params, **opts)
    if shape == "dual":
        return bisect_dual(graph, k, eps, mode, d_const=d_const, **opts)
    if shape == "cutavg":
        if mode != INTERNAL:
            raise ValueError(f"cutavg runs in internal mode only, got {mode!r}")
        return bisect_with_cut_average(graph, k, eps, d_const=d_const, **opts)
    raise ValueError(f"unknown shape {shape!r}")
