"""Certificates and from-scratch re-verification.

A certificate is a list of claims about a (graph, labeling) pair, each
re-checkable from the pair alone: nothing in the verifier trusts the
producer.  Degree claims are verified in exact integer arithmetic; real
thresholds enter only through their floors, which the verifier recomputes
itself from the recorded parameters.  The certificate binds to the exact
graph through an order-independent hash of the sorted edge set.

Claims are judged against a context: the neighbour counts of one labeling,
one ``graph.Counts``.  Three kinds of context split the work of one run:

* the producer maintains its counts while it moves vertices, and
  ``from_counts(counts, table)`` judges its intermediate conditions on them
  with the table it built;
* each labeling a pipeline emits is counted once from scratch into a fresh
  Counts (``recount(graph, labels, r)``), and that one count serves its
  statistics, its conditions and the self-verification of its certificate
  (``verify_counted``);
* the standalone ``verify_certificate`` always recounts, and rebuilds its
  tables from the recorded parameters; that is what makes it independent.

Claim kinds:

    part_size_window   part j size within [lo, hi]
    part_sizes         exact part sizes
    balance            max part-size difference (bisections: 1)
    degree_floor       every vertex in scope meets a floor on its degree
                       into a target ("own", "cross" = everything outside
                       its own part, or an explicit part index); the floor
                       is a constant or floor(factor * fn(degree)) from a
                       recorded threshold table, applied to active vertices
    cut_edges_at_least edge count between two parts is at least a bound
    count_meeting_floor  at least N vertices meet a constant floor
    extremal_stat      the min over vertices of a degree stat equals a value
    extremal_ratio     the min over positive-degree vertices of stat/degree
                       equals num/den (compared cross-multiplied, exactly)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Counts, Graph, LabelError
from .thresholds import INTERNAL, ParamSet, ThresholdTable, build_threshold_table


def graph_fingerprint(graph: Graph) -> str:
    """Order-independent hash of (n, sorted edge set): ``graph.fingerprint``."""
    return graph.fingerprint


@dataclass
class Certificate:
    graph_hash: str
    params: dict
    seed: int | None
    version: str
    claims: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {"graph_hash": self.graph_hash, "params": self.params,
                "seed": self.seed, "version": self.version, "claims": self.claims}

    @classmethod
    def from_jsonable(cls, d: dict) -> "Certificate":
        return cls(d["graph_hash"], d.get("params", {}), d.get("seed"),
                   d.get("version", ""), list(d.get("claims", [])))


@dataclass
class VerifyResult:
    passed: bool
    failed_index: int | None = None
    failed_claim: dict | None = None
    witness: int | None = None
    reason: str | None = None  # set when the labels themselves are malformed

    def __bool__(self) -> bool:
        return self.passed


# -- claim constructors ------------------------------------------------------


def claim_part_size_window(part: int, lo: float, hi: float) -> dict:
    return {"kind": "part_size_window", "part": int(part), "lo": float(lo),
            "hi": float(hi)}


def claim_part_sizes(sizes) -> dict:
    return {"kind": "part_sizes", "sizes": [int(s) for s in sizes]}


def claim_balance(max_diff: int = 1) -> dict:
    return {"kind": "balance", "max_diff": int(max_diff)}


def const_floor(k: int) -> dict:
    return {"type": "const", "value": int(k)}


def table_floor(fn: str, params: ParamSet, factor: int = 1) -> dict:
    return {"type": "table", "fn": fn, "factor": int(factor), "c": params.c,
            "eps": params.eps, "mode": params.mode, "d_const": params.d}


def claim_degree_floor(source, target, floor: dict, witness: int | None = None) -> dict:
    return {"kind": "degree_floor", "source": source, "target": target,
            "floor": floor, "witness": witness}


def claim_cut_edges_at_least(bound: int, parts=(0, 1)) -> dict:
    return {"kind": "cut_edges_at_least", "bound": int(bound),
            "parts": [int(p) for p in parts]}


def claim_count_meeting_floor(target: str, k: int, at_least: int) -> dict:
    return {"kind": "count_meeting_floor", "target": target,
            "floor": const_floor(k), "at_least": int(at_least)}


def claim_extremal_stat(stat: str, value: int) -> dict:
    return {"kind": "extremal_stat", "stat": stat, "value": int(value)}


def claim_extremal_ratio(stat: str, num: int, den: int) -> dict:
    return {"kind": "extremal_ratio", "stat": stat, "num": int(num),
            "den": int(den)}


def tripartition_claims(mode: str, floor: dict, window) -> dict[str, list]:
    """The conditions of a tripartition A|B|C, each as a list of claims.

    size_window: |A| and |B| within window = (lo, hi).  Internal mode:
    floor_a / floor_b, every A- (B-) vertex meets the floor inside its own
    part; floor_c, every C-vertex meets twice the floor toward both A and B.
    External mode: floor_cross, every A- and B-vertex meets the floor toward
    the other side; floor_z, the doubled floors of C.
    """
    lo, hi = window
    doubled = (dict(floor, value=2 * floor["value"]) if floor["type"] == "const"
               else dict(floor, factor=2 * floor["factor"]))
    conditions = {"size_window": [claim_part_size_window(0, lo, hi),
                                  claim_part_size_window(1, lo, hi)]}
    if mode == INTERNAL:
        conditions["floor_a"] = [claim_degree_floor(0, 0, floor)]
        conditions["floor_b"] = [claim_degree_floor(1, 1, floor)]
        doubled_name = "floor_c"
    else:
        conditions["floor_cross"] = [claim_degree_floor(0, 1, floor),
                                     claim_degree_floor(1, 0, floor)]
        doubled_name = "floor_z"
    conditions[doubled_name] = [claim_degree_floor(2, 0, doubled),
                                claim_degree_floor(2, 1, doubled)]
    return conditions


# -- verification ------------------------------------------------------------


def _table_key(params: ParamSet) -> tuple:
    return params.c, params.eps, params.mode, params.d


class _Context:
    """The counts of one labeling, shared across the claims judged on it.

    ``graph``, ``labels``, ``matrix`` and ``sizes`` are read from
    ``counts``, a ``graph.Counts``; ``own``/``cross`` are each vertex's
    degree inside/outside its part.  Threshold tables are built once per
    parameter set, unless one was handed in.
    """

    def __init__(self, counts: Counts, tables: dict | None = None):
        self.counts = counts
        self.graph, self.labels = counts.graph, counts.labels
        self.matrix, self.sizes = counts.matrix, counts.sizes
        self.own = self.matrix[np.arange(self.graph.n), self.labels]
        self.cross = self.graph.degree - self.own
        self._tables = dict(tables or {})

    def stat(self, target) -> np.ndarray:
        if target == "own":
            return self.own
        if target == "cross":
            return self.cross
        return self.matrix[:, int(target)]

    def floors(self, floor: dict) -> tuple[np.ndarray, np.ndarray]:
        """(floor value per vertex, active mask per vertex)."""
        n = self.graph.n
        if floor["type"] == "const":
            return (np.full(n, int(floor["value"]), dtype=np.int64),
                    np.ones(n, dtype=bool))
        params = ParamSet(floor["c"], floor["eps"], floor["mode"],
                          d_const=floor["d_const"], relaxed=True)
        key = _table_key(params)
        if key not in self._tables:
            self._tables[key] = build_threshold_table(
                params, np.unique(self.graph.degree))
        table = self._tables[key]
        rows = table.row_index(self.graph.degree)
        col = {"phi": table.fphi, "psi": table.fpsi}[floor["fn"]]
        return int(floor["factor"]) * col[rows], table.active[rows]


def _check_claim(ctx: _Context, claim: dict) -> tuple[bool, int | None]:
    kind = claim["kind"]
    if kind == "part_size_window":
        ok = claim["lo"] <= int(ctx.sizes[claim["part"]]) <= claim["hi"]
        return ok, None
    if kind == "part_sizes":
        return ctx.sizes.tolist() == list(claim["sizes"]), None
    if kind == "balance":
        ok = int(ctx.sizes.max() - ctx.sizes.min()) <= claim["max_diff"]
        return ok, None
    if kind == "degree_floor":
        stat = ctx.stat(claim["target"])
        floors, active = ctx.floors(claim["floor"])
        if claim["source"] == "all":
            scope = np.ones(ctx.graph.n, dtype=bool)
        else:
            scope = ctx.labels == int(claim["source"])
        bad = scope & active & (stat < floors)
        if bad.any():
            return False, int(np.nonzero(bad)[0][0])
        return True, None
    if kind == "cut_edges_at_least":
        pa, pb = claim["parts"]
        mask = ctx.labels == pa
        cut = int(ctx.matrix[mask, pb].sum())
        return cut >= claim["bound"], None
    if kind == "count_meeting_floor":
        stat = ctx.stat(claim["target"])
        k = claim["floor"]["value"]
        return int((stat >= k).sum()) >= claim["at_least"], None
    if kind == "extremal_stat":
        col = {"min_own_degree": ctx.own, "min_cross_degree": ctx.cross}[claim["stat"]]
        if ctx.graph.n == 0:
            return claim["value"] == 0, None
        actual = int(col.min())
        if actual != claim["value"]:
            return False, int(np.argmin(col))
        return True, None
    if kind == "extremal_ratio":
        col = {"own": ctx.own, "cross": ctx.cross}[claim["stat"]]
        num, den = claim["num"], claim["den"]
        pos = ctx.graph.degree > 0
        if not pos.any():
            return den == 0, None
        # ratio comparisons cross-multiplied: col/deg vs num/den
        lhs = col[pos].astype(object) * den
        rhs = num * ctx.graph.degree[pos].astype(object)
        below = lhs < rhs
        if below.any():
            return False, int(np.nonzero(pos)[0][np.nonzero(below)[0][0]])
        achieves = lhs == rhs
        return bool(achieves.any()), None
    raise ValueError(f"unknown claim kind {kind!r}")


def recount(graph: Graph, labels, r: int) -> _Context:
    """Count a labeling from scratch, to judge claims against.

    Raises LabelError unless labels is an integer array of length n with
    values in [0, r).
    """
    return _Context(Counts(graph, labels, r))


def from_counts(counts: Counts, table: ThresholdTable) -> _Context:
    """A context over the counts a producer maintains, for judging its own
    intermediate conditions; ``table`` serves the table floors of its
    parameters.  Emitted labelings are judged on a ``recount`` instead."""
    return _Context(counts, {_table_key(table.params): table})


def judge(ctx: _Context, claims: list) -> list[bool]:
    """Whether each claim holds in a context; one flag each."""
    return [_check_claim(ctx, claim)[0] for claim in claims]


def check_claims(graph: Graph, labels, r: int, claims: list) -> list[bool]:
    """Judge each claim from scratch against (graph, labels); one flag each.

    Raises LabelError unless labels is an integer array of length n with
    values in [0, r).
    """
    return judge(recount(graph, labels, r), claims)


def _check_binding(graph: Graph, cert: Certificate) -> None:
    actual = graph.fingerprint
    if cert.graph_hash != actual:
        raise ValueError(
            f"certificate bound to graph {cert.graph_hash[:12]}..., "
            f"got {actual[:12]}...")


def verify_counted(ctx: _Context, cert: Certificate) -> VerifyResult:
    """Judge every claim of a certificate against one counted labeling.

    A graph-hash mismatch refuses verification outright (ValueError); a
    failure names the first failing claim and its witness vertex.
    """
    _check_binding(ctx.graph, cert)
    results = [_check_claim(ctx, claim) for claim in cert.claims]
    for idx, (ok, witness) in enumerate(results):
        if not ok:
            return VerifyResult(False, idx, cert.claims[idx], witness)
    return VerifyResult(True)


def verify_certificate(graph: Graph, partition, cert: Certificate,
                       r: int | None = None) -> VerifyResult:
    """Recompute every claim from scratch against (graph, labels).

    ``partition`` is a LabeledPartition or a bare label array (then ``r``
    defaults to max label + 1, at least 2).  A graph-hash mismatch refuses
    verification outright (ValueError) rather than failing a claim.  Labels
    that are no r-partition of the vertices fail with ``reason`` set and the
    first bad vertex as the witness.  The labels are counted once, and the
    threshold tables rebuilt from the recorded parameters.
    """
    _check_binding(graph, cert)
    if hasattr(partition, "labels"):
        labels, r = partition.labels, partition.r
    else:
        labels = np.asarray(partition)
        if r is None:
            integer = np.issubdtype(labels.dtype, np.integer)
            r = max(2, int(labels.max()) + 1) if labels.size and integer else 2
    try:
        ctx = recount(graph, labels, r)
    except LabelError as exc:
        return VerifyResult(False, witness=exc.vertex, reason=str(exc))
    return verify_counted(ctx, cert)
