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
  with the table it built (an r-partition reads the pre-repair statistics
  of its local optimum from the search's counts the same way);
* each labeling a pipeline emits is counted once from scratch into a fresh
  Counts (``recount(graph, labels, r, table)``), on which its conditions and
  statistics are judged in one pass (``judge``), each claim once, with the
  table the run built;
* the standalone ``verify_certificate`` always recounts, and builds its own
  tables from the recorded parameters; that is what makes it independent.

What a shape certifies is written once, in ``statement``: the pipelines
gate on it, and ``verify_report`` requires it of a report's certificate.

Every table is built over the graph's ``degree_classes``, computed once per
graph, and reads its per-vertex floor and ``active`` columns through
``ThresholdTable.column``, gathered once per graph.

Every judgement screens its claims first (``judge``, and through it the
pipelines, raise ``MalformedClaim``; ``verify_certificate`` fails with the
reason): a claim of unknown kind, with a missing or ill-typed field, or with
a part index outside [0, r) is refused, never read.

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
                       equals num/den (compared cross-multiplied, exactly);
                       den >= 1 unless no vertex has positive degree
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import Counts, Graph
from .thresholds import (EXTERNAL, INTERNAL, ParamSet, ThresholdTable,
                         build_threshold_table)


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
        if not isinstance(d, dict):
            raise TypeError(f"'certificate' must be an object, got {type(d).__name__}")
        claims = d.get("claims", [])
        # list({}) is [], which would pass a report whose claims are a dict
        if not isinstance(claims, list):
            raise TypeError(f"'claims' must be a list, got {type(claims).__name__}")
        return cls(d["graph_hash"], d.get("params", {}), d.get("seed"),
                   d.get("version", ""), list(claims))


@dataclass
class VerifyResult:
    passed: bool
    failed_index: int | None = None
    failed_claim: dict | None = None
    witness: int | None = None
    reason: str | None = None  # why it failed, unless a claim names it
    statement: bool | None = None  # set by verify_report

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


# the degree each mode constrains
TARGET = {INTERNAL: "own", EXTERNAL: "cross"}


def floor_k(k) -> int:
    """k as an int; ValueError unless an integer >= 0 (numpy yes, bool no)."""
    if not _is_int(k) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    return int(k)


def _target_sizes(alphas, n: int) -> list[int]:
    """floor(alpha_i n), the remainder to the largest fractions (ties: lower index)."""
    floors = [int(a * n) for a in alphas]
    order = sorted(range(len(alphas)), key=lambda i: (floors[i] - alphas[i] * n, i))
    for i in order[:n - sum(floors)]:
        floors[i] += 1
    if 0 in floors:
        bad = floors.index(0)
        raise ValueError(f"part {bad} of n={n} rounds to zero (alpha {alphas[bad]})")
    return floors


def statement(record: dict, n: int) -> dict[str, list]:
    """The named conditions (lists of claims) stating a shape's theorem on
    n vertices.  record names the shape and the inputs it reads:

        tripartition  mode, c, eps, d_const: ``pipelines.tripartition``'s target
        bisect        mode, eps, d_const
        tripart       mode, k, c, eps, window: null or [[lo_a, hi_a], [lo_b, hi_b]]
        dual          mode, k, eps (exact: (1-eps)n reads Fraction(eps))
        cutavg        k
        rpart         alpha, as 'p/q' strings

    A record it cannot read raises LookupError, TypeError, ValueError or
    ArithmeticError."""
    shape = record["shape"]
    if shape not in ("tripartition", "bisect", "tripart", "dual", "cutavg", "rpart"):
        raise ValueError(f"unknown shape {shape!r}")
    if shape == "rpart":
        alphas = [Fraction(a) for a in record["alpha"]]
        return {"sizes": [claim_part_sizes(_target_sizes(alphas, n))]}
    k = floor_k(record["k"]) if shape in ("tripart", "dual", "cutavg") else 0
    balance = {"balance": [claim_balance(1)]}
    if shape == "cutavg":
        return {**balance, "own": [claim_degree_floor("all", "own", const_floor(k))],
                "cut": [claim_cut_edges_at_least((k * n + 1) // 2)]}
    mode = record["mode"]
    own, other = TARGET[mode], TARGET[EXTERNAL if mode == INTERNAL else INTERNAL]
    if shape == "dual":
        at_least = math.ceil((1 - Fraction(record["eps"])) * n)
        return {**balance, "primary": [claim_degree_floor("all", own, const_floor(k))],
                "secondary": [claim_count_meeting_floor(other, k, at_least)]}
    c, eps = 0.0 if shape == "bisect" else record["c"], record["eps"]
    if shape == "tripart":
        floor, doubled = const_floor(k), const_floor(2 * k)
        windows = record["window"]
        if windows is None:
            windows = [((1.0 - c - eps) / 2.0 * n, (1.0 - c) / 2.0 * n)] * 2
    else:
        params = ParamSet(c, eps, mode, d_const=record["d_const"], relaxed=True)
        fn = "phi" if mode == INTERNAL else "psi"
        floor, doubled = (table_floor(fn, params, f) for f in (1, 2))
        if shape == "bisect":
            return {**balance, "floor": [claim_degree_floor("all", own, floor)]}
        # rounded outward like the stage window, so small instances are not
        # rejected by a sub-integer window width
        windows = [(math.floor((1.0 - c - 3.0 * eps) / 2.0 * n),
                    math.ceil((1.0 - c - eps) / 2.0 * n))] * 2
    conditions = {"size_window": [claim_part_size_window(part, lo, hi)
                                  for part, (lo, hi) in enumerate(windows)]}
    # internal: each side's floor inside it; external: toward the other side
    sides = [claim_degree_floor(p, p if mode == INTERNAL else 1 - p, floor)
             for p in (0, 1)]
    centre = [claim_degree_floor(2, p, doubled) for p in (0, 1)]
    if shape == "tripart":
        return {**conditions, "floor_ab": sides, "floor_c": centre}
    if mode == INTERNAL:
        return {**conditions, "floor_a": sides[:1], "floor_b": sides[1:],
                "floor_c": centre}
    return {**conditions, "floor_cross": sides, "floor_z": centre}


# -- verification ------------------------------------------------------------


def _table_key(params: ParamSet) -> tuple:
    return params.c, params.eps, params.mode, params.d


class _Context:
    """The counts of one labeling, shared across the claims judged on it.

    ``graph``, ``labels``, ``matrix`` and ``sizes`` are read from
    ``counts``, a ``graph.Counts``; ``own``/``cross`` are each vertex's
    degree inside/outside its part.  A table floor reads the table handed in
    for its parameters, if any; otherwise the context builds one over the
    graph's degree classes, once per parameter set.
    """

    def __init__(self, counts: Counts, table: ThresholdTable | None = None):
        self.counts = counts
        self.graph, self.labels = counts.graph, counts.labels
        self.matrix, self.sizes = counts.matrix, counts.sizes
        self.own = self.matrix[np.arange(self.graph.n), self.labels]
        self.cross = self.graph.degree - self.own
        self._tables = {} if table is None else {_table_key(table.params): table}

    def stat(self, target) -> np.ndarray:
        if target == "own":
            return self.own
        if target == "cross":
            return self.cross
        return self.matrix[:, int(target)]

    def floors(self, floor: dict) -> tuple[np.ndarray, np.ndarray]:
        """(floor value per vertex, active mask per vertex).

        A const value and a table factor are clipped to [0, max degree + 1]
        before the int64 arithmetic, so no floor wraps; the verdict is the
        same, since no degree count is negative, no count exceeds the maximum
        degree, and an active vertex's table floor is at least 0.
        """
        n = self.graph.n
        top = int(self.graph.degree.max(initial=0)) + 1
        clip = lambda k: min(max(int(k), 0), top)
        if floor["type"] == "const":
            return (np.full(n, clip(floor["value"]), dtype=np.int64),
                    np.ones(n, dtype=bool))
        params = ParamSet(floor["c"], floor["eps"], floor["mode"],
                          d_const=floor["d_const"], relaxed=True)
        key = _table_key(params)
        if key not in self._tables:
            self._tables[key] = build_threshold_table(
                params, self.graph.degree_classes[0])
        table = self._tables[key]
        col = table.column({"phi": "fphi", "psi": "fpsi"}[floor["fn"]], self.graph)
        return clip(floor["factor"]) * col, table.column("active", self.graph)


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
        num, den = int(claim["num"]), int(claim["den"])
        pos = np.flatnonzero(ctx.graph.degree)
        if len(pos) == 0:
            return den == 0, None
        if den < 1:
            return False, None
        # col/deg vs num/den, cross-multiplied.  Every achievable ratio is
        # col/deg with 0 <= col <= deg <= top, so a claim in lowest terms
        # outside 0 <= num <= den <= top cannot hold; inside, the products
        # are at most top**2 < 2**63 (top < MAX_VERTICES), exact in int64.
        # Outside, python ints find the first vertex below num/den, the
        # witness of its failure.
        g = math.gcd(num, den)
        num, den = num // g, den // g
        deg, col = ctx.graph.degree[pos], col[pos]
        top = int(deg.max())
        if not 0 <= num <= den <= top:
            deg, col = deg.astype(object), col.astype(object)
        lhs, rhs = col * den, num * deg
        below = lhs < rhs
        if below.any():
            return False, int(pos[np.argmax(below)])
        return bool((lhs == rhs).any()), None
    raise ValueError(f"unknown claim kind {kind!r}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _floor_ok(floor) -> bool:
    if not isinstance(floor, dict):
        return False
    if floor.get("type") == "const":
        return _is_int(floor.get("value"))
    try:
        ParamSet(floor["c"], floor["eps"], floor["mode"], d_const=floor["d_const"],
                 relaxed=True)
    except (KeyError, TypeError, ValueError):
        return False
    return floor.get("type") == "table" and floor.get("fn") in ("phi", "psi") \
        and _is_int(floor.get("factor"))


def _malformed(claim, r: int) -> str | None:
    """Why a claim cannot be judged on an r-partition; None when it can.

    Part indices must lie in [0, r): numpy would read -1 as the last part.
    """
    kind = claim.get("kind") if isinstance(claim, dict) else None
    if not isinstance(kind, str):  # a list or dict kind is no dict key
        return f"unknown claim kind {kind!r}"
    part = lambda x: _is_int(x) and 0 <= x < r
    real = lambda x: _is_int(x) or isinstance(x, (float, np.floating))
    target = lambda x: x in ("own", "cross") or part(x)
    fields = {
        "part_size_window": {"part": part, "lo": real, "hi": real},
        "part_sizes": {"sizes": lambda x: isinstance(x, list) and all(map(_is_int, x))},
        "balance": {"max_diff": _is_int},
        "degree_floor": {"source": lambda x: x == "all" or part(x),
                         "target": target, "floor": _floor_ok},
        "cut_edges_at_least": {"bound": _is_int, "parts": lambda x: isinstance(
            x, list) and len(x) == 2 and all(map(part, x))},
        "count_meeting_floor": {"target": target, "at_least": _is_int,
                                "floor": lambda x: _floor_ok(x) and x["type"] == "const"},
        "extremal_stat": {"stat": lambda x: x in ("min_own_degree", "min_cross_degree"),
                          "value": _is_int},
        "extremal_ratio": {"stat": lambda x: x in ("own", "cross"), "num": _is_int,
                           "den": _is_int},
    }.get(kind)
    if fields is None:
        return f"unknown claim kind {kind!r}"
    for name, valid in fields.items():
        if name not in claim:
            return f"{kind} claim has no {name!r} field"
        if not valid(claim[name]):
            return f"{kind} claim has a bad {name!r}: {claim[name]!r} (r={r})"
    return None


def recount(graph: Graph, labels, r: int,
            table: ThresholdTable | None = None) -> _Context:
    """Count a labeling from scratch, to judge claims against; ``table``, if
    given, serves the table floors of its parameters (a pipeline hands in
    the table its run built, as ``from_counts`` does).

    Raises ValueError unless r is an integer in [1, max(3, n)], before
    anything is counted: the counts take n*r entries, and no shape needs
    more parts than that (a tripartition has 3, even on fewer vertices; an
    r-partition leaves no part empty).  Raises LabelError (a ValueError)
    unless labels is an integer array of length n with values in [0, r).
    """
    if not (_is_int(r) and r >= 1):
        raise ValueError(f"part count r={r!r} is not an integer >= 1")
    if r > max(3, graph.n):
        raise ValueError(f"part count r={r!r} exceeds max(3, n) = {max(3, graph.n)}")
    return _Context(Counts(graph, labels, int(r)), table)


def from_counts(counts: Counts, table: ThresholdTable | None = None) -> _Context:
    """A context over the counts a producer maintains, for judging its own
    intermediate conditions; ``table``, if given, serves the table floors of
    its parameters.  Emitted labelings are judged on a ``recount`` instead."""
    return _Context(counts, table)


class MalformedClaim(ValueError):
    """A claim that cannot be judged; the message names it by index."""

    def __init__(self, index: int, claim, reason: str):
        super().__init__(f"malformed claim #{index}: {reason}")
        self.index, self.claim = index, claim


def _screen(ctx: _Context, claims: list) -> None:
    """Raise MalformedClaim for the first claim that cannot be judged."""
    r = ctx.matrix.shape[1]
    for idx, claim in enumerate(claims):
        reason = _malformed(claim, r)
        if reason:
            raise MalformedClaim(idx, claim, reason)


def judge(ctx: _Context, claims: list) -> list[bool]:
    """Whether each claim holds in a context; one flag each.

    Raises MalformedClaim (a ValueError) naming the first claim of unknown
    kind, with a missing or ill-typed field, or with a part index outside
    [0, r); no claim is judged then.
    """
    _screen(ctx, claims)
    return [_check_claim(ctx, claim)[0] for claim in claims]


def verify_certificate(graph: Graph, labels, cert: Certificate, r: int) -> VerifyResult:
    """Recompute every claim from scratch against (graph, labels) as an
    r-partition: the labels and ``r`` a report records.

    A graph-hash mismatch refuses verification outright (ValueError) rather
    than failing a claim.  Otherwise nothing raises: labels that are no
    r-partition of the vertices fail with ``reason`` set and the first
    vertex labelled outside [0, r) as the witness (none for an array of the
    wrong shape or dtype); an r that is no integer in [1, max(3, n)] fails
    with ``reason`` set.  The labels are counted once, and the threshold
    tables rebuilt from the recorded parameters.  The claims are screened as
    ``judge`` screens them: a failure names the first claim that cannot be
    judged and the reason; else the first failing claim and its witness
    vertex.
    """
    if not isinstance(cert.graph_hash, str):
        raise ValueError(f"certificate field 'graph_hash' must be a string, "
                         f"got {cert.graph_hash!r}")
    if cert.graph_hash != graph.fingerprint:
        raise ValueError(
            f"certificate bound to graph {cert.graph_hash[:12]}..., "
            f"got {graph.fingerprint[:12]}...")
    try:
        ctx = recount(graph, labels, r)
    except ValueError as exc:  # a bad r, or a LabelError and its vertex, if any
        return VerifyResult(False, witness=getattr(exc, "vertex", None), reason=str(exc))
    try:
        _screen(ctx, cert.claims)
    except MalformedClaim as exc:
        return VerifyResult(False, exc.index, exc.claim, reason=str(exc))
    for idx, claim in enumerate(cert.claims):
        ok, witness = _check_claim(ctx, claim)
        if not ok:
            return VerifyResult(False, idx, claim, witness)
    return VerifyResult(True)


def verify_report(graph: Graph, report) -> VerifyResult:
    """``verify_certificate`` on a report, then its statement: each claim of
    ``statement(params["statement"], n)`` must be in the certificate, equal
    as JSON.  ``passed`` means both hold.  ``statement`` is True; False, with
    ``reason`` naming the missing or altered condition or why the record is
    unreadable; or None when a claim fails or there is no record (pre-0.2.0)."""
    result = verify_certificate(graph, report.labels, report.certificate, report.r)
    if not result.passed:
        return result
    params = report.certificate.params
    record = params.get("statement") if isinstance(params, dict) else None
    if record is None:
        return VerifyResult(False, reason="the certificate records no statement, "
                                          "so its claims bind no theorem")
    try:
        conditions = statement(record, graph.n)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        return VerifyResult(False, reason=f"malformed statement record: "
                            f"{type(exc).__name__}: {exc}", statement=False)
    have = {_canonical(claim) for claim in report.certificate.claims}
    for name, claims in conditions.items():
        for claim in claims:
            if _canonical(claim) not in have:
                return VerifyResult(False, reason=(
                    f"the {record['shape']} statement is not certified: condition "
                    f"{name!r} has no claim {_canonical(claim)}"), statement=False)
    return VerifyResult(True, statement=True)


def _canonical(claim) -> str:
    """A claim as JSON with sorted keys and numpy scalars as Python values,
    so claims compare equal as their JSON files would."""
    def plain(value):
        if isinstance(value, np.generic):
            return value.item()
        raise TypeError(f"object of type {type(value).__name__} is not JSON serializable")
    return json.dumps(claim, sort_keys=True, default=plain)
