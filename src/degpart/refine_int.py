"""Deterministic refinement for internal (own-part) degree floors.

One refinement pass rebuilds part A of a tripartition A|B|C so that every
vertex left in A meets the floored own-degree threshold, without disturbing
the goodness structure that C provides:

  1. extract a core A* of G[A] in which every vertex of degree i already has
     floor(phi(i)) neighbors inside the core (greedy dense extraction with
     classes A ∩ V^i, targets floor(phi(i)), slacks mu_i);
  2. evacuate vertices of A whose joint degree into A ∪ C falls below
     floor(phi(i)), moving each one together with its current C-neighborhood
     into B (processed in ascending id over a work queue);
  3. patch each remaining deficient vertex x of A by pulling
     floor(phi(i)) - d_A(x) of its C-neighbors into A (lowest ids first).

After step 2 every surviving A-vertex has joint degree >= floor(phi(i)), so
the patch can never run out of donors; evacuated vertices land in B with
i - floor(phi(i)) + 1 or more B-neighbors, which exceeds the B-goodness
threshold (the per-degree inequality i - floor(phi(i)) >= floor(thr_int(i))
is re-checked numerically before each run rather than taken on faith).

The pass takes the run's ``graph.Counts`` of the tripartition: every move
goes through it and every check reads it.  ``pipelines.tripartition``
applies the pass twice after stage one, the second time with the roles of
the two sides exchanged, and judges the target conditions with the
certificate verifier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dense import ClassFamily, ExtractResult, degree_classes, extract_dense
from .graph import Counts
from .stage1 import PART_A, PART_B, PART_C, goodness_map
from .thresholds import ParamSet, ThresholdTable


@dataclass
class Evacuation:
    vertex: int
    degree: int
    joint_degree_at_move: int  # |N(v) ∩ (A ∪ C)| when the move fired
    absorbed: list  # C-neighbors moved to B together with the vertex


@dataclass
class InternalRefineTrace:
    """Full audit trail of one refinement pass (refines part 0)."""

    ok: bool
    failed_vertex: int | None
    a_star: np.ndarray
    extract: ExtractResult | None
    evacuations: list
    patch: dict
    labels_in: np.ndarray
    labels_out: np.ndarray
    precond: dict
    checks: dict
    guaranteed: bool

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "failed_vertex": self.failed_vertex,
            "a_star_size": int(len(self.a_star)),
            "evacuations": [
                {"vertex": e.vertex, "degree": e.degree,
                 "joint_degree": e.joint_degree_at_move, "absorbed": e.absorbed}
                for e in self.evacuations],
            "patch": {str(x): rx for x, rx in self.patch.items()},
            "precond": self.precond,
            "checks": self.checks,
            "guaranteed": self.guaranteed,
        }


def _evacuee_landing_is_good(table: ThresholdTable) -> bool:
    """Check i - floor(phi(i)) >= floor(thr_int(i)) for every active degree.

    This is the arithmetic fact that makes evacuated vertices B-good.  It
    holds for all mu >= 0 (the product (3 + 2*mu)((1-c)/4 - mu/2) never
    reaches 1), but the refinement relies on it per degree, so it is checked
    numerically for the degrees actually present.
    """
    return bool((~table.active | (table.degrees - table.fphi >= table.fthr_int)).all())


def refine_internal_once(counts: Counts, params: ParamSet, table: ThresholdTable,
                         skip_patch: bool = False) -> InternalRefineTrace:
    """One refinement pass over part 0 of a counted tripartition (parts 0|1|2).

    Preconditions (every active C-vertex both-good; the A-side weight below
    eps^2*n/250) are checked and recorded, and the pass runs regardless; the
    trace's ``guaranteed`` flag reports whether everything the construction
    promises under those preconditions actually held.  skip_patch disables
    step 3 for ablation runs (the floor check then reports honestly).

    Every move of the pass goes through counts and every check reads them,
    so they end at ``labels_out``.
    """
    graph, lab = counts.graph, counts.labels
    n = graph.n
    labels_in = lab.copy()
    rows = table.row_index(graph.degree)
    active = table.active[rows]
    fphi = table.fphi[rows]

    gm = goodness_map(counts, table)
    in_a = lab == PART_A
    weight_a = int(graph.degree[in_a & active & ~gm.good_a].sum())
    precond = {
        "goodness_ok": not bool(((lab == PART_C) & active & ~gm.both_good).any()),
        "weight_a": weight_a,
        "weight_ok_entry": weight_a <= params.eps ** 2 * n / 250.0,
        "weight_ok_stage": weight_a <= params.eps ** 2 * n / 1e4,
    }
    arithmetic_ok = _evacuee_landing_is_good(table)

    # step 1: the dense core of G[A]
    host = np.nonzero(in_a)[0]
    classes = degree_classes(graph, host, np.where(active, fphi, 0),
                             table.mu[rows])
    extract = None
    if classes:
        extract = extract_dense(graph, ClassFamily(classes, host))
        a_star = extract.surviving
    else:
        a_star = host.copy()

    # step 2: evacuation of joint-degree-deficient A vertices
    dac = counts.matrix[:, PART_A] + counts.matrix[:, PART_C]
    constrained = active & (fphi >= 1)
    evacuations: list[Evacuation] = []
    queue = deque(np.nonzero(in_a & constrained & (dac < fphi))[0].tolist())
    in_c = lab == PART_C
    while queue:
        v = queue.popleft()
        if not in_a[v] or dac[v] >= fphi[v]:
            continue
        absorbed = [w for w in graph.neighbors(v).tolist() if in_c[w]]
        evacuations.append(Evacuation(int(v), int(graph.degree[v]), int(dac[v]),
                                      absorbed))
        moved = [v] + absorbed
        for u in moved:
            in_c[u] = False
        in_a[v] = False
        for u in moved:
            for w in graph.neighbors(u).tolist():
                if in_a[w]:
                    dac[w] -= 1
                    if constrained[w] and dac[w] < fphi[w]:
                        queue.append(w)
    counts.move([u for e in evacuations for u in [e.vertex] + e.absorbed], PART_B)

    a1 = np.nonzero(in_a)[0]
    a_star_set = set(a_star.tolist())
    assert a_star_set <= set(a1.tolist()), \
        "extracted core lost vertices during evacuation"

    # step 3: patch deficient A vertices from their C-neighborhoods
    d_a = counts.matrix[:, PART_A]
    patch: dict[int, list[int]] = {}
    ok = True
    failed_vertex = None
    if not skip_patch:
        for v in a1.tolist():
            if constrained[v] and d_a[v] < fphi[v]:
                need = int(fphi[v] - d_a[v])
                donors = [w for w in graph.neighbors(v).tolist() if in_c[w]]
                if len(donors) < need:
                    ok = False
                    failed_vertex = int(v)
                    break
                patch[int(v)] = donors[:need]
    if ok:
        counts.move(sorted({w for rx in patch.values() for w in rx}), PART_A)

    # the pass contract, checked on the maintained counts
    gm2 = goodness_map(counts, table)
    in_a2, in_b2, in_c2 = (lab == PART_A), (lab == PART_B), (lab == PART_C)
    in_b0, in_c0 = labels_in == PART_B, labels_in == PART_C
    drift = params.eps * n / 500.0
    sz = lambda m: int(m.sum())
    checks = {
        "arithmetic_fact": arithmetic_ok,
        "b_grew_only": bool((in_b0 <= in_b2).all()),
        "c_shrank_only": bool((in_c2 <= in_c0).all()),
        "size_drift_a": abs(sz(in_a2) - sz(labels_in == PART_A)) <= drift,
        "size_drift_b": sz(in_b0) <= sz(in_b2) <= sz(in_b0) + drift,
        "size_drift_c": sz(in_c0) - drift <= sz(in_c2) <= sz(in_c0),
        "floor_a": bool((~(active & in_a2) | (d_a >= fphi)).all()),
        "c_both_good": not bool((in_c2 & active & ~gm2.both_good).any()),
        "new_b_good": not bool((in_b2 & ~in_b0 & active & ~gm2.good_b).any()),
        "bad_b_contained": bool(
            ((in_b2 & active & ~gm2.good_b) <= (in_b0 & active & ~gm.good_b)).all()),
    }
    if ok:
        assert checks["b_grew_only"] and checks["c_shrank_only"]
        if precond["goodness_ok"] and not skip_patch:
            # patch donors come from C and are A-good, so the floor cannot
            # miss unless the entry goodness precondition already failed
            assert checks["floor_a"], \
                "a vertex of A missed its own-degree floor after the patch"
        if precond["goodness_ok"] and arithmetic_ok:
            assert checks["new_b_good"], \
                "an evacuated vertex landed in B without B-goodness"
    guaranteed = ok and precond["goodness_ok"] and precond["weight_ok_entry"] \
        and all(checks.values())
    return InternalRefineTrace(ok, failed_vertex, a_star, extract, evacuations,
                               patch, labels_in, lab.copy(), precond, checks,
                               guaranteed)
