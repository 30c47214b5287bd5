r"""Deterministic refinement for external (cross) degree floors.

Starting from a stage-one tripartition X|Y|Z whose active Z-vertices are
X-good and Y-good, the construction makes every vertex of the two sides meet
a floored cross-degree floor:

  1. dense-extract on the bipartite cross subgraph H = (X,Y)_G with classes
     V^i ∩ (X ∪ Y), targets floor(psi*(i)) and slacks eta_i, leaving a core
     H' = X1 ∪ Y1 in which every vertex already has enough cross neighbors;
  2. quarantine W1 = V(H \ H') ∪ (N(V(H \ H')) ∩ Z); the rest of Z becomes
     Z1 and keeps its entire X/Y-neighborhood inside the core (purity);
  3. greedily absorb W vertices: anyone with floor(psi(i)) neighbors in the
     current X side joins the Y side and vice versa (passes in ascending id,
     alternating which side is probed first), until nobody qualifies;
  4. split the leftover W2 by a flip-local max-cut of G[W2]; each leftover
     vertex has >= 2*floor(psi(i)) neighbors inside W2, so its cut side
     gives it >= floor(psi(i)) cross neighbors.

It takes the run's ``graph.Counts`` of X|Y|Z and moves W1 through it; H is
built only when some degree class exists.  The three absorption-exit facts
(both side-degrees below floor(psi), inner W2 degree at least twice it) are
asserted on every run; ``pipelines.tripartition`` judges the final
tripartition with the certificate verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuts import local_maxcut
from .dense import ClassFamily, ExtractResult, degree_classes, extract_dense
from .graph import Counts
from .stage1 import PART_A, PART_B, PART_C, goodness_map
from .thresholds import ParamSet, ThresholdTable

PART_X, PART_Y, PART_Z = PART_A, PART_B, PART_C


@dataclass
class Absorption:
    vertex: int
    degree: int
    destination: int          # PART_X or PART_Y
    witnessed_cross: int      # neighbors in the opposite current side
    threshold: int


@dataclass
class ExternalTrace:
    """Audit trail of the external refinement after stage one."""

    extract: ExtractResult | None
    w1: np.ndarray
    absorbed: list
    w2: np.ndarray
    wcut: tuple
    labels_out: np.ndarray
    precond: dict
    checks: dict

    def to_jsonable(self) -> dict:
        return {
            "deleted": [] if self.extract is None else
            [list(t) for t in self.extract.deleted],
            "w1_size": int(len(self.w1)),
            "absorbed": [
                {"vertex": a.vertex, "degree": a.degree, "dest": a.destination,
                 "witnessed_cross": a.witnessed_cross, "threshold": a.threshold}
                for a in self.absorbed],
            "w2": self.w2.tolist(),
            "w_plus": self.wcut[0].tolist(),
            "w_minus": self.wcut[1].tolist(),
            "precond": self.precond,
            "checks": self.checks,
        }


def refine_external(counts: Counts, params: ParamSet, table: ThresholdTable,
                    cut_seed: int = 0, skip_cut: bool = False) -> ExternalTrace:
    """Run extraction, quarantine, absorption and the W2 cut on counted
    X|Y|Z labels.

    skip_cut replaces the max-cut split of the leftover W2 by an arbitrary
    one-sided assignment (ablation: shows why the cut step is needed for the
    leftover vertices' cross floors).

    The W1 side assignments go through counts and the final check reads
    them, so they end at ``labels_out``.
    """
    graph = counts.graph
    n = graph.n
    labels_in = counts.labels.copy()
    rows = table.row_index(graph.degree)
    active = table.active[rows]
    fpsi = table.fpsi[rows]

    gm = goodness_map(counts, table)
    in_z0 = labels_in == PART_Z
    precond = {
        "goodness_ok": not bool((in_z0 & active & ~gm.both_good).any()),
        "stage_weight": gm.weight,
    }
    # psi* is lifted to at least (1-c)i/8, so i <= 8*psi*(i)/(1-c) for active i
    lifted = table.degrees <= 8.0 * table.psi_star / (1.0 - params.c) * (1 + 1e-12)
    assert (lifted | ~table.active).all(), \
        f"psi* lift violated at degree {table.degrees[table.active & ~lifted][0]}"

    in_x = labels_in == PART_X
    in_y = labels_in == PART_Y
    host = np.nonzero(in_x | in_y)[0]

    # step 1: extraction over the cross subgraph
    classes = degree_classes(graph, host,
                             np.where(active, table.fpsi_star[rows], 0), table.eta[rows])
    extract = None
    deleted_ids = np.empty(0, dtype=np.int64)
    if classes:
        h_graph = graph.cross_subgraph(labels_in, PART_X, PART_Y)
        extract = extract_dense(h_graph, ClassFamily(classes, host))
        deleted_ids = extract.deleted_vertices

    # step 2: quarantine W1 and keep the pure remainder of Z
    deleted_mask = np.zeros(n, dtype=bool)
    deleted_mask[deleted_ids] = True
    in_w = deleted_mask.copy()
    touched = graph.indices[deleted_mask[graph.rows]]
    in_w[touched[labels_in[touched] == PART_Z]] = True
    w1 = np.nonzero(in_w)[0]
    # purity: Z1 vertices have all their X/Y neighbors inside the core, i.e.
    # no Z1 vertex touches an extracted vertex (those went to W1 instead)
    x1_mask = in_x & ~in_w
    y1_mask = in_y & ~in_w
    z1_mask = in_z0 & ~in_w
    assert not bool((z1_mask[graph.rows] & deleted_mask[graph.indices]).any()), \
        "a Z1 vertex touches an extracted vertex"
    w1_budget = len(deleted_ids) + int(graph.degree[deleted_ids].sum())
    assert len(w1) <= w1_budget, "W1 accounting bound violated"

    # step 3: greedy absorption toward the side opposite the witnessed one
    side = np.full(n, -1, dtype=np.int64)   # current side of core members
    side[x1_mask] = PART_X
    side[y1_mask] = PART_Y
    d_to_x = np.zeros(n, dtype=np.int64)
    d_to_y = np.zeros(n, dtype=np.int64)
    w2 = sorted(w1.tolist())
    for v in w2:
        nb_side = side[graph.neighbors(v)]
        d_to_x[v], d_to_y[v] = (nb_side == PART_X).sum(), (nb_side == PART_Y).sum()
    absorbed: list[Absorption] = []
    probe_x_first = True
    changed = True
    while changed:
        changed = False
        remaining = []
        for v in w2:
            thr = fpsi[v]
            take = None
            if probe_x_first:
                if d_to_x[v] >= thr:
                    take = (PART_Y, int(d_to_x[v]))
                elif d_to_y[v] >= thr:
                    take = (PART_X, int(d_to_y[v]))
            else:
                if d_to_y[v] >= thr:
                    take = (PART_X, int(d_to_y[v]))
                elif d_to_x[v] >= thr:
                    take = (PART_Y, int(d_to_x[v]))
            if take is None:
                remaining.append(v)
                continue
            dest, witnessed = take
            side[v] = dest
            absorbed.append(Absorption(int(v), int(graph.degree[v]), dest,
                                       witnessed, int(thr)))
            for u in graph.neighbors(v).tolist():
                if dest == PART_X:
                    d_to_x[u] += 1
                else:
                    d_to_y[u] += 1
            probe_x_first = not probe_x_first
            changed = True
        w2 = remaining
    w2 = np.array(w2, dtype=np.int64)

    # absorption-exit facts
    in_w2 = np.zeros(n, dtype=bool)
    in_w2[w2] = True
    checks = {"w2_all_active": bool(active[w2].all()) if len(w2) else True,
              "precut_side_floors": True, "precut_inner_floor": True}
    for v in w2.tolist():
        d_w2 = int(in_w2[graph.neighbors(v)].sum())
        if not (d_to_x[v] < fpsi[v] and d_to_y[v] < fpsi[v]):
            checks["precut_side_floors"] = False
        if d_w2 < 2 * fpsi[v]:
            checks["precut_inner_floor"] = False
    assert checks["precut_side_floors"], \
        "absorption exited with an absorbable vertex left"
    assert checks["w2_all_active"], "an inactive vertex survived absorption"
    if precond["goodness_ok"]:
        assert checks["precut_inner_floor"], \
            "leftover W2 vertex below twice the cross floor"

    # step 4: flip-local max-cut of G[W2]
    if skip_cut:
        w_plus, w_minus = w2, np.empty(0, dtype=np.int64)
    else:
        w_plus, w_minus, _ = local_maxcut(graph, w2, seed=cut_seed)
    side[w_plus] = PART_X
    side[w_minus] = PART_Y

    # Z3 = Z1: quarantined Z vertices all got a side, the rest keep PART_Z
    assert bool((side[w1] >= 0).all()), "a W1 vertex got no side"
    counts.move(w1, side[w1])
    out = counts.labels

    # membership sandwich: X \ W1 ⊆ X1 ⊆ X3 ⊆ X ∪ W1
    in_x3 = out == PART_X
    assert bool(((in_x & ~in_w) <= in_x3).all()) and bool((x1_mask <= in_x3).all())
    assert bool((in_x3 <= (in_x | in_w)).all())
    in_y3 = out == PART_Y
    assert bool(((in_y & ~in_w) <= in_y3).all()) and bool((in_y3 <= (in_y | in_w)).all())

    # cut guarantee for the leftover vertices (void under the ablation)
    if len(w2) and checks["precut_inner_floor"] and not skip_cut:
        for v in w2.tolist():
            cross = counts.matrix[v, PART_Y if out[v] == PART_X else PART_X]
            assert cross >= fpsi[v], f"cut side of {v} lost its cross floor"

    return ExternalTrace(extract, w1, absorbed, w2, (w_plus, w_minus), out.copy(),
                         precond, checks)
