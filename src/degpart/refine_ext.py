r"""Deterministic refinement for external (cross) degree floors.

Starting from a stage-one tripartition X|Y|Z whose active Z-vertices are
X-good and Y-good, the construction makes every vertex of the two sides meet
a floored cross-degree floor:

  1. dense-extract on the bipartite cross graph H = (X,Y)_G, each active
     vertex of X ∪ Y of degree i with target floor(psi*(i)) and slack eta_i,
     leaving a core H' = X1 ∪ Y1 in which every vertex already has enough
     cross neighbors (a vertex's degree in H is its count toward the other
     side, so H is never built);
  2. quarantine W1 = V(H \ H') ∪ (N(V(H \ H')) ∩ Z); the rest of Z becomes
     Z1 and keeps its entire X/Y-neighborhood inside the core (purity);
  3. greedily absorb W vertices: anyone with floor(psi(i)) neighbors in the
     current X side joins the Y side and vice versa (passes in ascending id,
     alternating which side is probed first), until nobody qualifies; side
     counts are kept only for W1, by position in W1, since no other
     vertex's counts are read again;
  4. split the leftover W2 by a flip-local max-cut of G[W2]; each leftover
     vertex has >= 2*floor(psi(i)) neighbors inside W2, so its cut side
     gives it >= floor(psi(i)) cross neighbors.

It takes the run's ``graph.Counts`` of X|Y|Z: the extraction reads H's
degrees from its X and Y columns, quarantine and purity read only the CSR
rows of the extracted vertices, absorption's side counts and W1-internal
adjacency come from one gather over the rows of W1, the passes run on
Python ints, and W1 moves through the counts at the end.
The absorption-exit facts (both side-degrees below floor(psi), W2 all
active, and, when every active Z-vertex entered X-good and Y-good, inner W2
degree at least twice floor(psi)) are asserted on every run; the pass grades
nothing else, and ``pipelines.tripartition`` judges the final tripartition
with the certificate verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuts import local_maxcut
from .dense import ExtractResult, extract_dense
from .graph import Counts
from .stage1 import PART_A, PART_B, PART_C, _good
from .thresholds import ThresholdTable

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
    """What the external refinement did after stage one."""

    extract: ExtractResult | None
    w1: np.ndarray
    absorbed: list
    w2: np.ndarray
    wcut: tuple


def refine_external(counts: Counts, table: ThresholdTable,
                    cut_seed: int = 0) -> ExternalTrace:
    """Run extraction, quarantine, absorption and the W2 cut on counted
    X|Y|Z labels.

    The W1 side assignments go through counts and the final assert reads
    them, so the refined labels are ``counts.labels`` when it returns.
    """
    graph = counts.graph
    n = graph.n
    labels_in = counts.labels.copy()
    active = table.column("active", graph)
    fpsi = table.column("fpsi", graph)

    in_z0 = labels_in == PART_Z
    goodness_ok = bool(_good(counts, table, np.flatnonzero(in_z0 & active),
                             (PART_X, PART_Y)).all())
    # psi* is lifted to at least (1-c)i/8, so i <= 8*psi*(i)/(1-c) for active i
    lifted = (table.degrees
              <= 8.0 * table.psi_star / (1.0 - table.params.c) * (1 + 1e-12))
    assert (lifted | ~table.active).all(), \
        f"psi* lift violated at degree {table.degrees[table.active & ~lifted][0]}"

    in_x = labels_in == PART_X
    in_y = labels_in == PART_Y

    # step 1: extraction over the cross graph (X,Y)_G, on the counts of X|Y
    target = np.where((in_x | in_y) & active, table.column("fpsi_star", graph), 0)
    extract = None
    deleted_ids = np.empty(0, dtype=np.int64)
    if target.any():
        extract = extract_dense(counts, (PART_X, PART_Y), target,
                                table.column("eta", graph))
        deleted_ids = extract.deleted_vertices

    # step 2: quarantine W1 and keep the pure remainder of Z
    in_w = np.zeros(n, dtype=bool)
    in_w[deleted_ids] = True
    touched = graph.indices[graph.row_entries(deleted_ids)]
    in_w[touched[labels_in[touched] == PART_Z]] = True
    w1 = np.nonzero(in_w)[0]
    # purity: Z1 vertices have all their X/Y neighbors inside the core, i.e.
    # no Z1 vertex touches an extracted vertex (those went to W1 instead);
    # adjacency is symmetric, so the rows of the extracted vertices tell
    x1_mask = in_x & ~in_w
    z1_mask = in_z0 & ~in_w
    assert not bool(z1_mask[touched].any()), "a Z1 vertex touches an extracted vertex"
    w1_budget = len(deleted_ids) + int(graph.degree[deleted_ids].sum())
    assert len(w1) <= w1_budget, "W1 accounting bound violated"

    # step 3: greedy absorption toward the side opposite the witnessed one,
    # on python ints by position in W1 (w1 is sorted); only W1 rows are read
    # again, so an absorbed vertex counts only toward its W1 neighbours.
    # Side counts in columns PART_X, PART_Y come from one gather over W1's
    # rows: a neighbour has a side when it is an X1 or Y1 core member.
    k = len(w1)
    degree = graph.degree[w1]
    owner = np.repeat(np.arange(k), degree)
    nbrs = graph.indices[graph.row_entries(w1)]
    nb_lab = labels_in[nbrs]
    nb_in_w = in_w[nbrs]
    sided = (nb_lab <= PART_Y) & ~nb_in_w
    flat = np.bincount(2 * owner[sided] + nb_lab[sided], minlength=2 * k)
    d_to = (flat[PART_X::2].tolist(), flat[PART_Y::2].tolist())
    # the W1 neighbours of position i are inner[bounds[i]:bounds[i + 1]]
    inner = np.searchsorted(w1, nbrs[nb_in_w]).tolist()
    bounds = [0] + np.cumsum(np.bincount(owner[nb_in_w], minlength=k)).tolist()
    thr, ids, degree = fpsi[w1].tolist(), w1.tolist(), degree.tolist()
    dest = [-1] * k
    left = list(range(k))
    absorbed: list[Absorption] = []
    probe = [PART_X, PART_Y]  # reversed after every absorption
    changed = True
    while changed:
        changed = False
        remaining = []
        for i in left:
            t = thr[i]
            first, second = probe
            if d_to[first][i] >= t:
                seen = first
            elif d_to[second][i] >= t:
                seen = second
            else:
                remaining.append(i)
                continue
            to = dest[i] = PART_X + PART_Y - seen
            absorbed.append(Absorption(ids[i], degree[i], to, d_to[seen][i], t))
            count = d_to[to]
            for j in inner[bounds[i]:bounds[i + 1]]:
                count[j] += 1
            probe.reverse()
            changed = True
        left = remaining
    w2 = w1[np.array(left, dtype=np.int64)]

    # absorption-exit facts, on the same counts; the inner floor also gates
    # the cut's guarantee below
    in_w2 = [False] * k
    for i in left:
        in_w2[i] = True
    assert all(d_to[PART_X][i] < thr[i] and d_to[PART_Y][i] < thr[i] for i in left), \
        "absorption exited with an absorbable vertex left"
    assert active[w2].all(), "an inactive vertex survived absorption"
    inner_floor_ok = all(sum(in_w2[j] for j in inner[bounds[i]:bounds[i + 1]])
                         >= 2 * thr[i] for i in left)
    if goodness_ok:
        assert inner_floor_ok, "leftover W2 vertex below twice the cross floor"

    # step 4: flip-local max-cut of G[W2]
    w_plus, w_minus, _ = local_maxcut(graph, w2, seed=cut_seed)
    side = np.array(dest, dtype=np.int64)  # by position in W1
    side[np.searchsorted(w1, w_plus)] = PART_X
    side[np.searchsorted(w1, w_minus)] = PART_Y

    # Z3 = Z1: quarantined Z vertices all got a side, the rest keep PART_Z
    assert bool((side >= 0).all()), "a W1 vertex got no side"
    counts.move(w1, side)
    out = counts.labels

    # membership sandwich: X \ W1 ⊆ X1 ⊆ X3 ⊆ X ∪ W1
    in_x3 = out == PART_X
    assert bool(((in_x & ~in_w) <= in_x3).all()) and bool((x1_mask <= in_x3).all())
    assert bool((in_x3 <= (in_x | in_w)).all())
    in_y3 = out == PART_Y
    assert bool(((in_y & ~in_w) <= in_y3).all()) and bool((in_y3 <= (in_y | in_w)).all())

    # cut guarantee for the leftover vertices
    if len(w2) and inner_floor_ok:
        for v in w2.tolist():
            cross = counts.matrix[v, PART_Y if out[v] == PART_X else PART_X]
            assert cross >= fpsi[v], f"cut side of {v} lost its cross floor"

    return ExternalTrace(extract, w1, absorbed, w2, (w_plus, w_minus))
