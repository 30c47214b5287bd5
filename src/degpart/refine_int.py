"""Deterministic refinement for internal (own-part) degree floors.

One refinement pass rebuilds a side of a tripartition A|B|C, say A (a pass
on B exchanges the names), so that every vertex left in it meets the floored
own-degree threshold, without disturbing the goodness structure C provides:

  1. extract a core A* of G[A] in which every vertex of degree i already has
     floor(phi(i)) neighbors inside the core (greedy dense extraction, each
     active A-vertex of degree i with target floor(phi(i)) and slack mu_i,
     read from the counts of A);
  2. evacuate vertices of A whose joint degree into A ∪ C falls below
     floor(phi(i)), moving each one together with its current C-neighborhood
     into B (processed in ascending id over a work queue);
  3. patch each remaining deficient vertex x of A by pulling
     floor(phi(i)) - d_A(x) of its C-neighbors into A (lowest ids first).

After step 2 every surviving A-vertex has joint degree >= floor(phi(i)), so
the patch can never run out of donors, which it asserts for each patched
vertex; evacuated vertices land in B with i - floor(phi(i)) + 1 or more
B-neighbors, which exceeds the B-goodness threshold (the per-degree
inequality i - floor(phi(i)) >= floor(thr_int(i)) is re-checked numerically
before each run rather than taken on faith).

The pass takes the run's ``graph.Counts`` of the tripartition: every move
goes through it and every assert reads it, goodness only on the vertices a
check judges.  The pass asserts what its construction guarantees and grades
nothing else: ``pipelines.tripartition`` applies it to A and then to B, and
the certificate verifier judges the target conditions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dense import ExtractResult, extract_dense
from .graph import Counts
from .stage1 import PART_A, PART_B, PART_C, _good
from .thresholds import ThresholdTable


@dataclass
class Evacuation:
    vertex: int
    degree: int
    joint_degree_at_move: int  # |N(v) ∩ (side ∪ C)| when the move fired
    absorbed: list  # C-neighbors moved to the other side with the vertex


@dataclass
class InternalRefineTrace:
    """What one refinement pass did; a_star is the core of its side."""

    a_star: np.ndarray
    extract: ExtractResult | None
    evacuations: list
    patch: dict


def _evacuee_landing_is_good(table: ThresholdTable) -> bool:
    """Check i - floor(phi(i)) >= floor(thr_int(i)) for every active degree:
    the arithmetic fact that makes evacuees good toward the side they land
    in.  It holds for all mu >= 0 ((3 + 2*mu)((1-c)/4 - mu/2) never reaches
    1), but the refinement relies on it per degree, so it is checked."""
    return bool((~table.active | (table.degrees - table.fphi >= table.fthr_int)).all())


def refine_internal_once(counts: Counts, table: ThresholdTable,
                         side: int) -> InternalRefineTrace:
    """One refinement pass over part side (PART_A or PART_B) of a counted
    tripartition, evacuating into the other side.

    The pass runs whether or not every active C-vertex enters both-good; the
    asserts that rest on that entry goodness (side's floor after the patch,
    the goodness of evacuees toward the other side) fire only when it held.
    The pass's labels are ``counts.labels`` when it returns.
    """
    graph, lab = counts.graph, counts.labels
    other = PART_A + PART_B - side
    labels_in = lab.copy()
    active = table.column("active", graph)
    fphi = table.column("fphi", graph)

    in_s, in_c = lab == side, lab == PART_C
    goodness_ok = bool(_good(counts, table, np.flatnonzero(in_c & active),
                             (PART_A, PART_B)).all())

    # step 1: the dense core of G[side], on the counts of side
    target = fphi * (in_s & active)
    extract = None
    if target.any():
        extract = extract_dense(counts, (side,), target, table.column("mu", graph))
        a_star = extract.surviving
    else:
        a_star = np.nonzero(in_s)[0]

    # step 2: evacuation of joint-degree-deficient side vertices; the queue
    # reads and writes the arrays as Python ints through zero-copy
    # memoryviews, so it costs only what it visits
    dac = counts.matrix[:, side] + counts.matrix[:, PART_C]
    constrained = active & (fphi >= 1)
    evacuations: list[Evacuation] = []
    queue = deque(np.flatnonzero(in_s & constrained & (dac < fphi)).tolist())
    s_of, c_of, dac_of = memoryview(in_s), memoryview(in_c), memoryview(dac)
    floor_of, con_of = memoryview(fphi), memoryview(constrained)
    ptr, nbr = memoryview(graph.indptr), memoryview(graph.indices)
    while queue:
        v = queue.popleft()
        if not s_of[v] or dac_of[v] >= floor_of[v]:
            continue
        absorbed = [w for w in nbr[ptr[v]:ptr[v + 1]] if c_of[w]]
        evacuations.append(Evacuation(v, ptr[v + 1] - ptr[v], dac_of[v], absorbed))
        moved = [v] + absorbed
        for u in moved:
            c_of[u] = False
        s_of[v] = False
        for u in moved:
            for w in nbr[ptr[u]:ptr[u + 1]]:
                if s_of[w]:
                    dac_of[w] -= 1
                    if con_of[w] and dac_of[w] < floor_of[w]:
                        queue.append(w)
    counts.move([u for e in evacuations for u in [e.vertex] + e.absorbed], other)

    assert in_s[a_star].all(), "extracted core lost vertices during evacuation"

    # step 3: patch deficient side vertices from their C-neighborhoods
    d_s = counts.matrix[:, side]
    patch: dict[int, list[int]] = {}
    short = np.flatnonzero(in_s & constrained & (d_s < fphi))
    for v, need in zip(short.tolist(), (fphi[short] - d_s[short]).tolist()):
        donors = [w for w in nbr[ptr[v]:ptr[v + 1]] if c_of[w]]
        assert len(donors) >= need, f"vertex {v} of {'AB'[side]} has too few C donors"
        patch[v] = donors[:need]
    counts.move(sorted({w for rx in patch.values() for w in rx}), side)

    # what the construction guarantees, asserted on the maintained counts:
    # the other side only grows and C only shrinks
    in_o0 = labels_in == other
    assert (in_o0 <= (lab == other)).all()
    assert ((lab == PART_C) <= (labels_in == PART_C)).all()
    if goodness_ok:
        # patch donors come from C and are side-good, so the floor cannot
        # miss unless the entry goodness precondition already failed
        assert (~(active & (lab == side)) | (d_s >= fphi)).all(), \
            f"a vertex of {'AB'[side]} missed its own-degree floor after the patch"
        if _evacuee_landing_is_good(table):
            landed = np.flatnonzero((lab == other) & ~in_o0 & active)
            assert _good(counts, table, landed, (other,)).all(), \
                f"an evacuated vertex landed in {'AB'[other]} without goodness there"
    return InternalRefineTrace(a_star, extract, evacuations, patch)
