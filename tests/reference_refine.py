"""Reference implementations of the two refinement passes, on per-vertex
numpy reads: ``refine_internal_once`` and ``refine_external`` must give
exactly their traces, labels and counts, or raise the same AssertionError
with the same message; and ``recount_facts``, the facts a pass keeps that it
does not assert, recounted from scratch from the labels before and after it.

This module is not a test module, so pytest leaves its asserts as they are:
a failed check here raises an AssertionError whose text is the check's own
message (empty for a bare assert), like the package's asserts, and the two
can be compared as text.  ``plain`` gives a trace in a form two traces can
be compared in, field by field.
"""

import dataclasses
from collections import deque

import numpy as np

from degpart.cuts import local_maxcut
from degpart.dense import extract_dense
from degpart.graph import part_profile
from degpart.refine_ext import Absorption, ExternalTrace
from degpart.refine_int import Evacuation, InternalRefineTrace, _evacuee_landing_is_good
from degpart.stage1 import PART_A, PART_B, PART_C, goodness_map
from degpart.thresholds import INTERNAL


def plain(value):
    """value as plain Python data: a dataclass as the tuple of all its
    fields, an array as a list, lists, tuples and dict values likewise; dict
    keys stay as they are.  Its repr tells a bool from an int."""
    if dataclasses.is_dataclass(value):
        return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(v) for v in value)
    return value

PART_X, PART_Y, PART_Z = PART_A, PART_B, PART_C


def ref_refine_internal_once(counts, table, side):
    """``refine_internal_once`` with per-vertex numpy reads: the evacuation
    queue and the patch index the arrays with numpy scalars and read each
    row through ``graph.neighbors``, and both goodness checks read a full
    ``goodness_map``."""
    graph, lab = counts.graph, counts.labels
    other = PART_A + PART_B - side
    s_name, o_name = "AB"[side], "AB"[other]
    labels_in = lab.copy()
    rows = table.rows_of(graph)
    active = table.active[rows]
    fphi = table.fphi[rows]

    gm = goodness_map(counts, table)
    in_s = lab == side
    goodness_ok = not bool(((lab == PART_C) & active & ~gm.both_good).any())

    # step 1: the dense core of G[side], on the counts of side
    target = np.where(in_s & active, fphi, 0)
    extract = None
    if target.any():
        extract = extract_dense(counts, (side,), target, table.mu[rows])
        a_star = extract.surviving
    else:
        a_star = np.nonzero(in_s)[0]

    # step 2: evacuation of joint-degree-deficient side vertices
    dac = counts.matrix[:, side] + counts.matrix[:, PART_C]
    constrained = active & (fphi >= 1)
    evacuations: list[Evacuation] = []
    queue = deque(np.nonzero(in_s & constrained & (dac < fphi))[0].tolist())
    in_c = lab == PART_C
    while queue:
        v = queue.popleft()
        if not in_s[v] or dac[v] >= fphi[v]:
            continue
        absorbed = [w for w in graph.neighbors(v).tolist() if in_c[w]]
        evacuations.append(Evacuation(int(v), int(graph.degree[v]), int(dac[v]),
                                      absorbed))
        moved = [v] + absorbed
        for u in moved:
            in_c[u] = False
        in_s[v] = False
        for u in moved:
            for w in graph.neighbors(u).tolist():
                if in_s[w]:
                    dac[w] -= 1
                    if constrained[w] and dac[w] < fphi[w]:
                        queue.append(w)
    counts.move([u for e in evacuations for u in [e.vertex] + e.absorbed], other)

    assert in_s[a_star].all(), "extracted core lost vertices during evacuation"

    # step 3: patch deficient side vertices from their C-neighborhoods
    d_s = counts.matrix[:, side]
    patch: dict[int, list[int]] = {}
    for v in np.flatnonzero(in_s & constrained & (d_s < fphi)).tolist():
        need = int(fphi[v] - d_s[v])
        donors = [w for w in graph.neighbors(v).tolist() if in_c[w]]
        assert len(donors) >= need, f"vertex {v} of {s_name} has too few C donors"
        patch[v] = donors[:need]
    counts.move(sorted({w for rx in patch.values() for w in rx}), side)

    # the construction's guarantees, checked on the maintained counts
    in_s2, in_o2, in_c2 = (lab == side), (lab == other), (lab == PART_C)
    in_o0, in_c0 = labels_in == other, labels_in == PART_C
    assert (in_o0 <= in_o2).all() and (in_c2 <= in_c0).all()
    if goodness_ok:
        # patch donors come from C and are side-good, so the floor cannot
        # miss unless the entry goodness precondition already failed
        assert (~(active & in_s2) | (d_s >= fphi)).all(), \
            f"a vertex of {s_name} missed its own-degree floor after the patch"
    if goodness_ok and _evacuee_landing_is_good(table):
        gm = goodness_map(counts, table)
        good_o = gm.good_a if other == PART_A else gm.good_b
        assert not (in_o2 & ~in_o0 & active & ~good_o).any(), \
            f"an evacuated vertex landed in {o_name} without goodness there"
    return InternalRefineTrace(a_star, extract, evacuations, patch)


def ref_refine_external(counts, table, cut_seed=0):
    """``refine_external`` with per-vertex numpy reads: side counts in an
    n-by-2 array, each absorption adding to all of the vertex's neighbours,
    and the exit facts read per W2 vertex."""
    graph = counts.graph
    n = graph.n
    labels_in = counts.labels.copy()
    rows = table.rows_of(graph)
    active = table.active[rows]
    fpsi = table.fpsi[rows]

    gm = goodness_map(counts, table)
    in_z0 = labels_in == PART_Z
    goodness_ok = not bool((in_z0 & active & ~gm.both_good).any())
    # psi* is lifted to at least (1-c)i/8, so i <= 8*psi*(i)/(1-c) for active i
    c = table.params.c
    lifted = table.degrees <= 8.0 * table.psi_star / (1.0 - c) * (1 + 1e-12)
    assert (lifted | ~table.active).all(), \
        f"psi* lift violated at degree {table.degrees[table.active & ~lifted][0]}"

    in_x = labels_in == PART_X
    in_y = labels_in == PART_Y

    # step 1: extraction over the cross graph (X,Y)_G, on the counts of X|Y
    target = np.where((in_x | in_y) & active, table.fpsi_star[rows], 0)
    extract = None
    deleted_ids = np.empty(0, dtype=np.int64)
    if target.any():
        extract = extract_dense(counts, (PART_X, PART_Y), target, table.eta[rows])
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
    y1_mask = in_y & ~in_w
    z1_mask = in_z0 & ~in_w
    assert not bool(z1_mask[touched].any()), "a Z1 vertex touches an extracted vertex"
    w1_budget = len(deleted_ids) + int(graph.degree[deleted_ids].sum())
    assert len(w1) <= w1_budget, "W1 accounting bound violated"

    # step 3: greedy absorption toward the side opposite the witnessed one
    side = np.full(n, -1, dtype=np.int64)   # current side of core members
    side[x1_mask] = PART_X
    side[y1_mask] = PART_Y
    # neighbors in columns PART_X, PART_Y, from one gather over W1's rows
    owner = np.repeat(w1, graph.degree[w1])
    nb_side = side[graph.indices[graph.row_entries(w1)]]
    sided = nb_side >= 0
    d_to = np.bincount(2 * owner[sided] + nb_side[sided],
                       minlength=2 * n).reshape(n, 2)
    w2 = w1.tolist()
    absorbed: list[Absorption] = []
    probe = [PART_X, PART_Y]  # reversed after every absorption
    changed = True
    while changed:
        changed = False
        remaining = []
        for v in w2:
            thr = fpsi[v]
            seen = next((s for s in probe if d_to[v, s] >= thr), None)
            if seen is None:
                remaining.append(v)
                continue
            dest = PART_X + PART_Y - seen
            side[v] = dest
            absorbed.append(Absorption(int(v), int(graph.degree[v]), dest,
                                       int(d_to[v, seen]), int(thr)))
            d_to[graph.neighbors(v), dest] += 1
            probe.reverse()
            changed = True
        w2 = remaining
    w2 = np.array(w2, dtype=np.int64)

    # absorption-exit facts
    in_w2 = np.zeros(n, dtype=bool)
    in_w2[w2] = True
    side_floors = inner_floor = True
    for v in w2.tolist():
        d_w2 = int(in_w2[graph.neighbors(v)].sum())
        if not (d_to[v] < fpsi[v]).all():
            side_floors = False
        if d_w2 < 2 * fpsi[v]:
            inner_floor = False
    assert side_floors, "absorption exited with an absorbable vertex left"
    assert active[w2].all(), "an inactive vertex survived absorption"
    if goodness_ok:
        assert inner_floor, "leftover W2 vertex below twice the cross floor"

    # step 4: flip-local max-cut of G[W2]
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

    # cut guarantee for the leftover vertices
    if len(w2) and inner_floor:
        for v in w2.tolist():
            cross = counts.matrix[v, PART_Y if out[v] == PART_X else PART_X]
            assert cross >= fpsi[v], f"cut side of {v} lost its cross floor"

    return ExternalTrace(extract, w1, absorbed, w2, (w_plus, w_minus))


def recount_facts(graph, table, before, after, w2=None, side=PART_A) -> dict:
    """What a refinement pass at the table's parameters keeps, recounted
    from scratch from its labels before and after it: {fact: holds}.

    Both modes: ``entry_goodness``, every active vertex of part 2 (C, or Z)
    was good toward parts 0 and 1 before the pass, against floor(thr_int)
    or floor(thr_ext) by mode.

    Internal mode (the pass refines part side, A or B, and the facts name
    the other side B, as they read for side A): ``size_drift``, side moved
    by at most eps*n/500 vertices, the other side grew and C shrank by at
    most that; ``c_both_good``, every active vertex left in C is A-good and
    B-good; ``new_b_good``, every active vertex that joined the other side
    is good toward it; ``bad_b_contained``, every active vertex of the other
    side that is not good toward it was already so before.

    External mode, with the trace's W2: ``w2_side_floors``, each W2 vertex
    had fewer than floor(psi) neighbours on each side before the cut (the
    sides after the pass, less W2); ``w2_inner_floor``, it has at least
    2*floor(psi) neighbours in W2; ``w2_all_active``, it is active.
    """
    rows = table.rows_of(graph)
    active = table.active[rows]
    internal = table.params.mode == INTERNAL
    thr = (table.fthr_int if internal else table.fthr_ext)[rows]
    counts0, counts1 = (part_profile(graph, lab, 3) for lab in (before, after))
    other = PART_A + PART_B - side
    good_b0, good_b1 = (~active | (c[:, other] >= thr) for c in (counts0, counts1))
    both0, both1 = (~active | ((c[:, PART_A] >= thr) & (c[:, PART_B] >= thr))
                    for c in (counts0, counts1))
    facts = {"entry_goodness": bool(both0[before == PART_C].all())}
    if internal:
        in_b0, in_b1 = before == other, after == other
        (a0, b0, c0), (a1, b1, c1) = (np.bincount(lab, minlength=3)[[side, other, PART_C]]
                                      for lab in (before, after))
        drift = table.params.eps * graph.n / 500.0
        return facts | {
            "size_drift": bool(abs(a1 - a0) <= drift and b0 <= b1 <= b0 + drift
                               and c0 - drift <= c1 <= c0),
            "c_both_good": bool(both1[after == PART_C].all()),
            "new_b_good": bool(good_b1[in_b1 & ~in_b0].all()),
            "bad_b_contained": bool(((in_b1 & ~good_b1) <= (in_b0 & ~good_b0)).all()),
        }
    w2 = np.asarray(w2, dtype=np.int64)
    fpsi = table.fpsi[rows][w2]
    in_w2 = np.zeros(graph.n, dtype=np.int64)
    in_w2[w2] = 1
    precut = part_profile(graph, np.where(in_w2 == 1, PART_C, after), 3)[w2]
    inner = part_profile(graph, in_w2, 2)[w2, 1]
    return facts | {
        "w2_side_floors": bool(((precut[:, PART_A] < fpsi)
                                & (precut[:, PART_B] < fpsi)).all()),
        "w2_inner_floor": bool((inner >= 2 * fpsi).all()),
        "w2_all_active": bool(active[w2].all()),
    }
