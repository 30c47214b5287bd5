import hashlib
import io
import os
import signal
import sys
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degpart import graph as graph_module
from degpart.gen import gen_gnp
from degpart.graph import (MAX_VERTICES, Counts, Graph, GraphFormatError,
                           LabelError, load_graph, part_profile)

from conftest import (complete_graph, cycle_graph, graphs, naive_profile, path_graph,
                      watchdog)

# np.loadtxt warns on a body without data; the loader must decline it first
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def validate(g):
    """Re-check a graph's structural invariants (symmetry, sortedness, sums)."""
    assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
    assert int(g.degree.sum()) == 2 * g.m
    assert np.all((g.indices >= 0) & (g.indices < g.n)), "id out of range"
    assert not np.any(g.rows == g.indices), "self-loop"
    keys = g.rows * g.n + g.indices
    assert np.all(keys[:-1] < keys[1:]), "adjacency not strictly sorted"
    assert np.array_equal(np.sort(g.indices * g.n + g.rows), keys), \
        "asymmetric adjacency"


def test_load_path_on_three_vertices():
    g = load_graph("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.degree.tolist() == [1, 2, 1]


def test_load_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError, match="line 1"):
        load_graph("0 0")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph("0 1\n3 3")


def test_load_collapses_duplicates_with_counter():
    g = load_graph("0 1\n0 1")
    assert g.n == 2 and g.m == 1
    assert g.duplicates_collapsed == 1
    g2 = load_graph("0 1\n1 0\n0 1")
    assert g2.m == 1 and g2.duplicates_collapsed == 2


def test_load_rejects_non_integer_token():
    with pytest.raises(GraphFormatError, match="non-integer"):
        load_graph("0 x")


def test_load_dimacs():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = load_graph(text)
    assert g.n == 4 and g.m == 3
    assert g.degree.tolist() == [1, 2, 2, 1]
    with pytest.raises(GraphFormatError):
        load_graph("p edge 3 1\ne 2 2\n")
    # ids are 1-indexed: id 0 is refused where it is read, not as a bad pair
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph("p edge 3 1\ne 0 1\n")
    # an id above n is named as written, on its line
    with pytest.raises(GraphFormatError, match=r"^line 2: vertex id 3 above 2 "):
        load_graph("p edge 2 1\ne 1 3\n")
    with pytest.raises(GraphFormatError, match=r"^line 6: vertex id 5 above 3 "):
        load_graph("c x\np edge 3 2\n\ne 1 2\nc y\ne 5 1\ne 9 1\n")
    # the edge-list "# n" header bounds 0-based ids the same way
    with pytest.raises(GraphFormatError, match=r"^line 5: vertex id 7 above 2 "):
        load_graph("# n 3\n0 1\n\n# c\n1 7\n")
    # a negative vertex count is refused on its header line, not kept as n
    with pytest.raises(GraphFormatError, match=r"^line 1: negative vertex count -3$"):
        load_graph("p edge -3 0\n")
    with pytest.raises(GraphFormatError, match=r"^line 2: negative vertex count -2$"):
        load_graph("# c\n# n -2\n")
    with pytest.raises(GraphFormatError, match=r"^negative vertex count n=-3$"):
        Graph.from_edges(-3, [])


def test_load_accepts_file_handle_and_comments():
    g = load_graph(io.StringIO("# a comment\n0 2\n\n1 2\n"))
    assert g.n == 3 and g.m == 2


@given(graphs())
def test_serialize_reload_identity(g):
    g2 = load_graph(g.to_edge_list_text())
    assert g2.n == g.n
    u1, v1 = g.edge_array()
    u2, v2 = g2.edge_array()
    assert u1.tolist() == u2.tolist() and v1.tolist() == v2.tolist()


@given(graphs())
def test_structural_invariants(g):
    validate(g)
    assert int(g.degree.sum()) == 2 * g.m
    assert g.rows.tolist() == np.repeat(np.arange(g.n), g.degree).tolist()


def set_labels(n, subset):
    """A 2-labeling with the vertex set S as part 1: column 1 of its profile
    holds each vertex's degree into S."""
    labels = np.zeros(n, dtype=np.int64)
    labels[list(subset)] = 1
    return labels


def own_and_profile(g, labels, r):
    """(d_own, counts) of an r-labeling: the (n, r) profile and each
    vertex's count into its own part."""
    counts = part_profile(g, labels, r)
    return counts[np.arange(g.n), labels], counts


def test_degree_in_set_examples():
    k3 = complete_graph(3)
    assert part_profile(k3, set_labels(3, {1, 2}), 2)[0, 1] == 2
    assert part_profile(k3, set_labels(3, {0}), 2)[0, 1] == 0
    c5 = cycle_graph(5)
    assert part_profile(c5, set_labels(5, {1, 3}), 2)[0, 1] == 1
    assert part_profile(c5, set_labels(5, {1, 3}), 2)[:, 1].tolist() == [1, 0, 2, 0, 1]


@given(graphs())
def test_degree_in_full_vertex_set_is_degree(g):
    assert (part_profile(g, np.zeros(g.n, dtype=np.int64), 1)[:, 0] == g.degree).all()


def test_cut_profile_k4_bisection():
    g = complete_graph(4)
    d_own, counts = own_and_profile(g, [0, 0, 1, 1], 2)
    assert d_own.tolist() == [1, 1, 1, 1]
    assert (counts.sum(axis=1) == g.degree).all()


def test_cut_profile_c4_proper_bipartition():
    g = cycle_graph(4)
    d_own, counts = own_and_profile(g, [0, 1, 0, 1], 2)
    assert d_own.tolist() == [0, 0, 0, 0]


def test_cut_profile_c5_example():
    g = cycle_graph(5)
    d_own, counts = own_and_profile(g, [0, 0, 0, 1, 1], 2)
    assert d_own[1] == 2 and (g.degree[1] - d_own[1]) == 0


def test_cut_profile_size_mismatch():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        own_and_profile(g, [0, 1], 2)


@st.composite
def profile_cases(draw):
    """(graph, r, labels): any n from 0, edgeless graphs and trailing
    isolated vertices included, r from 1 to 20 (so graphs of max degree 8
    or more reach the bincount path, r * bits > 63, and the rest the packed
    one), labels in one of four integer dtypes."""
    n = draw(st.integers(0, 14))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n + draw(st.integers(0, 3)), edges)
    r = draw(st.integers(1, 20))
    dtype = draw(st.sampled_from([np.int8, np.uint8, np.int32, np.int64]))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=g.n, max_size=g.n))
    return g, r, np.array(labels, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(profile_cases())
@example((complete_graph(12), 20, np.arange(12) % 20))  # 20 * 4 bits: bincount
@example((complete_graph(12), 15, np.arange(12) % 15))  # 15 * 4 bits: one word
@example((Graph.from_edges(0, []), 3, np.zeros(0, dtype=np.int8)))
@example((Graph.from_edges(5, []), 2, np.zeros(5, dtype=np.uint8)))
def test_profile_matches_naive(case):
    g, r, labels = case
    counts = part_profile(g, labels, r)
    assert counts.dtype == np.int64 and counts.shape == (g.n, r)
    assert counts.tolist() == naive_profile(g, labels.tolist(), r)
    own = counts[np.arange(g.n), labels]
    assert ((own + (counts.sum(axis=1) - own)) == g.degree).all()


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 127, 128, 255, 256, 4095])
def test_packed_fields_hold_the_max_degree_without_carry(d):
    # a star K_{1,d}: the centre counts all d leaves into the top part, a
    # full field when d = 2**bits - 1, at the most parts that fit one word
    g = Graph.from_edges(d + 1, [(0, leaf) for leaf in range(1, d + 1)])
    for r in (63 // d.bit_length(), 63 // d.bit_length() + 1):
        for top in (r - 1, 0):
            labels = np.full(d + 1, top)
            counts = part_profile(g, labels, r)
            assert counts[0].tolist() == [d if j == top else 0 for j in range(r)]
            assert (counts[1:, top] == 1).all() and counts[1:].sum() == d


@settings(max_examples=150, deadline=None)
@given(profile_cases(), st.data())
def test_counts_move_after_a_packed_count_matches_a_fresh_count(case, data):
    g, r, labels = case
    counts = Counts(g, labels, r)
    expect = labels.astype(np.int64)
    for _ in range(data.draw(st.integers(1, 3))):
        vs = data.draw(st.lists(st.integers(0, g.n - 1), unique=True)) if g.n else []
        dst = data.draw(st.integers(0, r - 1))
        counts.move(vs, dst)
        expect[vs] = dst
        assert counts.matrix.tolist() == naive_profile(g, expect.tolist(), r)
        assert (counts.matrix == part_profile(g, expect, r)).all()
        assert counts.sizes.tolist() == np.bincount(expect, minlength=r).tolist()


def test_labeled_partition_names_the_first_bad_vertex():
    # Counts and part_profile refuse a labeling that is no r-partition
    k3 = complete_graph(3)
    with pytest.raises(LabelError, match=r"^vertex 1 has label 2 outside \[0, 2\)$") as exc:
        Counts(k3, [0, 2, 1], 2)
    assert exc.value.vertex == 1
    with pytest.raises(LabelError, match=r"^vertex 2 has label -1 outside \[0, 3\)$") as exc:
        part_profile(path_graph(4), np.array([0, 1, -1, 5]), 3)
    assert exc.value.vertex == 2
    for labels, shape in (([[0, 1], [1, 0]], r"\(2, 2\)"), (1, r"\(\)"),
                          (np.zeros((3, 1), dtype=np.int64), r"\(3, 1\)")):
        with pytest.raises(LabelError, match=rf"^label array of shape {shape} for n=3$") as exc:
            Counts(k3, labels, 2)
        assert exc.value.vertex is None
    counts = Counts(k3, np.array([2, 0, 1], dtype=np.int8), 3)
    assert counts.labels.dtype == np.int64
    assert Counts(path_graph(5), [0, 1, 0, 1, 0], 2).sizes.tolist() == [3, 2]
    # no vertex, so no label to refuse, whatever the dtype
    assert Counts(Graph.from_edges(0, []), np.array([], dtype=float), 2).labels.size == 0


def test_isolated_vertices_are_legal():
    g = load_graph("# n 5\n0 1\n")
    assert g.n == 5
    assert g.degree.tolist() == [1, 1, 0, 0, 0]


def test_cross_subgraph_keeps_only_cross_edges():
    g = complete_graph(4)
    labels = np.array([0, 0, 1, 2])
    h = g.cross_subgraph(labels, 0, 1)
    assert h.m == 2  # edges 0-2 and 1-2 only
    assert h.degree.tolist() == [1, 1, 2, 0]


@given(graphs(), st.data())
def test_cross_subgraph_matches_rebuild_from_edges(g, data):
    labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=g.n,
                                         max_size=g.n)), dtype=np.int64)
    a, b = data.draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (1, 2)]))
    h = g.cross_subgraph(labels, a, b)
    u, v = g.edge_array()
    lu, lv = labels[u], labels[v]
    keep = ((lu == a) & (lv == b)) | ((lu == b) & (lv == a))
    ref = Graph.from_edges(g.n, zip(u[keep].tolist(), v[keep].tolist()))
    assert h.indptr.tolist() == ref.indptr.tolist()
    assert h.indices.tolist() == ref.indices.tolist()
    validate(h)


@st.composite
def edge_lists(draw, max_n=10):
    """(n, pairs) with repeats in both orientations and no self-loops."""
    n = draw(st.integers(2, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=40))


@given(edge_lists())
def test_from_edges_array_and_pairs_agree(case):
    n, pairs = case
    g = Graph.from_edges(n, pairs)
    ga = Graph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert g.indptr.tolist() == ga.indptr.tolist()
    assert g.indices.tolist() == ga.indices.tolist()
    # reference: a python set of unordered pairs
    unique = {(min(e), max(e)) for e in pairs}
    assert g.duplicates_collapsed == ga.duplicates_collapsed == len(pairs) - len(unique)
    for v in range(n):
        expect = sorted({b for a, b in unique if a == v} | {a for a, b in unique if b == v})
        assert g.neighbors(v).tolist() == expect


def test_from_edges_names_the_first_bad_pair():
    for edges in ([(0, 2), (1, 1), (0, 7)], np.array([[0, 2], [1, 1], [0, 7]])):
        with pytest.raises(GraphFormatError, match="self-loop at vertex 1"):
            Graph.from_edges(3, edges)
    for edges in ([(0, 2), (0, 7), (1, 1)], np.array([[0, 2], [0, 7], [1, 1]])):
        with pytest.raises(GraphFormatError, match=r"edge \(0,7\) out of range for n=3"):
            Graph.from_edges(3, edges)
    with pytest.raises(GraphFormatError, match=r"edge \(-1,2\) out of range"):
        Graph.from_edges(3, [(-1, 2)])


def test_from_edges_accepts_empty_input():
    for n, edges in [(0, []), (3, []), (3, np.empty((0, 2), dtype=np.int64))]:
        g = Graph.from_edges(n, edges)
        assert g.n == n and g.m == 0 and g.duplicates_collapsed == 0
        assert g.indptr.tolist() == [0] * (n + 1) and g.rows.size == 0


def test_load_dimacs_collapses_duplicates_with_counter():
    g = load_graph("p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 1 2\n")
    assert g.m == 2 and g.duplicates_collapsed == 2


def test_load_out_of_range_dimacs_edge_refused():
    with pytest.raises(GraphFormatError, match="out of range"):
        load_graph("p edge 2 1\ne 1 3\n")


def test_part_profile_refuses_malformed_labels():
    g = path_graph(4)
    # a label outside [0, r) used to count as a neighbour in part 0 or 1
    with pytest.raises(ValueError, match="vertex 1 has label 2"):
        part_profile(g, [0, 2, 0, 0], 2)
    with pytest.raises(ValueError, match="outside"):
        part_profile(g, [0, -1, 0, 0], 2)
    with pytest.raises(ValueError, match="shape"):
        part_profile(g, [0, 1, 0], 2)
    with pytest.raises(ValueError, match="non-integer"):
        part_profile(g, np.array([0.0, 1.0, 0.0, 1.0]), 2)
    assert part_profile(g, np.array([0, 1, 0, 1], dtype=np.int32), 2).tolist() == \
        [[0, 1], [2, 0], [0, 2], [1, 0]]


def test_graph_arrays_are_read_only():
    g = gen_gnp(30, 0.2, seed=1)
    for a in (g.indptr, g.indices, g.degree, g.rows):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    sub = g.induced_subgraph(np.array([1, 4, 5]))
    with pytest.raises(ValueError, match="read-only"):
        sub.indices[:] = 0


@given(graphs())
def test_fingerprint_is_cached_sha256_of_edges(g):
    u, v = g.edge_array()
    h = hashlib.sha256(f"n={g.n};".encode())
    h.update(np.stack([u, v]).astype("<i8").tobytes())
    assert g.fingerprint == h.hexdigest()
    assert g.fingerprint is g.fingerprint


@given(graphs(), st.data())
def test_induced_subgraph_matches_filtered_edges(g, data):
    ids = np.array(sorted(data.draw(st.sets(st.integers(0, g.n - 1)))), dtype=np.int64)
    pos = {v: k for k, v in enumerate(ids.tolist())}
    u, v = g.edge_array()
    pairs = [(pos[a], pos[b]) for a, b in zip(u.tolist(), v.tolist())
             if a in pos and b in pos]
    sub = g.induced_subgraph(ids)
    want = Graph.from_edges(len(ids), pairs)
    assert sub.n == want.n
    assert sub.indptr.tolist() == want.indptr.tolist()
    assert sub.indices.tolist() == want.indices.tolist()


@st.composite
def count_scripts(draw):
    """A graph, a labeling, and a sequence of moves and part swaps."""
    g = draw(graphs(max_n=40))
    r = draw(st.sampled_from([2, 3]))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=g.n, max_size=g.n))
    part = st.integers(0, r - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("swap"), part, part),
        st.tuples(st.just("move"),
                  st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n),
                  part | st.lists(part, min_size=g.n, max_size=g.n))),
        max_size=8))
    return g, r, labels, steps


@settings(max_examples=150, deadline=None)
@given(count_scripts())
def test_counts_stay_equal_to_a_recount_under_moves_and_swaps(script):
    g, r, labels, steps = script
    counts = Counts(g, np.array(labels), r)
    expect = list(labels)  # the labeling, replayed without Counts
    for kind, x, y in steps:
        if kind == "swap":
            counts.swap(x, y)
            expect = [y if lab == x else x if lab == y else lab for lab in expect]
        else:
            dst = y if isinstance(y, int) else y[:len(x)]
            counts.move(x, dst)
            for k, v in enumerate(x):
                expect[v] = dst if isinstance(dst, int) else dst[k]
        assert counts.labels.tolist() == expect
        assert counts.matrix.tolist() == naive_profile(g, expect, r)
        assert (counts.matrix == part_profile(g, np.array(expect), r)).all()
        assert counts.sizes.tolist() == np.bincount(expect, minlength=r).tolist()


def test_counts_copy_is_independent():
    g = gen_gnp(30, 0.3, seed=1)
    counts = Counts(g, np.arange(30) % 3, 3)
    twin = counts.copy()
    counts.move([0, 1, 2], 1)
    counts.swap(0, 2)
    assert (twin.labels == np.arange(30) % 3).all()
    assert (twin.matrix == part_profile(g, np.arange(30) % 3, 3)).all()


# -- the vectorised parse against the line loop --------------------------------

# the characters the fast parse must decline on (line breaks that
# str.splitlines knows and np.loadtxt does not, a stray "#", unknown record
# letters), and the ones python's int accepts but np.loadtxt refuses
LOADER_ALPHABET = "0123 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028#npecx-+_\u0663"
# spliced into a line: a third column, signs, ids the loop alone reads,
# record letters, a stray "#", and any short run of LOADER_ALPHABET
SPLICE = st.sampled_from([" 3", " -1", "-", "+", " 0", "0", " 1_0", "\u0663", "1.0",
                          "#", " #", "e", "e ", "x ", "p ", "c ", "\r"]) \
    | st.text(LOADER_ALPHABET, min_size=1, max_size=2)
END = st.sampled_from(["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
                       "\r\r\n", " # c\n", " \n", "\t\n", "\n\n", ""])


@st.composite
def loader_texts(draw):
    """Raw strings over LOADER_ALPHABET, or an edge list or DIMACS text of
    small ids (comment lines, "# n" or a problem line, then records), where
    a quarter of the texts get odd pieces spliced into some lines or odd
    line ends."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(LOADER_ALPHABET, max_size=30))
    dirty = draw(st.integers(0, 3)) == 0

    def odd():
        return dirty and draw(st.integers(0, 4)) == 0

    dimacs = draw(st.booleans())
    comments = (["c x", "c", "c n 3"] if dimacs
                else ["# c", "# n 5", "#n 6", "", "#\t n 4", "# n 6 6"])
    lines = [draw(st.sampled_from(comments)) for _ in range(draw(st.integers(0, 2)))]
    if dimacs:
        lines.append(draw(st.sampled_from(["p edge 5 3", "p edge 6 0", "p x 6 1"])))
    for _ in range(draw(st.integers(0, 6))):
        ids = [str(draw(st.integers(int(dimacs), 6))) for _ in range(2)]
        lines.append(" ".join(["e"] * dimacs + ids))
    text = ""
    for line in lines:
        if odd():
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(SPLICE) + line[at:]
        text += line + draw(END if odd() else st.just("\n"))
    return text


def load_outcome(load, text):
    """The GraphFormatError message, or the graph as plain lists."""
    try:
        g = load(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.indptr.tolist(), g.indices.tolist(), g.duplicates_collapsed


def small_ids(text):
    """Every integer token of text is small (a text-made n is allocated)."""
    for tok in text.split():
        try:
            if abs(int(tok)) > 10**4:
                return False
        except ValueError:
            pass
    return True


@settings(max_examples=500, deadline=None)
@given(loader_texts())
# one text for each guard of the fast parse, which accepts it without one
@example("# c\x1c0 1\n2 3\n")  # one header line to str.splitlines
@example("c x\n0 1\n")  # body characters
@example("0\x0b1\n")
@example("# n x\n0 1\n")  # counts of ASCII digits only
@example("# n \u00b2\n0 1\n")
@example("p edge 3 0\ne \n")  # DIMACS goes to the loop, never to np.loadtxt
@example("p\x1fedge 5 1\ne 1 2\n")  # a problem line as str.split reads it
# a lone "\r" ends a line for the loop, and np.loadtxt refuses it mid-line
@example("0 1\r")
@example("0 1\r2 3\n")
@example("\r0 1\n")
@example("0 1\n\r\n2 3")
def test_fast_parse_agrees_with_the_line_loop(text):
    assume(small_ids(text))
    want = load_outcome(graph_module._read_lines, text)
    assert load_outcome(load_graph, text) == want
    fast = graph_module._read_clean(text)
    assert fast is None or load_outcome(lambda t: fast, text) == want


def test_clean_text_never_enters_the_line_loop(monkeypatch):
    loop, entered = graph_module._read_lines, []
    monkeypatch.setattr(graph_module, "_read_lines",
                        lambda text: entered.append(text) or loop(text))
    g = gen_gnp(60, 0.2, seed=4)
    u, v = (a.tolist() for a in g.edge_array())
    dups = [f"{b} {a}" for a, b in zip(u[:5], v[:5])]
    texts = [
        g.to_edge_list_text(),
        "# made by hand\n\n# n 70\r\n"
        + "".join(f"{a}\t+{b}\r\n" for a, b in zip(u, v)) + "\n".join(dups),
    ]
    for text in texts:
        got = load_graph(text)
        assert not entered, "clean text went to the line loop"
        assert load_outcome(lambda t: got, text) == load_outcome(loop, text)
    assert load_graph(texts[1]).n == 70 and load_graph(texts[1]).duplicates_collapsed == 5
    # a "# n" header above the largest id
    assert load_graph("# n 80\n" + texts[0].split("\n", 1)[1]).n == 80
    assert not entered
    # DIMACS text is read by the loop alone
    dimacs = f"c made by hand\np edge 60 {len(u)}\n" + "".join(
        f"e {a + 1} {b + 1}\n" for a, b in zip(u, v))
    assert load_graph(dimacs).n == 60 and entered == [dimacs]


@pytest.mark.parametrize("text, message", [
    # line breaks str.splitlines knows and np.loadtxt does not
    ("1\x0b2\n", "line 1: expected two vertex ids"),
    ("1\x1c2\n", "line 1: expected two vertex ids"),
    ("1\x852\n", "line 1: expected two vertex ids"),
    ("1\u20282\n", "line 1: expected two vertex ids"),
    ("0\r1\n", "line 1: expected two vertex ids"),
    ("1 2 # c\n", "line 1: expected two vertex ids"),
    ("1 2 3\n", "line 1: expected two vertex ids"),
    ("0 1\n2\n", "line 2: expected two vertex ids"),
    ("0 1\n1 2\n# n 2\n", "line 2: vertex id 2 above 1 (out of range for n=2)"),
    ("c x\n0 1\n", "line 1: non-integer token 'c'"),
    ("0 1\n1 0 1\n2 2\n", "line 2: expected two vertex ids"),
    ("4 -1\n", "line 1: vertex id -1 below 0"),
])
def test_fast_parse_declines_and_the_loop_names_the_line(text, message):
    assert graph_module._read_clean(text) is None
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text)
    assert str(exc.value) == message


def test_fast_parse_declines_what_only_python_int_reads():
    # an empty body (np.loadtxt would warn), "1_000" and an Arabic-Indic
    # three go to the loop, which reads them
    for text, n, m in [("# n 5\n", 5, 0), ("", 0, 0), ("1_000 2\n", 1001, 1),
                       ("\u0663 1\n", 4, 1)]:
        assert graph_module._read_clean(text) is None
        g = load_graph(text)
        assert (g.n, g.m) == (n, m)


@pytest.mark.parametrize("blank", [" ", "\t", "\x1f", "\xa0", "\u2003"])
def test_a_problem_line_is_found_as_the_loop_splits_it(blank):
    # any blank that str.split splits on, not only a space or a tab
    g = load_graph(f"p{blank}edge 5 1\ne 1 2\n")
    assert (g.n, g.m, g.neighbors(0).tolist()) == (5, 1, [1])
    with pytest.raises(GraphFormatError, match="line 1: malformed problem line"):
        load_graph("p\ne 1 2\n")


TOO_MANY = MAX_VERTICES + 1


@pytest.mark.parametrize("text, message", [
    (f"# n {TOO_MANY}\n0 1\n", f"line 1: vertex count {TOO_MANY} above"),
    ("# n 1000000000000\n0 1\n", "line 1: vertex count 1000000000000 above"),
    (f"c made by hand\np edge {TOO_MANY} 1\ne 1 2\n",f"line 2: vertex count {TOO_MANY} above"),
    # an inferred count: the largest id names its line
    (f"0 1\n2 {MAX_VERTICES}\n", f"line 2: vertex id {MAX_VERTICES} above "
     f"{MAX_VERTICES - 1}, the largest a graph holds"),
    ("0 1\n0 99999999999999999999\n", "line 2: vertex id 99999999999999999999 above"),
    ("p edge 5 1\ne 1 99999999999999999999\n",
     "line 2: vertex id 99999999999999999999 above 5 (out of range for n=5)"),
])
def test_a_vertex_count_past_the_int64_keys_is_refused_on_its_line(text, message):
    assert graph_module._read_clean(text) is None
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text)
    assert str(exc.value).startswith(message)


def test_from_edges_refuses_a_vertex_count_past_the_int64_keys():
    assert MAX_VERTICES ** 2 < 2 ** 63 <= (MAX_VERTICES + 1) ** 2
    with pytest.raises(GraphFormatError, match=f"n={TOO_MANY} above {MAX_VERTICES}"):
        Graph.from_edges(TOO_MANY, [])
    # the limit itself is a legal count (not built here: it would hold
    # MAX_VERTICES + 1 offsets)
    assert graph_module._vertex_count(MAX_VERTICES) == MAX_VERTICES


# -- the split count -----------------------------------------------------------
#
# part_profile cuts the non-empty rows of a graph of at least 2 * RANGE_ENTRIES
# CSR entries into one range per CPU; these graphs are above that size, and
# the CPU count is set, so the split runs whatever machine runs the tests.


def bincount_profile(g, labels, r):
    """A naive recount: one bincount over the (row, part) keys."""
    return np.bincount(g.rows * r + labels[g.indices], minlength=g.n * r).reshape(g.n, r)


def placed(g, n, offset=0, isolated=()):
    """g's edges on ids offset.. of an n-vertex graph, without those of the
    isolated ids."""
    u, v = g.edge_array()
    keep = ~(np.isin(u, isolated) | np.isin(v, isolated))
    return Graph.from_edges(n, np.stack([u[keep], v[keep]], axis=1) + offset)


@pytest.fixture(scope="module")
def big():
    g = gen_gnp(2100, 0.05, seed=4)
    assert len(g.indices) >= 3 * graph_module.RANGE_ENTRIES
    return g


def cpus(monkeypatch, count):
    monkeypatch.setattr(graph_module, "_cpus", lambda: count)


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_a_split_count_matches_a_bincount(monkeypatch, big, count, r):
    cpus(monkeypatch, count)
    assert graph_module._ranges(len(big.indices), big.n) == count
    labels = np.random.default_rng(r).integers(0, r, big.n)
    assert np.array_equal(part_profile(big, labels, r), bincount_profile(big, labels, r))


def test_isolated_vertices_at_the_split_row(monkeypatch, big):
    cpus(monkeypatch, 2)
    g = placed(big, big.n, isolated=[1049, 1050])
    # the ranges split the 2098 non-empty rows after row 1048, so the two
    # isolated rows lie between the last row of one range and the first of
    # the next
    nonempty = np.flatnonzero(g.degree)
    cut = len(nonempty) // 2
    assert (nonempty[cut - 1], nonempty[cut]) == (1048, 1051)
    labels = np.random.default_rng(0).integers(0, 3, g.n)
    counts = part_profile(g, labels, 3)
    assert np.array_equal(counts, bincount_profile(g, labels, 3))
    assert not counts[1049:1051].any()


@pytest.mark.parametrize("offset", [0, 1700])
def test_a_half_without_entries(monkeypatch, offset):
    # a G(1700, 0.05) on one half of 3400 ids: the other half is isolated
    g = placed(gen_gnp(1700, 0.05, seed=5), 3400, offset)
    cpus(monkeypatch, 2)
    assert graph_module._ranges(len(g.indices), g.n) == 2
    labels = np.random.default_rng(1).integers(0, 3, g.n)
    counts = part_profile(g, labels, 3)
    assert np.array_equal(counts, bincount_profile(g, labels, 3))
    assert not counts[1700 - offset:3400 - offset].any()


def test_one_cpu_counts_on_the_calling_thread_alone(monkeypatch, big):
    labels = np.random.default_rng(2).integers(0, 3, big.n)
    cpus(monkeypatch, 2)
    split = part_profile(big, labels, 3)
    cpus(monkeypatch, 1)

    def no_workers():
        raise AssertionError("a one-CPU count asked for worker threads")
    monkeypatch.setattr(graph_module, "_workers", no_workers)
    assert graph_module._ranges(len(big.indices), big.n) == 1
    assert np.array_equal(part_profile(big, labels, 3), split)


def test_concurrent_split_counts_share_the_pool(monkeypatch, big):
    # more calling threads than cores, each splitting its count into three
    # ranges on the one pool, switching threads as often as the
    # interpreter lets them: a range written twice or not at all would show
    cpus(monkeypatch, 3)
    labels = [np.random.default_rng(seed).integers(0, 3, big.n) for seed in range(6)]
    expect = [bincount_profile(big, lab, 3) for lab in labels]
    results = [None] * len(labels)

    def count(i):
        for _ in range(5):
            if not np.array_equal(part_profile(big, labels[i], 3), expect[i]):
                return
        results[i] = True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=count, args=(i,)) for i in range(len(labels))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [True] * len(labels)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_process_pinned_to_one_cpu_takes_the_serial_path(big):
    # what `taskset -c 0` does, on this thread only, undone at the end
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        assert graph_module._cpus() == 1
        assert graph_module._ranges(len(big.indices), big.n) == 1
    finally:
        os.sched_setaffinity(0, before)
    assert graph_module._cpus() == len(before)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_child_forked_after_a_split_count_counts_again(monkeypatch, big):
    cpus(monkeypatch, 2)
    labels = np.random.default_rng(3).integers(0, 3, big.n)
    expect = bincount_profile(big, labels, 3)
    # the parent's pool now holds a worker thread, which the child lacks
    assert np.array_equal(part_profile(big, labels, 3), expect)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(part_profile(big, labels, 3), expect) else 1
        finally:
            os._exit(code)
    try:
        with watchdog(30, "the forked child's count"):
            _, status = os.waitpid(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.array_equal(part_profile(big, labels, 3), expect)
