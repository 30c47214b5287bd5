"""Tour of the graph layer: ingestion, degree primitives, cut profiles.

Run:  python demos/01_graphs_and_profiles.py
"""

import numpy as np

from degpart import Counts, gen_gnp, load_graph

# Graphs load from plain edge lists (or DIMACS "p edge / e u v" streams).
text = """\
# a 5-cycle
0 1
1 2
2 3
3 4
4 0
"""
c5 = load_graph(text)
print("C5:", c5, "degrees", c5.degree.tolist())

# Neighborhood counts into a vertex set S: label S as part 1 and read the
# count matrix's column 1.
in_s = Counts(c5, np.isin(np.arange(c5.n), [1, 3]).astype(np.int64), 2)
print("neighbors of 0 inside {1, 3}:", in_s.matrix[0, 1])

# Per-vertex cut profiles: own-part degree plus cross degrees per part.
labels = np.array([0, 0, 0, 1, 1])
counts = Counts(c5, labels, 2).matrix
d_own = counts[np.arange(c5.n), labels]
for v in range(c5.n):
    print(f"  vertex {v}: own {d_own[v]}, toward part 0 {counts[v,0]}, "
          f"toward part 1 {counts[v,1]}")

# Random graphs are reproducible from their seed.
g = gen_gnp(1000, 0.01, seed=7)
print("G(1000, 0.01):", g, "mean degree", round(float(g.degree.mean()), 2))
assert gen_gnp(1000, 0.01, seed=7).m == g.m

# Serialization round-trips the edge set exactly.
again = load_graph(g.to_edge_list_text())
assert again.m == g.m and again.n == g.n
print("edge-list round trip preserved", g.m, "edges")
