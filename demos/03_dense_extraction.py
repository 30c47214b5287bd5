"""Greedy dense-subgraph extraction with its deletion-budget certificate.

The host is a part of a counted labeling (here the whole graph is part 0
of a two-part one).  Given an integer degree target per vertex (0:
unclassed) and a slack per classed vertex, delete in rounds every classed
vertex that falls below its target inside the surviving set.  The survivor
set is the unique maximal fixed point, the same for every deletion order,
and the number of deletions is bounded by an explicit budget chain.

Run:  python demos/03_dense_extraction.py
"""

from fractions import Fraction

import numpy as np

from degpart import Counts, check_key_condition, extract_dense
from degpart import gen_gnp

# a dense core plus 15 tendril vertices hanging by a single edge
core = gen_gnp(300, 0.05, seed=11)
u, v = core.edge_array()
edges = list(zip(u.tolist(), v.tolist()))
edges += [(i, 300 + i) for i in range(15)]
from degpart.graph import Graph
g = Graph.from_edges(315, edges)
print("host graph:", g, "mean degree", round(float(g.degree.mean()), 1))

# the classed vertices mix the tendrils (degree 1, below target) with random
# core vertices (far above it): the tendrils get deleted, the core survives
rng = np.random.default_rng(0)
members = np.concatenate([np.arange(300, 315),
                          rng.permutation(300)[:30]])
counts = Counts(g, np.zeros(g.n, dtype=np.int64), 2)  # host: part 0, all of V
target = np.zeros(g.n, dtype=np.int64)
target[members] = 2
eta = np.full(g.n, Fraction(1), dtype=object)

cond = check_key_condition(counts, (0,), target, eta)
print(f"key condition: lhs={cond.lhs:.1f} < |V(H)|={cond.rhs}? {cond.satisfied}")

result = extract_dense(counts, (0,), target, eta)
b = result.budget
print(f"deleted {b.deleted_count} vertices "
      f"(<= weighted deficit {b.weighted_deficit} <= bound {b.bound:.1f})")
print(f"survivors: {len(result.surviving)} of {g.n}; "
      f"guaranteed non-empty: {result.guaranteed}")
print(f"peel rounds: {result.rounds}")
print("first deletions (vertex, degree at the start of its round):",
      result.deleted[:5])

# every surviving classed vertex meets its target inside the survivors
surv = set(result.surviving.tolist())
kept = [v for v in members.tolist() if v in surv]
degs = [sum(1 for w in g.neighbors(v).tolist() if w in surv) for v in kept]
print(f"class target 2: kept {len(kept)} of {len(members)}, "
      f"min surviving degree {min(degs)}")
