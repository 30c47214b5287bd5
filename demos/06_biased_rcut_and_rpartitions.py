"""Biased max-r-cut local search and r-partitions with exact part sizes.

Minimizing f = sum_i e(U_i)/alpha_i by single-vertex moves lands on a
partition where, for every vertex x in U_i and every other part j,

    d_{U_i}(x)/alpha_i <= d_{U_j}(x)/alpha_j,

hence d_outside(x) >= (1-alpha_i) d(x).  With rational biases every
comparison is exact integer arithmetic.  The r-partition pipeline runs the
search, then repairs part sizes to exactly floor(alpha_i n) (largest
remainder); its report records the search's objective and moves before the
repair, and its stats and claims are measured after it.

Run:  python demos/06_biased_rcut_and_rpartitions.py
"""

from fractions import Fraction

import numpy as np

from degpart import BiasVector, biased_max_r_cut, gen_gnp, r_partition
from degpart.cuts import check_biased_local_min

g = gen_gnp(400, 0.05, seed=2)
bias = BiasVector((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))

res = biased_max_r_cut(g, bias, seed=2)
print(f"objective (scaled integer): {res.objective_start} -> {res.objective_end} "
      f"in {res.moves} moves")
# the search returns the neighbour counts it kept current as it moved vertices
print("local-minimum violations:", len(check_biased_local_min(res.counts, bias)))

counts = res.counts.matrix
own = counts[np.arange(g.n), res.labels]
ratios = own / np.maximum(g.degree, 1)
for j, a in enumerate(bias.alpha):
    sel = res.labels == j
    print(f"  part {j} (alpha={a}): size {int(sel.sum())}, "
          f"max own-fraction {ratios[sel].max():.3f} <= {float(a):.3f}")

report = r_partition(g, bias, "external", seed=2)
print("\nr-partition sizes:", report.stats["sizes"], "(exact targets)")
pre = report.diagnostics["pre_repair"]
print(f"search before the repair: {pre['objective_start']} -> {pre['objective_end']} "
      f"in {pre['moves']} moves | repaired vertices: "
      f"{report.diagnostics['repaired_vertices']}")
print("post-repair min cross ratio:", round(report.stats["min_cross_ratio"], 4))

# internal flavor: maximize the same objective to pile edges inside parts
internal = r_partition(g, BiasVector(("1/2", "1/2")), "internal", seed=3)
print("\ninternal r=2: sizes", internal.stats["sizes"],
      "min own-ratio", round(internal.stats["min_own_ratio"], 4))
