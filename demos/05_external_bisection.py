"""External-mode construction: every vertex keeps cross neighbors.

The refinement works on the bipartite cross subgraph between the two sides:
extract a core where cross floors already hold, quarantine everything the
extraction touched (plus its buffer-part neighborhood), greedily absorb
quarantined vertices onto the side opposite their witnessed neighbors, and
split the leftovers with a flip-local max-cut, which hands each leftover at
least half of its inner degree as cross degree.

Run:  python demos/05_external_bisection.py
"""

from degpart import (ParamSet, bisect_external, gen_gnp, tripartition,
                     verify_certificate)

g = gen_gnp(3000, 0.05, seed=9)
params = ParamSet(0.0, 0.09, "external", d_const=1.0)

tri = tripartition(g, params, seed=9)
print("tripartition ok:", tri.ok, "| conditions:", tri.conditions)
trace = tri.traces[0]
print("extraction deleted:", 0 if trace.extract is None else
      len(trace.extract.deleted),
      "| quarantined W1:", len(trace.w1),
      "| absorbed:", len(trace.absorbed),
      "| left for the cut:", len(trace.w2))

report = bisect_external(g, params, seed=9)
print("\nbisection ok:", report.ok, "sizes:", report.stats["sizes"])
print("min cross-degree:", report.stats["min_cross_degree"],
      "| min cross-ratio:", round(report.stats["min_cross_ratio"], 4))
res = verify_certificate(g, report.labels, report.certificate, r=2)
print("independent verifier:", "PASS" if res.passed else "FAIL")
