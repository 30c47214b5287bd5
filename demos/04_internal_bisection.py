"""End-to-end internal bisection: every vertex keeps own-part neighbors.

The pipeline tripartitions the graph (randomized stage with deterministic
validation, then two deterministic refinement passes), folds the buffer part
C into the two sides for balance, and emits a certificate that an
independent verifier re-checks from scratch.

Run:  python demos/04_internal_bisection.py
"""

import dataclasses

from degpart import (ParamSet, bisect_internal, gen_gnp, verify_certificate,
                     verify_report)
from degpart.pipelines import random_bisection_stats

g = gen_gnp(3000, 0.05, seed=5)
params = ParamSet(0.0, 0.25, "internal", d_const=1.0)
report = bisect_internal(g, params, seed=5)

print("ok:", report.ok, "| guaranteed:", report.guaranteed,
      "(no asymptotic size threshold was configured)")
print("sizes:", report.stats["sizes"])
print("min own-degree:", report.stats["min_own_degree"],
      "| min own-ratio:", round(report.stats["min_own_ratio"], 4))
# the report carries stage one's log: one record per attempt, the last the
# accepted one
print("stage-one attempts:", report.diagnostics["stage1_attempts"],
      "| accepted:", report.diagnostics["stage1_log"][-1])

# the certificate is a claim list bound to the exact graph
for claim in report.certificate.claims:
    print("  claim:", claim["kind"], {k: v for k, v in claim.items()
                                      if k not in ("kind", "witness")})

res = verify_certificate(g, report.labels, report.certificate, r=2)
print("independent verifier:", "PASS" if res.passed else "FAIL")

# against a uniformly random bisection of the same graph
base = random_bisection_stats(g, seed=5)
print(f"random-bisection baseline min own-ratio: {base['min_own_ratio']:.4f} "
      f"(pipeline: {report.stats['min_own_ratio']:.4f})")

# the claims must also state the theorem the report records: verify_report
# re-derives the bisection's statement from params["statement"]
print("statement record:", report.certificate.params["statement"])
res3 = verify_report(g, report)
print("verify_report:", "PASS" if res3.passed else "FAIL",
      "| statement certified:", res3.statement)
# without its floor claim the labels still satisfy every remaining claim,
# but the certificate no longer states the theorem
claims = [c for c in report.certificate.claims if c["kind"] != "degree_floor"]
stripped = dataclasses.replace(report, certificate=dataclasses.replace(
    report.certificate, claims=claims))
alone = verify_certificate(g, stripped.labels, stripped.certificate, r=2)
res4 = verify_report(g, stripped)
print("floor claim deleted: claims alone", "PASS" if alone.passed else "FAIL",
      "| verify_report", "PASS" if res4.passed else "FAIL", f"({res4.reason})")

# corrupting a single label must be caught
bad = report.labels.copy()
bad[0] = 1 - bad[0]
res2 = verify_certificate(g, bad, report.certificate, r=2)
print("after corrupting one label:", "PASS" if res2.passed else
      f"FAIL at claim {res2.failed_index} (as it should)")
