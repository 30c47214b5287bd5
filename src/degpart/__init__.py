"""Degree-constrained graph partitioning.

Builds bisections, tripartitions and r-partitions of arbitrary graphs in
which every vertex keeps a prescribed fraction of its neighbors inside its
own part (internal mode) or in the opposite part (external mode).  The
constructions follow a two-stage scheme: a randomized tripartition whose
properties are validated deterministically, followed by deterministic
relocation refinements.  Every run emits a certificate that an independent
verifier re-checks from scratch, and a brute-force oracle supplies ground
truth on small instances.
"""

from .graph import Counts, Graph, load_graph
from .thresholds import (
    ParamSet,
    ThresholdTable,
    default_d_constant,
    verify_series_bound,
    build_threshold_table,
)
from .dense import ExtractResult, check_key_condition, extract_dense
from .cuts import BiasVector, local_maxcut, biased_max_r_cut
from .stage1 import StageOneResult, relocate_bad_from_c, stage_one
from .refine_int import refine_internal_once
from .pipelines import (
    PipelineReport,
    tripartition,
    partition_stats,
    bisect_internal,
    bisect_external,
    tripartition_exact,
    bisect_dual,
    bisect_with_cut_average,
    r_partition,
    VERSION as __version__,
)
from .certify import Certificate, VerifyResult, verify_certificate, verify_report
from .oracle import best_bisection, ko_bisection_exists
from .gen import gen_gnp, gen_kuhn_osthus, gen_complete_bipartite
from .bench import bench_sweep

__all__ = [
    "Counts",
    "Graph",
    "load_graph",
    "ParamSet",
    "ThresholdTable",
    "default_d_constant",
    "verify_series_bound",
    "build_threshold_table",
    "ExtractResult",
    "check_key_condition",
    "extract_dense",
    "BiasVector",
    "local_maxcut",
    "biased_max_r_cut",
    "StageOneResult",
    "relocate_bad_from_c",
    "stage_one",
    "refine_internal_once",
    "PipelineReport",
    "tripartition",
    "partition_stats",
    "bisect_internal",
    "bisect_external",
    "tripartition_exact",
    "bisect_dual",
    "bisect_with_cut_average",
    "r_partition",
    "Certificate",
    "VerifyResult",
    "verify_certificate",
    "verify_report",
    "best_bisection",
    "ko_bisection_exists",
    "gen_gnp",
    "gen_kuhn_osthus",
    "gen_complete_bipartite",
    "bench_sweep",
]
