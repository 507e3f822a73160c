"""Analysis layer: approximations, blocking studies, selection, sweeps."""

from repro.analysis.approximations import (
    AnalyticDelay,
    crossbar_envelope_delay,
    crossbar_heavy_load_delay,
    crossbar_light_load_delay,
    saturation_intensity,
    sbus_delay,
)
from repro.analysis.blocking import (
    BlockingPoint,
    average_blocking,
    blocking_comparison,
    full_permutation_blocking,
)
from repro.analysis.degraded import (
    DegradedMetrics,
    SystemDegradedMetrics,
    availability_distribution,
    degraded_metrics,
    degraded_system_metrics,
    degraded_throughput_curve,
    machine_repair_distribution,
)
from repro.analysis.fairness import delay_spread, fairness_report, jain_index
from repro.analysis.blocking_model import (
    delta_acceptance_probability,
    delta_blocking_curve,
    delta_blocking_probability,
    patel_output_rate,
    rsin_blocking_bound,
)
from repro.analysis.replication import (
    ReplicationEstimate,
    compare_with_replications,
    replicate_delay,
)
from repro.analysis.selection import (
    CandidateEvaluation,
    CostModel,
    CostRegime,
    NetworkClass,
    Recommendation,
    analytic_delay_evaluator,
    classify,
    evaluate_candidates,
    qualitative_recommendation,
    recommend,
)
from repro.analysis.sweep import (
    REFERENCE_RESOURCES,
    Series,
    SweepPoint,
    crossover_intensity,
    workload_at,
)

__all__ = [
    "AnalyticDelay",
    "sbus_delay",
    "crossbar_light_load_delay",
    "crossbar_heavy_load_delay",
    "crossbar_envelope_delay",
    "saturation_intensity",
    "BlockingPoint",
    "blocking_comparison",
    "full_permutation_blocking",
    "average_blocking",
    "DegradedMetrics",
    "SystemDegradedMetrics",
    "availability_distribution",
    "machine_repair_distribution",
    "degraded_metrics",
    "degraded_system_metrics",
    "degraded_throughput_curve",
    "jain_index",
    "delay_spread",
    "fairness_report",
    "patel_output_rate",
    "delta_acceptance_probability",
    "delta_blocking_probability",
    "delta_blocking_curve",
    "rsin_blocking_bound",
    "ReplicationEstimate",
    "replicate_delay",
    "compare_with_replications",
    "CostRegime",
    "NetworkClass",
    "CostModel",
    "CandidateEvaluation",
    "Recommendation",
    "classify",
    "qualitative_recommendation",
    "analytic_delay_evaluator",
    "evaluate_candidates",
    "recommend",
    "Series",
    "SweepPoint",
    "workload_at",
    "crossover_intensity",
    "REFERENCE_RESOURCES",
]
