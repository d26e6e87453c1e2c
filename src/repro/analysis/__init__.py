"""Metrics, checker-scaling analysis (S19) and the constraint prover.

The :mod:`repro.analysis.static` subpackage hosts the workload
constraint prover: OO/WW/WO certificates consumed by the checkers
(Theorem 7).
"""

from repro.analysis import static
from repro.analysis.complexity import (
    ScalingPoint,
    exponential_gadget,
    hard_history,
    measure,
    measure_exact,
    scaling_table,
)
from repro.analysis.metrics import (
    IndexStats,
    LatencySummary,
    ProtocolMetrics,
    comparison_table,
)

__all__ = [
    "IndexStats",
    "LatencySummary",
    "ProtocolMetrics",
    "ScalingPoint",
    "comparison_table",
    "exponential_gadget",
    "hard_history",
    "measure",
    "measure_exact",
    "scaling_table",
    "static",
]
