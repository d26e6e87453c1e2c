"""The workload constraint prover (Theorem 7).

:mod:`.prover` certifies OO-/WW-/WO-constraint compliance of workload
specs and histories up front, unlocking the Theorem-7 polynomial
checking path without the dynamic constraint scan.  See
``docs/static_analysis.md`` for the rules and certificate semantics.
"""

from __future__ import annotations

from repro.analysis.static.prover import (
    CONSTRAINTS,
    THEOREM7_CONSTRAINTS,
    ConstraintCertificate,
    ProgramProfile,
    SampledRun,
    WorkloadSpec,
    certify_chain,
    certify_history,
    certify_partitioned_history,
    certify_run,
    certify_spec,
    certify_workloads,
    sample_history,
)

__all__ = [
    "CONSTRAINTS",
    "ConstraintCertificate",
    "ProgramProfile",
    "SampledRun",
    "THEOREM7_CONSTRAINTS",
    "WorkloadSpec",
    "certify_chain",
    "certify_history",
    "certify_partitioned_history",
    "certify_run",
    "certify_spec",
    "certify_workloads",
    "sample_history",
]
