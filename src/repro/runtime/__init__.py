"""Runtime layer: registries + declarative runs (S34).

One pipeline from a declarative :class:`RunSpec` to a serializable
:class:`RunArtifact`::

    registry (ProtocolSpec / WorkloadSpec)
        -> RunSpec (JSON-round-trippable)
        -> execute(spec)
        -> RunArtifact (history, verdicts, metrics, net stats)

The CLI (``demo``/``trace``/``chaos``/``run``), the chaos suites,
the exploration driver and the benchmark report all resolve protocols
and workloads through this package instead of keeping private tables.
"""

from repro.runtime.execute import (
    FaultPolicyError,
    RunArtifact,
    execute,
    history_hash,
)
from repro.runtime.registry import (
    Capabilities,
    ProtocolSpec,
    UnknownProtocolError,
    UnknownWorkloadError,
    WorkloadSpec,
    crash_tolerant_protocols,
    get_protocol,
    get_workload,
    partition_tolerant_protocols,
    protocol_names,
    protocol_registry,
    register_protocol,
    register_workload,
    resolve_protocol,
    workload_names,
    workload_registry,
)
from repro.runtime.spec import (
    FaultSpec,
    InvalidSpecError,
    LatencySpec,
    RunSpec,
    VerifyPolicy,
)

__all__ = [
    "Capabilities",
    "FaultPolicyError",
    "FaultSpec",
    "InvalidSpecError",
    "LatencySpec",
    "ProtocolSpec",
    "RunArtifact",
    "RunSpec",
    "UnknownProtocolError",
    "UnknownWorkloadError",
    "VerifyPolicy",
    "WorkloadSpec",
    "crash_tolerant_protocols",
    "execute",
    "get_protocol",
    "get_workload",
    "history_hash",
    "partition_tolerant_protocols",
    "protocol_names",
    "protocol_registry",
    "register_protocol",
    "register_workload",
    "resolve_protocol",
    "workload_names",
    "workload_registry",
]
