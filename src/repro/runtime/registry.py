"""Protocol and workload registries — the runtime layer's ground truth.

Every replication protocol registers a :class:`ProtocolSpec` *next to
its own module* (at the bottom of ``repro/protocols/<name>.py``), and
every runnable workload a :class:`WorkloadSpec` — so the CLI, the
chaos suites, the exploration driver and the benchmark report all
resolve the same table instead of each keeping a private dict.  The
spec ties together what the paper treats as one family (Section 5):
the cluster factory, the strongest consistency condition the protocol
guarantees, and capability flags that gate the optional machinery
(crash recovery, static certificates, the relevant-objects query
optimization).

The registries are populated as a side effect of importing
:mod:`repro.protocols` / :mod:`repro.workloads`; the accessor
functions below trigger those imports lazily, so this module itself
stays import-cycle-free (protocol modules import *us* at load time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.index import CONDITIONS
from repro.errors import ReproError

__all__ = [
    "Capabilities",
    "ProtocolSpec",
    "UnknownProtocolError",
    "UnknownWorkloadError",
    "WorkloadSpec",
    "crash_tolerant_protocols",
    "get_protocol",
    "partition_tolerant_protocols",
    "get_workload",
    "protocol_names",
    "protocol_registry",
    "register_protocol",
    "register_workload",
    "resolve_protocol",
    "workload_names",
    "workload_registry",
]


class UnknownProtocolError(ReproError):
    """The named protocol is not in the registry."""


class UnknownWorkloadError(ReproError):
    """The named workload is not in the registry."""


@dataclass(frozen=True)
class Capabilities:
    """What a protocol's implementation supports beyond a plain run.

    Attributes:
        crash_tolerant: the protocol survives process crash-restarts
            (and, where it uses atomic broadcast, sequencer failover);
            only these protocols are eligible for crash chaos.
        partition_tolerant: the protocol survives link-level network
            partitions — its liveness may degrade (blocked updates,
            deferred sequencing, explicit
            :class:`~repro.errors.PartitionedError` refusals on the
            minority side) but its claimed consistency condition
            holds on every history the run records; required for
            chaos plans that contain partition events.
        certificate_eligible: runs expose a total synchronization
            order (``RunResult.ww_sequence``), so the static prover
            can bind a ``total-update-order``
            :class:`~repro.analysis.static.prover.ConstraintCertificate`
            to them and the checkers take the Theorem-7 fast path.
        query_optimizable: supports the Section-5.2 relevant-objects
            query-reply optimization (``reply_relevant_only``).
    """

    crash_tolerant: bool = False
    partition_tolerant: bool = False
    certificate_eligible: bool = False
    query_optimizable: bool = False


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol's registry entry.

    Attributes:
        name: registry key (e.g. ``"msc"``), also the CLI name.
        factory: the ``*_cluster(n, objects, **kwargs)`` builder.
        condition: strongest consistency condition every run
            guarantees, a :data:`~repro.core.index.CONDITIONS` name,
            or None for the deliberately weaker baselines/controls.
        summary: one line for ``--help`` and the docs table.
        capabilities: optional-machinery flags (see
            :class:`Capabilities`).
        uses_abcast: the protocol is built on the atomic-broadcast
            layer (drives whether fault-tolerant runs arm the
            fault-tolerant sequencer).
        options: names of JSON-representable factory keywords a
            :class:`~repro.runtime.spec.RunSpec` may carry for this
            protocol (e.g. ``delta``, ``reply_relevant_only``).
    """

    name: str
    factory: Callable = field(compare=False)
    condition: Optional[str] = None
    summary: str = ""
    capabilities: Capabilities = Capabilities()
    uses_abcast: bool = True
    options: Tuple[str, ...] = ()


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload family's registry entry.

    Attributes:
        name: registry key (e.g. ``"random"``).
        builder: ``builder(n, objects, ops, seed) -> Workloads`` (one
            program sequence per process).
        summary: one line for ``--help`` and the docs table.
        fixed_n: the workload scripts a specific process count (the
            scenario workloads do); None = any.
        fixed_objects: the workload scripts specific object names;
            None = any.
    """

    name: str
    builder: Callable = field(compare=False)
    summary: str = ""
    fixed_n: Optional[int] = None
    fixed_objects: Optional[Tuple[str, ...]] = None

    def shape(
        self, n: int, objects: Sequence[str]
    ) -> Tuple[int, Tuple[str, ...]]:
        """The (n, objects) the cluster must use for this workload."""
        if self.fixed_n is not None:
            n = self.fixed_n
        if self.fixed_objects is not None:
            objects = self.fixed_objects
        return n, tuple(objects)


_PROTOCOLS: Dict[str, ProtocolSpec] = {}
_WORKLOADS: Dict[str, WorkloadSpec] = {}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Add one protocol to the registry (called at module import).

    Re-registration under the same name must be the *same* spec
    (idempotent reloads are fine; two protocols claiming one name is
    a bug surfaced immediately).
    """
    if spec.condition is not None and spec.condition not in CONDITIONS:
        raise ReproError(
            f"protocol {spec.name!r} declares unknown condition "
            f"{spec.condition!r}; expected one of {tuple(CONDITIONS)}"
        )
    existing = _PROTOCOLS.get(spec.name)
    if existing is not None and existing != spec:
        raise ReproError(
            f"protocol {spec.name!r} registered twice with different "
            "specs"
        )
    _PROTOCOLS[spec.name] = spec
    return spec


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add one workload family to the registry."""
    existing = _WORKLOADS.get(spec.name)
    if existing is not None and existing != spec:
        raise ReproError(
            f"workload {spec.name!r} registered twice with different "
            "specs"
        )
    _WORKLOADS[spec.name] = spec
    return spec


def _ensure_protocols_loaded() -> None:
    # Registration happens as an import side effect of the protocol
    # modules; importing the package is what fills the table.
    import repro.protocols  # noqa: F401


def _ensure_workloads_loaded() -> None:
    import repro.runtime.workloads  # noqa: F401


def protocol_registry() -> Dict[str, ProtocolSpec]:
    """Name -> :class:`ProtocolSpec` for every registered protocol."""
    _ensure_protocols_loaded()
    return dict(_PROTOCOLS)


def workload_registry() -> Dict[str, WorkloadSpec]:
    """Name -> :class:`WorkloadSpec` for every registered workload."""
    _ensure_workloads_loaded()
    return dict(_WORKLOADS)


def protocol_names() -> Tuple[str, ...]:
    """Sorted names of every registered protocol."""
    return tuple(sorted(protocol_registry()))


def workload_names() -> Tuple[str, ...]:
    """Sorted names of every registered workload."""
    return tuple(sorted(workload_registry()))


def get_protocol(name: str) -> ProtocolSpec:
    """Look a protocol up by name, with a helpful error."""
    registry = protocol_registry()
    try:
        return registry[name]
    except KeyError:
        raise UnknownProtocolError(
            f"unknown protocol {name!r}; registered: "
            f"{', '.join(sorted(registry))}"
        ) from None


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by name, with a helpful error."""
    registry = workload_registry()
    try:
        return registry[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; registered: "
            f"{', '.join(sorted(registry))}"
        ) from None


def resolve_protocol(protocol) -> ProtocolSpec:
    """Accept a registry name *or* a registered factory callable.

    The callable form keeps pre-runtime call sites (benchmarks that
    import ``msc_cluster`` directly) working while still resolving
    through the registry.
    """
    if isinstance(protocol, str):
        return get_protocol(protocol)
    for spec in protocol_registry().values():
        if spec.factory is protocol:
            return spec
    raise UnknownProtocolError(
        f"{protocol!r} is neither a registered protocol name nor a "
        "registered cluster factory"
    )


def crash_tolerant_protocols() -> Dict[str, ProtocolSpec]:
    """The chaos-eligible subset (capability ``crash_tolerant``)."""
    return {
        name: spec
        for name, spec in protocol_registry().items()
        if spec.capabilities.crash_tolerant
    }


def partition_tolerant_protocols() -> Dict[str, ProtocolSpec]:
    """The partition-chaos subset (capability ``partition_tolerant``)."""
    return {
        name: spec
        for name, spec in protocol_registry().items()
        if spec.capabilities.partition_tolerant
    }
