"""``execute(spec) -> RunArtifact`` — the one run pipeline.

Every surface that runs a protocol (the ``demo``/``trace``/``run``/
``chaos`` CLI commands, the chaos suites, the exploration driver and
the benchmark report) goes through this module, and the module has
one body in which faults are a step, not a fork: resolve the protocol
and workload from the registry; if the spec carries faults, resolve
the plan, check it against the protocol's capabilities and add the
fault-tolerant cluster keywords (reliable network, failover
sequencer and, for a protocol that declares a condition, an in-run
``LiveMonitor("m-sc")``); build the cluster; arm
detector and injector; run, catching a faulty run's typed failures
into ``failure``; and give the run its **single** batch verdict under
the spec's :class:`~repro.runtime.spec.VerifyPolicy` (the Theorem-7
fast path with a static :class:`~repro.analysis.static.prover
.ConstraintCertificate` whenever the prover certifies the workload).
The result is one serializable :class:`RunArtifact`.

A faulty run is therefore judged by: completion, the monitor's audit
at every fault boundary and at the end, the abcast delivery logs'
total order, and that one verdict.  The *negative controls*
(``recover=False``: crashes stay down; ``quorum_aware=False``: the
quorum safeguards are stripped and a split-brain is allowed to
happen) must fail one of them — the evidence that recovery and
quorum gating, not luck, make the positive runs pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.abcast.failover import FailoverSequencer
from repro.core.monitor import LiveMonitor
from repro.core.serialize import (
    canonical_history_json,
    canonical_json,
    history_to_dict,
)
from repro.errors import (
    DeliveryTimeout,
    MalformedHistoryError,
    MalformedOperationError,
    PartitionedError,
    ProcessCrashed,
    ProtocolError,
    ReadsFromError,
    ReproError,
    SequencerUnavailable,
)
from repro.runtime.registry import (
    ProtocolSpec,
    get_workload,
    resolve_protocol,
)
from repro.runtime.spec import InvalidSpecError, RunSpec
from repro.sim.detector import HeartbeatDetector
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Network

__all__ = [
    "ChaosResult",
    "FaultPolicyError",
    "RunArtifact",
    "execute",
    "history_hash",
]

#: What a run under faults may end in instead of a history; caught
#: into ``RunArtifact.failure`` (a clean run raises them).
_RUN_FAILURES = (
    DeliveryTimeout,
    PartitionedError,
    ProcessCrashed,
    ProtocolError,
    SequencerUnavailable,
)

#: What recording an ill-formed history raises.  A protocol with no
#: condition (a baseline or control) guarantees not even a well-formed
#: history: there it is the run's violation, not a crash of the run.
_ILL_FORMED = (MalformedHistoryError, MalformedOperationError, ReadsFromError)


class FaultPolicyError(ReproError):
    """The fault plan needs a capability the protocol does not have."""


def history_hash(history, text: Optional[str] = None) -> str:
    """SHA-256 of a history's canonical JSON (determinism guard).

    ``text`` is that JSON when the caller has already encoded it.
    """
    if text is None:
        text = canonical_history_json(history)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encoded(result) -> Dict[str, Any]:
    """A finished run's one encoding pass, as ``RunArtifact`` fields."""
    if result is None:
        return {"history_json": None, "history_hash": ""}
    text = canonical_history_json(result.history)
    return {
        "history_json": text,
        # Via the public function, which benchmarks/e2e taps by name
        # to time each run's hashing step.
        "history_hash": history_hash(result.history, text),
    }


@dataclass(frozen=True)
class VerdictRecord:
    """One consistency check's outcome, in serializable form."""

    condition: str
    holds: bool
    method: str
    certificate: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "method": self.method,
            "certificate": self.certificate,
        }


@dataclass
class ChaosResult:
    """What a fault run did that :class:`RunArtifact` does not say.

    A live handle (``RunArtifact.chaos``), never serialized; the
    tallies are in ``net_stats["chaos"]`` / ``net_stats["detector"]``.
    """

    #: the resolved plan that was armed.
    plan: FaultPlan
    #: ``(time, pid)`` per executed crash / restart.
    crashes: List[Tuple[float, int]]
    restarts: List[Tuple[float, int]]
    #: the failover sequencer's elections (empty without an abcast).
    failovers: List[tuple]
    #: ``(time, "partition"|"heal", link count)`` per topology change.
    partitions: List[Tuple[float, str, int]]
    #: ``HeartbeatDetector.summary()``; empty when none was armed.
    detector: Dict[str, float]
    #: degraded-mode incidents of the quorum-aware sequencer:
    #: ``(time, pid, reason, msg id|None)``.
    degraded: List[tuple]
    #: ``(time, event, pid, verdict)`` per audit of the in-run monitor
    #: — one per fault event plus ``"final"`` (verdict None = clean so
    #: far; any other is also in ``RunArtifact.violations``).
    audits: List[Tuple[float, str, int, Optional[str]]]
    #: pid -> abcast delivery cursor when the run ended, failed runs
    #: included (the first thing to look at when one never finishes).
    abcast_cursors: Dict[int, int]


@dataclass
class RunArtifact:
    """Everything one executed :class:`RunSpec` produced.

    The artifact is JSON-serializable (:meth:`to_dict` / :meth:`save`);
    the two live handles (``result``, and ``chaos`` — a
    :class:`ChaosResult`, None outside fault runs) are carried for
    in-process callers — the benchmark report reads ``result``, the
    chaos CLI and suites read ``chaos`` — and are summarized, not
    embedded, in the JSON form.

    The recorded history is encoded once, by :func:`execute`, as
    ``history_json``: ``history_hash`` is the SHA-256 of that text and
    :meth:`to_json` embeds it verbatim, so the ``history`` member of
    every written artifact hashes to its ``history_hash``.
    """

    spec: RunSpec
    protocol: str
    condition: Optional[str]
    n: int
    objects: Tuple[str, ...]
    completed: int
    expected: int
    duration: float
    #: SHA-256 of ``history_json`` ("" when the run left no history).
    history_hash: str
    #: canonical JSON of the recorded history, or None.
    history_json: Optional[str] = field(repr=False, compare=False)
    verdicts: List[VerdictRecord] = field(default_factory=list)
    #: what the run got wrong besides its verdict: in-run audit
    #: findings and an abcast total-order breach.
    violations: List[str] = field(default_factory=list)
    #: text of the typed error a fault run ended in, if it did.
    failure: Optional[str] = None
    net_stats: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[Dict[str, Any]] = None
    trace_path: Optional[str] = None
    trace_spans: int = 0
    #: live handles — not serialized.
    result: Any = field(default=None, repr=False, compare=False)
    chaos: Any = field(default=None, repr=False, compare=False)
    tracer: Any = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """The run completed, stayed clean, and every check holds."""
        return (
            self.failure is None
            and not self.violations
            and self.completed == self.expected
            and all(v.holds for v in self.verdicts)
        )

    @property
    def history(self):
        return self.result.history if self.result is not None else None

    def _members(self) -> Dict[str, Any]:
        """Every serialized member but ``history``."""
        return {
            "spec": self.spec.to_dict(),
            "protocol": self.protocol,
            "condition": self.condition,
            "n": self.n,
            "objects": list(self.objects),
            "completed": self.completed,
            "expected": self.expected,
            "duration": self.duration,
            "history_hash": self.history_hash,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "violations": list(self.violations),
            "failure": self.failure,
            "net_stats": dict(self.net_stats),
            "metrics": self.metrics,
            "trace_path": self.trace_path,
            "trace_spans": self.trace_spans,
            "ok": self.ok,
        }

    def to_dict(self) -> Dict[str, Any]:
        members = self._members()
        members["history"] = (
            history_to_dict(self.result.history)
            if self.result is not None
            else None
        )
        return members

    def to_json(self) -> str:
        """:func:`canonical_json` of :meth:`to_dict`, byte for byte.

        Assembled member by member, so the history — nearly all of the
        text — is the encoding :func:`execute` made and hashed, not a
        second pass over the recorded run.
        """
        members = {
            key: canonical_json(value)
            for key, value in self._members().items()
        }
        members["history"] = self.history_json or "null"
        return "{%s}" % ",".join(
            f'"{key}":{text}' for key, text in sorted(members.items())
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def summary(self) -> str:
        """One line for CLI output and CI logs."""
        checks = (
            ", ".join(
                f"{v.condition}={'ok' if v.holds else 'VIOLATED'}"
                f"[{v.method}"
                + (f"+cert:{v.certificate}" if v.certificate else "")
                + "]"
                for v in self.verdicts
            )
            or "unverified"
        )
        verdict = "ok" if self.ok else (
            self.failure
            or (self.violations[0] if self.violations else "incomplete")
        )
        return (
            f"{self.protocol}/{self.spec.workload} seed={self.spec.seed}"
            f" n={self.n}: {self.completed}/{self.expected} ops in "
            f"{self.duration:.1f}t, {checks} -> {verdict}"
        )


def _static_certificate(proto: ProtocolSpec, workloads, result):
    """Ask the prover for a workload certificate; None when it refuses."""
    from repro.analysis.static.prover import (
        CertificationRefused,
        certify_workloads,
    )

    # The registry flag promises the run's ~ww chain as extra_pairs.
    eligible = proto.capabilities.certificate_eligible
    sync = "total-update-order" if eligible else "none"
    try:
        cert = certify_workloads(workloads, sync=sync)
    except CertificationRefused:
        return None
    if cert.requires_chain:
        if result is None or not result.ww_sequence:
            return None
        cert = cert.with_chain(result.ww_sequence)
    return cert


def _verify(
    spec: RunSpec, proto: ProtocolSpec, workloads, result
) -> List[VerdictRecord]:
    """Run the spec's verification policy over a finished run."""
    # Resolved per call: benchmarks/e2e and the call-count guard wrap
    # ``repro.core.check_condition`` to time / count this one call.
    from repro.core import check_condition

    policy = spec.verify
    if not policy.enabled:
        return []
    condition = policy.condition or proto.condition
    if condition is None:
        # Baselines/controls guarantee nothing — nothing to check.
        return []
    extra_pairs = result.ww_pairs() if policy.use_ww else ()
    certificate = None
    if policy.certificate == "auto":
        certificate = _static_certificate(proto, workloads, result)
    verdict = check_condition(
        result.history,
        condition,
        method=policy.method,
        extra_pairs=extra_pairs,
        certificate=certificate,
        window=policy.window,
    )
    return [
        VerdictRecord(
            condition=verdict.condition,
            holds=verdict.holds,
            method=verdict.method_used,
            certificate=verdict.certificate,
        )
    ]


def _check_options(spec: RunSpec, proto: ProtocolSpec) -> Dict[str, Any]:
    options = spec.options_dict()
    unknown = set(options) - set(proto.options)
    if unknown:
        raise InvalidSpecError(
            f"protocol {proto.name!r} does not take option(s) "
            f"{sorted(unknown)}; declared: {sorted(proto.options)}"
        )
    return options


def _check_eligible(proto: ProtocolSpec, plan: FaultPlan) -> None:
    """Eligibility follows the resolved plan, not a blanket flag."""
    caps = proto.capabilities
    if plan.crashes and not caps.crash_tolerant:
        raise FaultPolicyError(
            f"protocol {proto.name!r} has no crash-recovery support; "
            "crash plans require a crash-tolerant protocol (see "
            "repro.runtime.crash_tolerant_protocols())"
        )
    # A plan of drops and spikes alone still runs on the reliable shim
    # under the monitor: it needs a protocol built for either family.
    if not caps.partition_tolerant and (
        plan.partitions or not caps.crash_tolerant
    ):
        raise FaultPolicyError(
            f"protocol {proto.name!r} has no partition-tolerance "
            "support; partition plans require the partition_tolerant "
            "capability (see repro.runtime.partition_tolerant_protocols())"
        )


def execute(spec: RunSpec, **overrides) -> RunArtifact:
    """Run one :class:`RunSpec` end to end and return the artifact.

    ``overrides`` are extra, non-serializable cluster-factory keywords
    (e.g. a custom ``abcast_factory`` in benchmarks) — an escape hatch
    for in-process callers; everything a spec file can express should
    go through the spec.
    """
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        install_metrics,
        install_tracer,
        uninstall_metrics,
        uninstall_tracer,
    )

    proto = resolve_protocol(spec.protocol)
    options = _check_options(spec, proto)
    options.update(overrides)

    tracer = Tracer() if spec.tracing else None
    registry = MetricsRegistry() if spec.metrics else None
    if tracer is not None:
        install_tracer(tracer)
    if registry is not None:
        install_metrics(registry)
    try:
        artifact = _run(spec, proto, options)
    finally:
        if registry is not None:
            uninstall_metrics()
        if tracer is not None:
            uninstall_tracer()

    if registry is not None:
        snapshot = registry.snapshot()
        if artifact.metrics:
            snapshot.update(artifact.metrics)
        artifact.metrics = snapshot
    if tracer is not None:
        artifact.tracer = tracer
        artifact.trace_spans = len(tracer.records())
        if spec.trace_path:
            tracer.export_jsonl(spec.trace_path)
            artifact.trace_path = spec.trace_path
    return artifact


def _run(
    spec: RunSpec, proto: ProtocolSpec, options: Dict[str, Any]
) -> RunArtifact:
    workload = get_workload(spec.workload)
    n, objects = workload.shape(spec.n, spec.objects)
    faults = spec.faults
    latency = spec.latency.build()

    plan = monitor = None
    if faults is not None:
        plan = faults.resolve(n)
        _check_eligible(proto, plan)
        if proto.condition is not None:
            # The in-run audits check the order every protocol with a
            # condition promises at least, ~p ∪ ~rf ∪ ~ww (the others
            # tap no ~ww); the condition is checked on the finished run.
            monitor = LiveMonitor("m-sc", window=spec.verify.window)
        options.update(
            fault_tolerant=True,
            recovery=faults.recovery,
            monitor=monitor,
            network_factory=lambda sim, size: Network(
                sim,
                size,
                latency=latency,
                seed=faults.seed + 1,
                reliable=True,
                ack_timeout=faults.ack_timeout,
                backoff=faults.retry_backoff,
                retry_jitter=faults.retry_jitter,
                max_retries=faults.max_retries,
            ),
        )
        if proto.uses_abcast:
            # The other protocols default their own abcast_factory to
            # None and must not have one forced in.
            options["abcast_factory"] = lambda net: FailoverSequencer(
                net, failover_delay=faults.failover_delay
            )
    cluster = proto.factory(
        n, objects, seed=spec.seed, latency=latency, **options
    )

    detector = injector = None
    audits: List[Tuple[float, str, int, Optional[str]]] = []
    if plan is not None:
        if plan.partitions:
            # Nothing else tells a protocol the far side went silent.
            # The detector rides the same lossy, partitionable network
            # as the protocol, so its view degrades with the topology.
            detector = HeartbeatDetector(
                cluster.network,
                period=faults.detector_period,
                timeout=faults.detector_timeout,
            )
            cluster.attach_detector(detector)
            if cluster.abcast is not None:
                cluster.abcast.bind_detector(
                    detector,
                    quorum_aware=faults.quorum_aware,
                    degraded=faults.degraded,
                )
        # The monitor checks completions as they land, so an audit at
        # a fault boundary is a barrier, not a history rebuild.
        injector = FaultInjector(
            plan,
            on_event=None if monitor is None else (
                lambda kind, pid, now: audits.append(
                    (now, kind, pid, monitor.audit())
                )
            ),
        ).install(cluster)

    workloads = workload.builder(n, objects, spec.ops, spec.seed + 1)
    result = failure = ill_formed = None
    try:
        result = cluster.run(
            workloads, max_events=spec.max_events, settle=spec.settle
        )
    except _RUN_FAILURES as exc:
        if plan is None:
            raise
        failure = f"{type(exc).__name__}: {exc}"
    except _ILL_FORMED as exc:
        if proto.condition is not None:
            raise
        ill_formed = f"recorded history: {type(exc).__name__}: {exc}"

    violations = [
        f"incremental audit: {found}"
        for _t, _kind, _pid, found in audits
        if found is not None
    ]
    if ill_formed is not None:
        violations.append(ill_formed)
    verdicts: List[VerdictRecord] = []
    if result is not None:
        if monitor is not None:
            found = monitor.audit()
            audits.append((cluster.sim.now, "final", -1, found))
            if found is not None:
                violations.append(f"incremental audit (final): {found}")
        verdicts = _verify(spec, proto, workloads, result)
        if result.abcast_violation is not None:
            violations.append(f"abcast: {result.abcast_violation}")

    completed = len(cluster.recorder.records)
    expected = sum(len(w) for w in workloads)
    net_stats = cluster.network.stats.snapshot()
    chaos = None
    if plan is not None:
        abcast = cluster.abcast  # a FailoverSequencer, or None
        chaos = ChaosResult(
            plan=plan,
            crashes=list(injector.crashed),
            restarts=list(injector.restarted),
            failovers=list(abcast.failovers) if abcast else [],
            partitions=list(injector.partitioned),
            detector=detector.summary() if detector else {},
            degraded=list(abcast.degraded) if abcast else [],
            audits=audits,
            abcast_cursors=(
                {pid: abcast.cursor(pid) for pid in range(n)}
                if abcast
                else {}
            ),
        )
        net_stats["chaos"] = {
            "crashes": len(chaos.crashes),
            "restarts": len(chaos.restarts),
            "failovers": len(chaos.failovers),
            "partitions": len(chaos.partitions),
            "degraded": len(chaos.degraded),
            "audits": len(audits),
            "completed": completed,
            "expected": expected,
            "duration": cluster.sim.now,
        }
        if monitor is not None and spec.verify.window is not None:
            net_stats["chaos"]["window_refusals"] = monitor.window_refusals
            net_stats["chaos"]["window_epochs"] = monitor.epochs
        if detector is not None:
            net_stats["detector"] = chaos.detector
    artifact = RunArtifact(
        spec=spec,
        protocol=proto.name,
        condition=spec.verify.condition or proto.condition,
        n=n,
        objects=objects,
        completed=completed,
        expected=expected,
        duration=cluster.sim.now,
        **_encoded(result),
        verdicts=verdicts,
        violations=violations,
        failure=failure,
        net_stats=net_stats,
        # A fault run's tallies are metrics whether or not a registry
        # was asked for.
        metrics=dict(net_stats) if plan is not None else None,
        result=result,
        chaos=chaos,
    )
    cluster.close()
    return artifact
