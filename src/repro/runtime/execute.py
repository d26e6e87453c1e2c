"""``execute(spec) -> RunArtifact`` — the one run pipeline.

Every surface that runs a protocol (the ``demo``/``trace``/``run``
CLI commands, the chaos harness's spec form, the exploration driver
and the benchmark report) goes through this module: resolve the
protocol and workload from the registry, build the cluster, arm the
fault plan if the spec carries one, install tracing/metrics when
asked, run, verify per the spec's :class:`~repro.runtime.spec
.VerifyPolicy` (taking the Theorem-7 fast path with a static
:class:`~repro.analysis.static.prover.ConstraintCertificate` whenever
the prover certifies the workload), and return one serializable
:class:`RunArtifact`.

Imports of the protocol/sim layers happen inside :func:`execute` —
this module is re-exported from :mod:`repro.runtime`, which protocol
modules import at load time for registration; resolving at call time
keeps the package import graph acyclic (same pattern as
``repro.sim.chaos``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.serialize import canonical_json, history_to_dict
from repro.errors import ReproError
from repro.runtime.registry import (
    ProtocolSpec,
    WorkloadSpec,
    get_workload,
    resolve_protocol,
)
from repro.runtime.spec import InvalidSpecError, RunSpec

__all__ = ["FaultPolicyError", "RunArtifact", "execute", "history_hash"]


class FaultPolicyError(ReproError):
    """The spec asks for faults on a protocol without recovery support."""


def history_hash(history, text: Optional[str] = None) -> str:
    """SHA-256 of a history's canonical JSON (determinism guard).

    ``text`` is that JSON when the caller has already encoded it.
    """
    if text is None:
        text = canonical_json(history_to_dict(history))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encoded(result) -> Dict[str, Any]:
    """A finished run's one encoding pass, as ``RunArtifact`` fields."""
    if result is None:
        return {"history_json": None, "history_hash": ""}
    text = canonical_json(history_to_dict(result.history))
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
class RunArtifact:
    """Everything one executed :class:`RunSpec` produced.

    The artifact is JSON-serializable (:meth:`to_dict` / :meth:`save`);
    the two live handles (``result``, ``chaos``) are carried for
    in-process callers — the benchmark report reads ``result``, the
    chaos CLI reads ``chaos`` — and are summarized, not embedded, in
    the JSON form.

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
    #: chaos verdict components (empty outside fault runs).
    violations: List[str] = field(default_factory=list)
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


def _build_workloads(
    workload: WorkloadSpec, n: int, objects: Tuple[str, ...], spec: RunSpec
):
    return workload.builder(n, objects, spec.ops, spec.seed + 1)


def _static_certificate(proto: ProtocolSpec, workloads, result):
    """Ask the prover for a workload certificate; None when it refuses."""
    from repro.analysis.static.prover import (
        CertificationRefused,
        certify_workloads,
    )

    protocol = (
        proto.name if proto.capabilities.certificate_eligible else None
    )
    try:
        cert = certify_workloads(workloads, protocol=protocol)
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
    from repro.core import check_condition, check_m_causal_consistency

    policy = spec.verify
    if not policy.enabled:
        return []
    condition = policy.condition or proto.condition
    if condition is None:
        # Baselines/controls guarantee nothing — nothing to check.
        return []
    if condition == "m-causal":
        verdict = check_m_causal_consistency(result.history)
        return [
            VerdictRecord(
                condition="m-causal",
                holds=verdict.holds,
                method="causal",
            )
        ]
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
    workload = get_workload(spec.workload)
    n, objects = workload.shape(spec.n, spec.objects)
    options = _check_options(spec, proto)
    options.update(overrides)

    tracer = Tracer() if spec.tracing else None
    registry = MetricsRegistry() if spec.metrics else None
    if tracer is not None:
        install_tracer(tracer)
    if registry is not None:
        install_metrics(registry)
    try:
        if spec.faults is not None:
            artifact = _execute_faulty(
                spec, proto, workload, n, objects, options
            )
        else:
            artifact = _execute_clean(
                spec, proto, workload, n, objects, options
            )
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


def _execute_clean(
    spec: RunSpec,
    proto: ProtocolSpec,
    workload: WorkloadSpec,
    n: int,
    objects: Tuple[str, ...],
    options: Dict[str, Any],
) -> RunArtifact:
    cluster = proto.factory(
        n,
        objects,
        seed=spec.seed,
        latency=spec.latency.build(),
        **options,
    )
    workloads = _build_workloads(workload, n, objects, spec)
    expected = sum(len(w) for w in workloads)
    result = cluster.run(
        workloads, max_events=spec.max_events, settle=spec.settle
    )
    verdicts = _verify(spec, proto, workloads, result)
    violations = []
    if result.abcast_violation is not None:
        violations.append(f"abcast: {result.abcast_violation}")
    return RunArtifact(
        spec=spec,
        protocol=proto.name,
        condition=spec.verify.condition or proto.condition,
        n=n,
        objects=objects,
        completed=len(result.recorder.records),
        expected=expected,
        duration=result.duration,
        **_encoded(result),
        verdicts=verdicts,
        violations=violations,
        net_stats=result.net_stats.snapshot(),
        result=result,
    )


def _execute_faulty(
    spec: RunSpec,
    proto: ProtocolSpec,
    workload: WorkloadSpec,
    n: int,
    objects: Tuple[str, ...],
    options: Dict[str, Any],
) -> RunArtifact:
    from repro.sim.chaos import run_chaos

    faults = spec.faults
    # Eligibility follows the plan, not a blanket flag: crash events
    # need crash tolerance, partition events need partition tolerance.
    # With an explicit plan the requirements are read off it; a seeded
    # draw is a crash plan unless ``partition`` selects the partition
    # generator.
    plan = faults.plan
    needs_crash = plan.crashes if plan is not None else not faults.partition
    needs_partition = (
        bool(plan.partitions) if plan is not None else faults.partition
    )
    if needs_crash and not proto.capabilities.crash_tolerant:
        raise FaultPolicyError(
            f"protocol {proto.name!r} has no crash-recovery support; "
            "crash plans require a crash-tolerant protocol (see "
            "repro.runtime.crash_tolerant_protocols())"
        )
    if needs_partition and not proto.capabilities.partition_tolerant:
        raise FaultPolicyError(
            f"protocol {proto.name!r} has no partition-tolerance "
            "support; partition plans require the partition_tolerant "
            "capability (see repro.runtime.partition_tolerant_protocols())"
        )
    workloads = _build_workloads(workload, n, objects, spec)
    chaos = run_chaos(
        proto.name,
        faults.seed,
        n=n,
        objects=objects,
        ops_per_process=spec.ops,
        recovery=faults.recovery,
        recover=faults.recover,
        plan=faults.plan,
        partition=faults.partition,
        quorum_aware=faults.quorum_aware,
        degraded=faults.degraded,
        detector_period=faults.detector_period,
        detector_timeout=faults.detector_timeout,
        horizon=faults.horizon,
        failover_delay=faults.failover_delay,
        max_events=spec.max_events,
        workloads=workloads,
        latency=spec.latency.build(),
        cluster_seed=spec.seed,
        ack_timeout=faults.ack_timeout,
        retry_backoff=faults.retry_backoff,
        retry_jitter=faults.retry_jitter,
        max_retries=faults.max_retries,
        verify_window=spec.verify.window,
        **options,
    )
    result = chaos.result
    verdicts: List[VerdictRecord] = []
    if result is not None and spec.verify.enabled:
        verdicts = _verify(spec, proto, workloads, result)
    violations = list(chaos.violations)
    if chaos.abcast_violation is not None:
        violations.append(f"abcast: {chaos.abcast_violation}")
    return RunArtifact(
        spec=spec,
        protocol=proto.name,
        condition=spec.verify.condition or proto.condition,
        n=n,
        objects=objects,
        completed=chaos.completed,
        expected=chaos.expected,
        duration=chaos.duration,
        **_encoded(result),
        verdicts=verdicts,
        violations=violations,
        failure=chaos.failure,
        net_stats=dict(chaos.metrics),
        metrics=dict(chaos.metrics),
        result=result,
        chaos=chaos,
    )
