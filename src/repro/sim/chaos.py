"""Chaos harness: protocol runs under randomized fault schedules (S29).

One :func:`run_chaos` call is one experiment: build a fault-tolerant
cluster (reliable-delivery network, fault-tolerant sequencer), arm a
seeded :class:`~repro.sim.faults.FaultPlan` against it, drive a random
workload to completion, and verify the recorded history with the
*same* checkers the fault-free experiments use — the streaming
verifier plus the batch constrained checker, both keyed to the
protocol's claimed condition (m-SC for Fig-4, m-linearizability for
Fig-6).

The harness's claim is therefore end-to-end: message drops,
duplicates, latency spikes, process crash-restarts and sequencer
failovers may delay m-operations but never lose one and never produce
an execution outside the protocol's consistency condition.

The *negative control* (``recover=False``) drops the restart half of
every crash: processes stay down, recovery never runs.  Those runs
demonstrably lose client operations (the run cannot complete) — the
evidence that the recovery machinery, not luck, is what makes the
positive runs sound.

Partition chaos (``partition=True``) swaps the crash schedule for a
seeded link-level partition (:meth:`FaultPlan.random_partition`): the
cluster splits into a majority and a minority side for a window, a
:class:`~repro.sim.detector.HeartbeatDetector` is armed, and the
fault-tolerant sequencer runs quorum-aware — majority-side failover
with epoch fencing, minority degradation, post-heal reconciliation.
Its negative control is ``quorum_aware=False``: the detector still
drives elections but every quorum safeguard is stripped, and the
resulting split-brain is caught by the same checkers (delivery-log
total order plus the m-sc/m-lin condition checkers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeliveryTimeout,
    PartitionedError,
    ProcessCrashed,
    ProtocolError,
    SequencerUnavailable,
    SimulationError,
)
from repro.sim.detector import HeartbeatDetector
from repro.sim.faults import CrashEvent, FaultInjector, FaultPlan
from repro.sim.latency import UniformLatency
from repro.sim.network import Network

__all__ = ["ChaosResult", "run_chaos"]


def _chaos_protocol(protocol: str, plan: FaultPlan):
    """Resolve a chaos-eligible protocol from the runtime registry.

    Imported lazily: this module is re-exported from ``repro.sim``,
    which the abcast/protocol layers themselves import — resolving
    the registry at call time keeps the package import graph acyclic.
    Eligibility follows the plan: crashes in the schedule require the
    ``crash_tolerant`` capability flag, partitions require
    ``partition_tolerant``; anything else gets a clear error naming
    the eligible set.
    """
    from repro.runtime.registry import (
        crash_tolerant_protocols,
        partition_tolerant_protocols,
        protocol_registry,
    )

    crash_ok = crash_tolerant_protocols()
    partition_ok = partition_tolerant_protocols()
    eligible = dict(crash_ok) if plan.crashes else dict(
        {**crash_ok, **partition_ok}
    )
    if plan.partitions:
        eligible = {
            name: spec
            for name, spec in eligible.items()
            if name in partition_ok
        }
    spec = eligible.get(protocol)
    if spec is not None:
        return spec
    if protocol in protocol_registry():
        missing = (
            "crash-recovery"
            if plan.crashes and protocol not in crash_ok
            else "partition-tolerance"
        )
        raise SimulationError(
            f"protocol {protocol!r} has no {missing} support; "
            f"chaos-eligible protocols for this plan: {sorted(eligible)}"
        )
    raise SimulationError(
        f"unknown chaos protocol {protocol!r}; expected one of "
        f"{sorted(eligible)}"
    )


@dataclass
class ChaosResult:
    """Outcome of one chaos run.

    ``ok`` requires *all* of: every client m-operation completed, the
    streaming replay saw no violation, the live monitor's audits
    (one per fault event, plus the end-of-run audit) saw no violation,
    the batch checker accepted the history, and the abcast delivery
    logs kept total order.
    """

    protocol: str
    plan: FaultPlan
    ok: bool
    completed: int
    expected: int
    #: exception text when the run itself failed (negative control).
    failure: Optional[str]
    violations: List[str]
    abcast_violation: Optional[str]
    crashes: List[Tuple[float, int]]
    restarts: List[Tuple[float, int]]
    failovers: List[tuple]
    duration: float
    #: ``(time, "partition"|"heal", link count)`` per topology change.
    partitions: List[Tuple[float, str, int]] = field(default_factory=list)
    #: Detector accuracy counters (``HeartbeatDetector.summary()``);
    #: empty when the plan armed no detector.
    detector: Dict[str, float] = field(default_factory=dict)
    #: Degraded-mode incidents recorded by the quorum-aware sequencer:
    #: ``(time, pid, reason, msg id|None)``.
    degraded: List[tuple] = field(default_factory=list)
    #: ``(time, event, pid, verdict)`` per incremental audit run
    #: between fault events against the live monitor (verdict None =
    #: clean so far); violations are monotone, so any non-None entry
    #: is also reflected in ``violations``.
    audits: List[Tuple[float, str, int, Optional[str]]] = field(
        default_factory=list
    )
    #: Metrics snapshot of the run: the network registry's counters /
    #: gauges plus fault-schedule tallies (see ``--metrics`` on the
    #: ``chaos`` CLI subcommand).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Live :class:`~repro.protocols.base.RunResult` handle (None when
    #: the run itself failed, e.g. the negative control); carried for
    #: the runtime layer's artifact, never serialized.
    result: Any = field(default=None, repr=False, compare=False)
    #: pid -> abcast delivery cursor when the run ended, failed runs
    #: included (the first thing to look at when one never finishes);
    #: empty without an abcast layer.  Diagnostic: never serialized.
    abcast_cursors: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def summary(self) -> str:
        """One line for assertion messages: plan plus verdict."""
        verdict = "ok" if self.ok else (
            self.failure
            or self.abcast_violation
            or (self.violations[0] if self.violations else "incomplete")
        )
        return (
            f"{self.protocol} {self.plan.describe()}: "
            f"{self.completed}/{self.expected} ops, "
            f"{len(self.failovers)} failover(s), "
            f"{len(self.partitions)} partition event(s), "
            f"{len(self.audits)} audit(s), {verdict}"
        )


def run_chaos(
    protocol: str,
    seed: int,
    *,
    n: int = 4,
    objects: Sequence[str] = ("x", "y", "z"),
    ops_per_process: int = 5,
    recovery: str = "replay",
    recover: bool = True,
    plan: Optional[FaultPlan] = None,
    partition: bool = False,
    quorum_aware: bool = True,
    degraded: str = "defer",
    detector_period: float = 1.0,
    detector_timeout: float = 3.5,
    horizon: float = 40.0,
    failover_delay: float = 4.0,
    max_events: int = 3_000_000,
    workloads: Optional[Sequence[Sequence]] = None,
    latency=None,
    cluster_seed: Optional[int] = None,
    ack_timeout: float = 4.0,
    retry_backoff: float = 2.0,
    retry_jitter: float = 0.25,
    max_retries: int = 40,
    verify_window: Optional[int] = None,
    **factory_kwargs,
) -> ChaosResult:
    """Run one protocol under one fault plan and verify the result.

    Args:
        protocol: any registry entry whose ``crash_tolerant``
            capability flag is set (``repro.runtime
            .crash_tolerant_protocols()``).
        seed: seeds the fault plan (unless ``plan`` is given) and, by
            default, the workload and the cluster's own randomness.
        n: cluster size (>= 2 so failover has a successor).
        objects: shared object names.
        ops_per_process: workload length per process.
        recovery: ``"replay"`` or ``"snapshot"`` (peer state transfer).
        recover: False = negative control; crashes become permanent
            and the run is expected to fail.
        plan: explicit fault plan; default ``FaultPlan.random(seed, n)``
            (or ``FaultPlan.random_partition`` with ``partition=True``).
        partition: generate a partition schedule instead of a crash
            schedule, and arm the heartbeat detector.
        quorum_aware: False = partition negative control; the detector
            still drives elections but the quorum safeguards (gated
            delivery, minority degradation, election abort) are
            stripped, so a split-brain is allowed to happen and the
            checkers must catch it.
        degraded: minority-side behaviour, ``"defer"`` (park requests
            until quorum returns) or ``"refuse"`` (``broadcast()``
            raises :class:`~repro.errors.PartitionedError`).
        detector_period / detector_timeout: heartbeat interval and
            initial silence threshold (armed only when the plan has
            partitions).
        horizon: virtual-time spread of the generated plan.
        failover_delay: sequencer failure-detection delay.
        max_events: simulator event budget.
        workloads: explicit per-process program lists (the runtime
            layer passes spec-built workloads); default random with
            seed ``seed``.
        latency: message-delay model (default Uniform[0.5, 1.5]).
        cluster_seed: cluster randomness seed when the fault seed
            should not double as it (default ``seed``).
        ack_timeout / retry_backoff / retry_jitter / max_retries: the
            reliable shim's retransmission schedule (all forwarded to
            the network, all replayable from a ``RunSpec``).
        verify_window: when set, the in-run audit monitor keeps only
            a ``~ww`` lookback of this many broadcast positions
            (:class:`~repro.core.monitor.LiveMonitor`'s ``window``);
            reads refused for reaching behind a sealed prefix are
            tallied in ``metrics["chaos"]["window_refusals"]``.  The
            end-of-run batch check is unbounded and authoritative
            either way.
        **factory_kwargs: extra cluster-factory keywords (protocol
            options such as ``reply_relevant_only``).
    """
    from repro.abcast.failover import FailoverSequencer
    from repro.core.monitor import LiveMonitor, verify_stream
    from repro.workloads.generator import random_workloads

    if cluster_seed is None:
        cluster_seed = seed
    if plan is None:
        plan = (
            FaultPlan.random_partition(seed, n, horizon=horizon)
            if partition
            else FaultPlan.random(seed, n, horizon=horizon)
        )
    spec = _chaos_protocol(protocol, plan)
    factory, condition = spec.factory, spec.condition
    if not recover:
        # Negative control: every crash becomes permanent.  Keep only
        # each pid's first crash — a restartless window extends to the
        # end of the run, so a second crash of the same pid could
        # never fire (and would trip the plan's overlap validation).
        first: Dict[int, CrashEvent] = {}
        for c in sorted(plan.crashes, key=lambda c: c.at):
            first.setdefault(
                c.pid, CrashEvent(pid=c.pid, at=c.at, restart_after=None)
            )
        plan = FaultPlan(
            seed=plan.seed,
            drop_prob=plan.drop_prob,
            dup_prob=plan.dup_prob,
            crashes=tuple(first.values()),
            spikes=plan.spikes,
            partitions=plan.partitions,
            heals=plan.heals,
        )

    # The in-run audits check the order every protocol here promises
    # at least, ~p ∪ ~rf ∪ ~ww; the declared condition is checked on
    # the finished run below.
    monitor = LiveMonitor("m-sc", window=verify_window)
    if spec.uses_abcast:
        # Only broadcast protocols get the fault-tolerant sequencer;
        # the others default their own abcast_factory=None and must
        # not have one forced in (``server_cluster`` et al. use
        # setdefault, which an explicit keyword would override).
        factory_kwargs["abcast_factory"] = lambda net: FailoverSequencer(
            net, failover_delay=failover_delay
        )
    cluster = factory(
        n,
        objects,
        seed=cluster_seed,
        fault_tolerant=True,
        recovery=recovery,
        monitor=monitor,
        network_factory=lambda sim, size: Network(
            sim,
            size,
            latency=latency or UniformLatency(0.5, 1.5),
            seed=seed + 1,
            reliable=True,
            ack_timeout=ack_timeout,
            backoff=retry_backoff,
            retry_jitter=retry_jitter,
            max_retries=max_retries,
        ),
        **factory_kwargs,
    )

    detector: Optional[HeartbeatDetector] = None
    if plan.partitions:
        # Partition plans need a failure detector: nothing else tells
        # a protocol the far side went silent.  The detector rides the
        # same (lossy, partitionable) network as the protocol, so its
        # view degrades honestly with the topology.
        detector = HeartbeatDetector(
            cluster.network,
            period=detector_period,
            timeout=detector_timeout,
        )
        cluster.attach_detector(detector)
        if cluster.abcast is not None:
            cluster.abcast.bind_detector(
                detector, quorum_aware=quorum_aware, degraded=degraded
            )

    # Incremental verification between fault events: the monitor
    # checks completions as they land, so an audit at a crash/restart
    # boundary is a barrier instead of a full history rebuild.
    audits: List[Tuple[float, str, int, Optional[str]]] = []

    def _audit(kind: str, pid: int, now: float) -> None:
        audits.append((now, kind, pid, monitor.audit()))

    injector = FaultInjector(plan, on_event=_audit).install(cluster)
    if workloads is None:
        workloads = random_workloads(
            n, objects, ops_per_process, seed=seed
        )
    expected = sum(len(w) for w in workloads)

    failure: Optional[str] = None
    violations: List[str] = []
    abcast_violation: Optional[str] = None
    result = None
    try:
        result = cluster.run(workloads, max_events=max_events)
    except (
        DeliveryTimeout,
        PartitionedError,
        ProcessCrashed,
        ProtocolError,
        SequencerUnavailable,
    ) as exc:
        failure = f"{type(exc).__name__}: {exc}"

    completed = len(cluster.recorder.records)
    for _t, _kind, _pid, audit_verdict in audits:
        if audit_verdict is not None:
            violations.append(f"incremental audit: {audit_verdict}")
    if result is not None:
        final_audit = monitor.audit()
        audits.append((cluster.sim.now, "final", -1, final_audit))
        if final_audit is not None:
            violations.append(f"incremental audit (final): {final_audit}")
        abcast_violation = result.abcast_violation
        if condition is not None:
            verifier = verify_stream(result, condition=condition)
            violations.extend(str(v) for v in verifier.violations)
            from repro.core.consistency import check_condition

            verdict = check_condition(
                result.history,
                condition,
                extra_pairs=result.ww_pairs(),
            )
            if not verdict.holds:
                violations.append(
                    f"batch {condition} checker rejected the run"
                )

    ok = (
        failure is None
        and abcast_violation is None
        and not violations
        and completed == expected
    )
    abcast = cluster.abcast  # a FailoverSequencer, or None
    degraded_log = list(abcast.degraded) if abcast else []
    failovers = list(abcast.failovers) if abcast else []
    metrics = cluster.network.stats.snapshot()
    metrics["chaos"] = {
        "crashes": len(injector.crashed),
        "restarts": len(injector.restarted),
        "failovers": len(failovers),
        "partitions": len(injector.partitioned),
        "degraded": len(degraded_log),
        "audits": len(audits),
        "completed": completed,
        "expected": expected,
        "duration": cluster.sim.now,
    }
    if verify_window is not None:
        metrics["chaos"]["window_refusals"] = monitor.window_refusals
        metrics["chaos"]["window_epochs"] = monitor.epochs
    if detector is not None:
        metrics["detector"] = detector.summary()
    return ChaosResult(
        protocol=protocol,
        plan=plan,
        ok=ok,
        completed=completed,
        expected=expected,
        failure=failure,
        violations=violations,
        abcast_violation=abcast_violation,
        crashes=list(injector.crashed),
        restarts=list(injector.restarted),
        failovers=failovers,
        duration=cluster.sim.now,
        partitions=list(injector.partitioned),
        detector=detector.summary() if detector is not None else {},
        degraded=degraded_log,
        audits=audits,
        metrics=metrics,
        result=result,
        abcast_cursors=(
            {pid: abcast.cursor(pid) for pid in range(n)} if abcast else {}
        ),
    )
