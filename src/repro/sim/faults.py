"""Deterministic fault schedules for robustness testing (S30).

A :class:`FaultPlan` is a seeded, fully deterministic description of
the faults injected into one protocol run: probabilistic message drops
and duplicates, latency spikes, timed process crashes with optional
restarts, and timed **network partitions** (link cuts with scheduled
heals).  The plan is *data* — it can be printed, stored and replayed
(``python -m repro chaos --fault-seed N`` rebuilds the exact
schedule) — and :class:`FaultInjector` is the small piece of machinery
that arms it against a live cluster.

Plan invariants are validated at construction: overlapping per-process
crash windows, negative times/durations, out-of-range probabilities
and malformed link lists raise :class:`~repro.errors.SimulationError`
immediately, with a message naming the offending event.  (Pids are
range-checked against the actual cluster size at *install* time — the
plan itself does not know ``n``.)

Each knob relaxes one assumption of the paper's Section-5 model; see
``docs/fault_model.md`` for the mapping and the recovery semantics the
protocols implement to survive the relaxation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.errors import SimulationError

__all__ = [
    "CrashEvent",
    "DelaySpike",
    "FaultInjector",
    "FaultPlan",
    "HealEvent",
    "PartitionEvent",
]


@dataclass(frozen=True)
class CrashEvent:
    """One timed process crash.

    Attributes:
        pid: the process to crash.
        at: virtual time of the crash.
        restart_after: downtime before the process restarts and runs
            recovery; ``None`` means the crash is permanent.
    """

    pid: int
    at: float
    restart_after: Optional[float]


@dataclass(frozen=True)
class DelaySpike:
    """A temporary network-wide latency multiplier (congestion)."""

    at: float
    duration: float
    factor: float


@dataclass(frozen=True)
class PartitionEvent:
    """One timed set of link cuts (a partition window).

    Attributes:
        at: virtual time the links are cut.
        links: the ``(a, b)`` pid pairs to sever.
        symmetric: cut both directions of each pair (default); False
            gives asymmetric cuts (``a`` cannot reach ``b`` but ``b``
            still reaches ``a``).
        duration: downtime before the same links heal automatically;
            ``None`` means the cut lasts until a matching
            :class:`HealEvent` (or forever).
    """

    at: float
    links: Tuple[Tuple[int, int], ...]
    symmetric: bool = True
    duration: Optional[float] = None

    @classmethod
    def split(
        cls,
        at: float,
        groups: Sequence[Sequence[int]],
        *,
        duration: Optional[float] = None,
    ) -> "PartitionEvent":
        """Cut every link between distinct groups (a clean split)."""
        links = []
        groups = [tuple(g) for g in groups]
        for i, left in enumerate(groups):
            for right in groups[i + 1:]:
                for a in left:
                    for b in right:
                        links.append((a, b))
        return cls(at=at, links=tuple(links), duration=duration)


@dataclass(frozen=True)
class HealEvent:
    """One timed link heal.

    Attributes:
        at: virtual time of the heal.
        links: the pid pairs to restore; ``None`` heals every cut
            link in the network.
        symmetric: heal both directions of each pair (default).
    """

    at: float
    links: Optional[Tuple[Tuple[int, int], ...]] = None
    symmetric: bool = True


def _check_links(links, *, owner: str) -> None:
    for link in links:
        if len(link) != 2:
            raise SimulationError(
                f"{owner}: link {link!r} is not an (a, b) pid pair"
            )
        a, b = link
        if not (isinstance(a, int) and isinstance(b, int)):
            raise SimulationError(
                f"{owner}: link {link!r} has non-integer pids"
            )
        if a < 0 or b < 0:
            raise SimulationError(
                f"{owner}: link {link!r} has negative pids"
            )
        if a == b:
            raise SimulationError(
                f"{owner}: link {link!r} cuts a self-loop"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one run.

    Attributes:
        seed: the seed the plan was derived from (kept for reporting).
        drop_prob: per-physical-frame drop probability.
        dup_prob: per-physical-frame duplication probability.
        crashes: timed crash(/restart) events, non-overlapping.
        spikes: timed latency spikes.
        partitions: timed link-cut windows.
        heals: timed link heals (for cuts without a ``duration``).
    """

    seed: int = 0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    crashes: Tuple[CrashEvent, ...] = ()
    spikes: Tuple[DelaySpike, ...] = ()
    partitions: Tuple[PartitionEvent, ...] = ()
    heals: Tuple[HealEvent, ...] = ()

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        for prob, name in (
            (self.drop_prob, "drop_prob"),
            (self.dup_prob, "dup_prob"),
        ):
            if not 0.0 <= prob <= 1.0:
                raise SimulationError(
                    f"{name}={prob} outside the probability range [0, 1]"
                )
        windows: dict = {}
        for crash in self.crashes:
            if crash.at < 0:
                raise SimulationError(
                    f"crash of P{crash.pid} scheduled at negative time "
                    f"{crash.at}"
                )
            if crash.restart_after is not None and crash.restart_after <= 0:
                raise SimulationError(
                    f"crash of P{crash.pid} at {crash.at} has "
                    f"non-positive restart_after={crash.restart_after}"
                )
            windows.setdefault(crash.pid, []).append(
                (
                    crash.at,
                    (
                        crash.at + crash.restart_after
                        if crash.restart_after is not None
                        else float("inf")
                    ),
                )
            )
        for pid, spans in windows.items():
            spans.sort()
            for (_start1, end1), (start2, _end2) in zip(spans, spans[1:]):
                if start2 < end1:
                    raise SimulationError(
                        f"overlapping crash windows for P{pid}: one "
                        f"window still open at {end1:g} when the next "
                        f"starts at {start2:g}"
                    )
        for spike in self.spikes:
            if spike.at < 0 or spike.duration <= 0 or spike.factor <= 0:
                raise SimulationError(
                    f"malformed delay spike {spike!r}: needs at >= 0, "
                    "duration > 0 and factor > 0"
                )
        for event in self.partitions:
            owner = f"partition at {event.at:g}"
            if event.at < 0:
                raise SimulationError(
                    f"{owner}: scheduled at negative time"
                )
            if event.duration is not None and event.duration <= 0:
                raise SimulationError(
                    f"{owner}: non-positive duration {event.duration}"
                )
            if not event.links:
                raise SimulationError(f"{owner}: cuts no links")
            _check_links(event.links, owner=owner)
        for heal in self.heals:
            owner = f"heal at {heal.at:g}"
            if heal.at < 0:
                raise SimulationError(f"{owner}: scheduled at negative time")
            if heal.links is not None:
                _check_links(heal.links, owner=owner)

    def max_pid(self) -> int:
        """Largest pid any event references (-1 when none do)."""
        pids = [c.pid for c in self.crashes]
        for event in self.partitions:
            pids.extend(pid for link in event.links for pid in link)
        for heal in self.heals:
            if heal.links is not None:
                pids.extend(pid for link in heal.links for pid in link)
        return max(pids, default=-1)

    @classmethod
    def random(
        cls,
        seed: int,
        n: int,
        *,
        sequencer: int = 0,
        horizon: float = 30.0,
        max_drop: float = 0.2,
        max_dup: float = 0.1,
        extra_crashes: int = 1,
        max_spikes: int = 2,
    ) -> "FaultPlan":
        """Draw a randomized plan with the chaos-harness guarantees.

        Every generated plan has drops (up to ``max_drop``), at least
        one crash-restart, and at least one **sequencer**
        crash-restart (forcing a failover).  Crash windows are
        serialized — one process down at a time — so a live successor
        always exists for election.
        """
        if n < 2:
            raise SimulationError("fault plans need at least two processes")
        rng = random.Random(seed)
        drop = rng.uniform(0.02, max_drop)
        dup = rng.uniform(0.0, max_dup)

        crashes = []
        cursor = rng.uniform(0.05, 0.25) * horizon
        victims = [sequencer]  # the mandated sequencer failover
        for _ in range(rng.randint(0, extra_crashes)):
            victims.append(rng.randrange(n))
        rng.shuffle(victims)
        for pid in victims:
            downtime = rng.uniform(0.1, 0.3) * horizon
            crashes.append(
                CrashEvent(pid=pid, at=cursor, restart_after=downtime)
            )
            # Leave a gap after the restart before the next crash, so
            # windows never overlap and recovery gets breathing room.
            cursor += downtime + rng.uniform(0.1, 0.3) * horizon

        spikes = tuple(
            DelaySpike(
                at=rng.uniform(0.0, horizon),
                duration=rng.uniform(0.05, 0.2) * horizon,
                factor=rng.uniform(2.0, 6.0),
            )
            for _ in range(rng.randint(0, max_spikes))
        )
        return cls(
            seed=seed,
            drop_prob=drop,
            dup_prob=dup,
            crashes=tuple(crashes),
            spikes=spikes,
        )

    @classmethod
    def random_partition(
        cls,
        seed: int,
        n: int,
        *,
        sequencer: int = 0,
        horizon: float = 40.0,
        max_drop: float = 0.1,
        max_dup: float = 0.05,
    ) -> "FaultPlan":
        """Draw a randomized plan centered on one network partition.

        Every generated plan splits the cluster into a majority and a
        minority for a window comfortably inside ``horizon`` (the
        split always heals, so queued traffic gets flushed and the run
        can complete), on top of mild background drops/duplicates.
        Roughly half the seeds put the *sequencer* in the minority,
        exercising quorum-side failover plus post-heal reconciliation
        of the fenced minority; the rest leave it in the majority,
        exercising minority-side degradation alone.  No crashes: the
        partition is the fault under test.
        """
        if n < 3:
            raise SimulationError(
                "partition plans need at least three processes (a "
                "strict majority must exist on one side)"
            )
        rng = random.Random(f"partition-{seed}")
        drop = rng.uniform(0.0, max_drop)
        dup = rng.uniform(0.0, max_dup)
        minority_size = rng.randint(1, (n - 1) // 2)
        pids = list(range(n))
        if rng.random() < 0.5:
            rest = [pid for pid in pids if pid != sequencer]
            rng.shuffle(rest)
            minority = [sequencer] + rest[: minority_size - 1]
        else:
            rest = [pid for pid in pids if pid != sequencer]
            rng.shuffle(rest)
            minority = rest[:minority_size]
        minority = sorted(minority)
        majority = sorted(set(pids) - set(minority))
        start = rng.uniform(0.15, 0.35) * horizon
        duration = rng.uniform(0.25, 0.4) * horizon
        split = PartitionEvent.split(
            at=start, groups=(minority, majority), duration=duration
        )
        return cls(
            seed=seed,
            drop_prob=drop,
            dup_prob=dup,
            partitions=(split,),
        )

    def without_restarts(self) -> "FaultPlan":
        """The negative-control form: every crash becomes permanent.

        Only each pid's first crash is kept — a restartless window
        extends to the end of the run, so a second crash of the same
        pid could never fire (and would trip the overlap validation).
        """
        first: dict = {}
        for crash in sorted(self.crashes, key=lambda c: c.at):
            first.setdefault(
                crash.pid, replace(crash, restart_after=None)
            )
        return replace(self, crashes=tuple(first.values()))

    def describe(self) -> str:
        """One-line human-readable summary (for failure reports)."""
        crashes = ", ".join(
            f"P{c.pid}@{c.at:.1f}"
            + (f"+{c.restart_after:.1f}" if c.restart_after else " (forever)")
            for c in self.crashes
        )
        partitions = ", ".join(
            f"{len(p.links)}links@{p.at:.1f}"
            + (f"+{p.duration:.1f}" if p.duration else " (until heal)")
            for p in self.partitions
        )
        return (
            f"plan(seed={self.seed}, drop={self.drop_prob:.3f}, "
            f"dup={self.dup_prob:.3f}, crashes=[{crashes}], "
            f"partitions=[{partitions}], spikes={len(self.spikes)})"
        )


class FaultInjector:
    """Arms a :class:`FaultPlan` against a cluster before its run.

    Usage::

        cluster = msc_cluster(..., fault_tolerant=True, ...)
        FaultInjector(plan).install(cluster)
        result = cluster.run(workloads)

    Installation sets the network's drop/duplicate probabilities and
    schedules the crash, restart and latency-spike events on the
    cluster's simulator; everything after that happens inside the
    normal event loop.
    """

    def __init__(self, plan: FaultPlan, *, on_event=None) -> None:
        self.plan = plan
        #: (time, pid) pairs of crashes/restarts actually executed.
        self.crashed: list = []
        self.restarted: list = []
        #: (time, kind, link-count) tuples of executed cut/heal events.
        self.partitioned: list = []
        #: optional ``fn(kind, pid, now)`` called after each executed
        #: crash ("crash") / restart ("restart") / partition
        #: ("partition") / heal ("heal") — the run pipeline hooks
        #: incremental consistency audits here (pid is -1 for the
        #: link-level events).
        self.on_event = on_event

    def install(self, cluster) -> "FaultInjector":
        network = cluster.network
        top = self.plan.max_pid()
        if top >= network.n:
            raise SimulationError(
                f"fault plan references pid {top} but the network has "
                f"endpoints 0..{network.n - 1}"
            )
        network.drop_prob = self.plan.drop_prob
        network.dup_prob = self.plan.dup_prob
        sim = cluster.sim
        for crash in self.plan.crashes:
            sim.schedule(crash.at, self._crash, cluster, crash)
        for spike in self.plan.spikes:
            sim.schedule(spike.at, self._spike_on, network, spike)
            sim.schedule(
                spike.at + spike.duration, self._spike_off, network, spike
            )
        for event in self.plan.partitions:
            sim.schedule(event.at, self._partition_on, cluster, event)
            if event.duration is not None:
                heal_at = event.at + event.duration
                sim.schedule(heal_at, self._partition_off, cluster, event)
        for heal in self.plan.heals:
            sim.schedule(heal.at, self._heal, cluster, heal)
        return self

    # ------------------------------------------------------------------
    # Event bodies
    # ------------------------------------------------------------------

    def _crash(self, cluster, crash: CrashEvent) -> None:
        if cluster.network.is_down(crash.pid):  # pragma: no cover
            return  # overlapping hand-written plans: skip quietly
        cluster.crash_process(crash.pid)
        self.crashed.append((cluster.sim.now, crash.pid))
        if self.on_event is not None:
            self.on_event("crash", crash.pid, cluster.sim.now)
        if crash.restart_after is not None:
            cluster.sim.schedule(
                crash.restart_after, self._restart, cluster, crash.pid
            )

    def _restart(self, cluster, pid: int) -> None:
        cluster.restart_process(pid)
        self.restarted.append((cluster.sim.now, pid))
        if self.on_event is not None:
            self.on_event("restart", pid, cluster.sim.now)

    def _spike_on(self, network, spike: DelaySpike) -> None:
        network.delay_factor *= spike.factor

    def _spike_off(self, network, spike: DelaySpike) -> None:
        network.delay_factor /= spike.factor

    def _partition_on(self, cluster, event: PartitionEvent) -> None:
        for a, b in event.links:
            cluster.network.cut_link(a, b, symmetric=event.symmetric)
        self.partitioned.append(
            (cluster.sim.now, "partition", len(event.links))
        )
        if self.on_event is not None:
            self.on_event("partition", -1, cluster.sim.now)

    def _partition_off(self, cluster, event: PartitionEvent) -> None:
        for a, b in event.links:
            cluster.network.heal_link(a, b, symmetric=event.symmetric)
        self.partitioned.append((cluster.sim.now, "heal", len(event.links)))
        if self.on_event is not None:
            self.on_event("heal", -1, cluster.sim.now)

    def _heal(self, cluster, heal: HealEvent) -> None:
        if heal.links is None:
            healed = len(cluster.network.cut_links)
            cluster.network.heal_all()
        else:
            healed = len(heal.links)
            for a, b in heal.links:
                cluster.network.heal_link(a, b, symmetric=heal.symmetric)
        self.partitioned.append((cluster.sim.now, "heal", healed))
        if self.on_event is not None:
            self.on_event("heal", -1, cluster.sim.now)
