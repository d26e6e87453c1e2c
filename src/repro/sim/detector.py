"""Deterministic heartbeat failure detection (◇P-style).

The paper's Section-5 model has no failure detector — processes are
assumed connected and correct.  The robustness subsystem relaxes
both assumptions (crashes in :mod:`repro.sim.faults`, link cuts in
:mod:`repro.sim.network`), and a protocol that wants to *react* to a
partition needs a way to learn about it that does not peek at the
simulator's ground truth.  :class:`HeartbeatDetector` is that
mechanism: every process periodically multicasts an unreliable
heartbeat, every observer tracks the last heartbeat heard from each
peer, and silence past an adaptive per-pair timeout raises a
**suspect** event.  A late heartbeat from a suspected peer raises a
**trust** event and *widens* that pair's timeout — the eventually
perfect (◇P) accuracy adaptation: any finite number of false
suspicions is tolerated, and after the last one the detector stops
making mistakes about that pair.

Everything is deterministic: heartbeat phases are staggered by pid,
timers run on the simulator's virtual clock, and no RNG is consumed,
so a seeded run produces the same suspect/trust history every time.

Events are emitted through the tracer (``detector.suspect`` /
``detector.trust``), counted in the owning network's metrics registry
(``detector.*``), appended to :attr:`HeartbeatDetector.events`, and
forwarded to an optional ``on_change`` callback — the fault-tolerant
sequencer hooks its partition failover there.

Ground truth is consulted *only* for accounting: a suspicion is
recorded as *false* when the target was up and the target->observer
link uncut at the moment of suspicion (the silence was just latency).
The false-suspect rate feeds ``BENCH_chaos.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.obs import get_tracer
from repro.sim.network import Message, Network

__all__ = ["DetectorEvent", "HeartbeatDetector", "HEARTBEAT_KIND"]

#: Message kind of heartbeat frames (the detector claims it on its
#: network, so they never reach an endpoint's handler).
HEARTBEAT_KIND = "hb"

#: Signature of the change callback: (kind, observer, target, now).
ChangeHook = Callable[[str, int, int, float], None]


@dataclass(frozen=True)
class DetectorEvent:
    """One suspect/trust transition at one observer.

    Attributes:
        at: virtual time of the transition.
        observer: the pid whose view changed.
        target: the pid being (un)suspected.
        kind: ``"suspect"`` or ``"trust"``.
        false: for suspects, True when the target was actually up and
            reachable (a detector mistake); always False for trusts.
    """

    at: float
    observer: int
    target: int
    kind: str
    false: bool = False


class HeartbeatDetector:
    """A per-process heartbeat failure detector over one network.

    Args:
        network: the network whose endpoints are monitored (heartbeats
            are sent unreliable over it, so cuts and crashes silence
            them naturally).
        period: heartbeat (and check) interval in virtual time.
        timeout: initial per-pair silence threshold before suspicion;
            must exceed ``period`` or every pair is suspected
            immediately.
        adapt: how much a pair's timeout grows after a false
            suspicion is corrected by a trust (the ◇P adaptation);
            0 disables adaptation.
        on_change: optional hook invoked after every suspect/trust
            transition.
        should_stop: optional predicate checked each tick; once it
            returns True the loops stop rescheduling, letting the
            event queue drain (a detector left running keeps the
            simulator alive forever).
            :meth:`repro.protocols.base.Cluster.attach_detector`
            wires this to "every workload is done".
    """

    def __init__(
        self,
        network: Network,
        *,
        period: float = 1.0,
        timeout: float = 3.5,
        adapt: float = 0.5,
        on_change: Optional[ChangeHook] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError("detector period must be positive")
        if timeout <= period:
            raise SimulationError(
                "detector timeout must exceed the heartbeat period "
                f"(timeout={timeout}, period={period})"
            )
        if adapt < 0:
            raise SimulationError("detector adapt must be non-negative")
        self.network = network
        self.sim = network.sim
        self.n = network.n
        self.period = period
        self.adapt = adapt
        self.on_change = on_change
        self.should_stop = should_stop
        self._stopped = False
        #: (observer, target) -> current silence threshold.
        self._timeout: Dict[Tuple[int, int], float] = {
            (obs, t): timeout
            for obs in range(self.n)
            for t in range(self.n)
            if obs != t
        }
        #: (observer, target) -> virtual time of last heartbeat heard.
        self._last: Dict[Tuple[int, int], float] = {}
        #: observer -> pids it currently suspects.
        self._suspects: Dict[int, Set[int]] = {
            pid: set() for pid in range(self.n)
        }
        #: observers that were down at their last tick (their view is
        #: re-primed with a fresh grace window when they come back).
        self._paused: Set[int] = set()
        self.events: List[DetectorEvent] = []
        self.suspicions = 0
        self.trusts = 0
        self.false_suspicions = 0
        self._started = False
        self._metrics = network.stats.registry
        network.bind(HEARTBEAT_KIND, self.on_heartbeat)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the per-process heartbeat/check loops (idempotent)."""
        if self._started:
            return
        self._started = True
        now = self.sim.now
        for pair in self._timeout:
            self._last[pair] = now
        for pid in range(self.n):
            # Deterministic phase stagger: no two processes beat at
            # the same instant, so tie-breaking never depends on
            # event insertion order.
            phase = self.period * (pid + 1) / (self.n + 1)
            self.sim.schedule(phase, self._tick, pid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def suspects(self, observer: int) -> Set[int]:
        """The pids ``observer`` currently suspects (a copy)."""
        return set(self._suspects[observer])

    def is_suspected(self, observer: int, target: int) -> bool:
        """True iff ``observer`` currently suspects ``target``."""
        return target in self._suspects[observer]

    def alive_count(self, observer: int) -> int:
        """How many processes ``observer`` believes are up (incl. itself)."""
        return self.n - len(self._suspects[observer])

    def summary(self) -> Dict[str, float]:
        """Accuracy counters for reports and ``BENCH_chaos.json``."""
        return {
            "suspicions": self.suspicions,
            "trusts": self.trusts,
            "false_suspicions": self.false_suspicions,
            "false_suspect_rate": (
                self.false_suspicions / self.suspicions
                if self.suspicions
                else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Heartbeat plumbing
    # ------------------------------------------------------------------

    def on_heartbeat(
        self, observer: int, src: int, beat: Optional[Message] = None
    ) -> None:
        """Record a heartbeat from ``src`` arriving at ``observer``."""
        if observer == src:
            return
        now = self.sim.now
        self._last[(observer, src)] = now
        if src in self._suspects[observer]:
            self._suspects[observer].discard(src)
            # ◇P accuracy adaptation: we were wrong about this pair
            # (or it recovered) — widen its threshold so repeated
            # mistakes die out.
            self._timeout[(observer, src)] += self.adapt
            self.trusts += 1
            self._emit("trust", observer, src, now, false=False)

    def stop(self) -> None:
        """Stop all loops at their next tick (idempotent)."""
        self._stopped = True

    def _tick(self, pid: int) -> None:
        if self._stopped or (
            self.should_stop is not None and self.should_stop()
        ):
            self._stopped = True
            return
        self.sim.schedule(self.period, self._tick, pid)
        if self.network.is_down(pid):
            self._paused.add(pid)
            return
        now = self.sim.now
        if pid in self._paused:
            # Fresh after a restart: the silence while down proves
            # nothing about the peers, so re-prime the grace window
            # and start from an all-trusting view.
            self._paused.discard(pid)
            self._suspects[pid].clear()
            for target in range(self.n):
                if target != pid:
                    self._last[(pid, target)] = now
        self.network.send_to_all(
            pid,
            Message(HEARTBEAT_KIND, pid),
            include_self=False,
            reliable=False,
        )
        for target in range(self.n):
            if target == pid or target in self._suspects[pid]:
                continue
            silence = now - self._last[(pid, target)]
            if silence > self._timeout[(pid, target)]:
                self._suspects[pid].add(target)
                false = self.network.reachable(target, pid)
                self.suspicions += 1
                if false:
                    self.false_suspicions += 1
                self._emit("suspect", pid, target, now, false=false)

    def _emit(
        self, kind: str, observer: int, target: int, now: float, *, false: bool
    ) -> None:
        self.events.append(
            DetectorEvent(
                at=now,
                observer=observer,
                target=target,
                kind=kind,
                false=false,
            )
        )
        self._metrics.counter(f"detector.{kind}").inc()
        if false:
            self._metrics.counter("detector.false_suspect").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                f"detector.{kind}",
                observer=observer,
                target=target,
                false=false,
            )
        if self.on_change is not None:
            self.on_change(kind, observer, target, now)
