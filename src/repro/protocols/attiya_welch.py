"""The Attiya-Welch-style linearizable DSM (comparison baseline).

Section 1: "Attiya and Welch provide sequentially consistent and
linearizable implementations ... But their implementation for
linearizability assumes that clocks are perfectly synchronized and
there is an upper bound on the delay of the message.  ...  More
importantly, we provide an algorithm for implementation of
m-linearizability in an asynchronous distributed system which does
not make any assumptions about clock synchronization or the message
delay."

To measure that contrast rather than assert it, this module implements
the clock-based design the paper is comparing against, generalised to
m-operations:

* perfectly synchronized clocks — granted for free by the simulator
  (every process reads the same virtual ``now``);
* an assumed message-delay upper bound ``delta``;
* an **update** invoked at time ``T`` is multicast with timestamp
  ``T`` and takes effect at every replica at exactly ``T + delta``
  (ties broken by ``(T, pid, uid)``); the issuer responds at
  ``T + delta``;
* a **query** executes on the local replica immediately — *zero*
  latency, the headline advantage clock assumptions buy (the Fig-6
  protocol pays a full gather round trip for the same guarantee).

When every message really arrives within ``delta``, all replicas
apply every update at the same instant inside its invocation/response
window, and executions are m-linearizable.  When the network violates
the bound — a heavy-tailed latency model, or simply a too-optimistic
``delta`` — late updates are applied on arrival, replicas transiently
diverge, and m-linearizability (and even m-sequential consistency)
breaks: the run result counts ``late_applies`` and the checkers catch
the violations.  The Fig-6 protocol on identical networks keeps its
guarantee (experiment AW).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.errors import ProtocolError
from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.protocols.store import MProgram
from repro.runtime.registry import ProtocolSpec, register_protocol
from repro.sim.network import Message

UPDATE = "aw-update"

#: Total order on updates: (send time, sender pid, uid).
Stamp = Tuple[float, int, int]


class AWProcess(BaseProcess):
    """One replica of the clock-based protocol."""

    def __init__(self, pid: int, cluster: "AWCluster") -> None:
        super().__init__(pid, cluster)
        # Updates waiting for their effect time, as a heap of
        # (stamp, program, uid).
        self._pending_updates: List[Tuple[Stamp, MProgram]] = []
        #: updates that arrived after their scheduled effect time.
        self.late_applies = 0

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def on_invoke(self, pending: PendingOp) -> None:
        cluster: "AWCluster" = self.cluster  # type: ignore[assignment]
        if not pending.program.may_write:
            record = self.store.execute(pending.program, pending.uid)
            self.respond(pending, record)
            return
        now = cluster.sim.now
        stamp: Stamp = (now, self.pid, pending.uid)
        # Enqueue the local copy before the broadcast: once the
        # update is on the wire a peer may act on it, so this
        # process's own state must already reflect it (mutate, then
        # send; in the cooperative kernel the two orders are
        # equivalent, but only this one survives a preemptive
        # scheduler).
        self._enqueue(stamp, pending.program)
        cluster.network.send_to_all(
            self.pid,
            Message(
                UPDATE,
                {"stamp": stamp, "program": pending.program},
            ),
            include_self=False,
        )
        # Respond exactly at the effect time T + delta.
        delay = cluster.delta
        cluster.sim.schedule(
            delay, lambda: self._respond_update(pending)
        )

    def _respond_update(self, pending: PendingOp) -> None:
        # The local apply fires at the same instant (scheduled by
        # _enqueue); simulator FIFO ties guarantee it ran first, so
        # the record is ready.
        record = pending.extra.get("record")
        if record is None:  # pragma: no cover - scheduling invariant
            raise ProtocolError(
                f"P{self.pid}: update {pending.uid} response fired "
                "before its local apply"
            )
        self.respond(pending, record)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message: Message) -> None:
        if message.kind != UPDATE:
            super().handle_message(src, message)
            return
        stamp: Stamp = tuple(message.payload["stamp"])  # type: ignore
        self._enqueue(stamp, message.payload["program"])

    def _enqueue(self, stamp: Stamp, program: MProgram) -> None:
        cluster: "AWCluster" = self.cluster  # type: ignore[assignment]
        heapq.heappush(self._pending_updates, (stamp, program))
        effect_time = stamp[0] + cluster.delta
        if cluster.sim.now >= effect_time:
            # The delay-bound assumption was violated: apply on
            # arrival (best effort) and record the breach.
            self.late_applies += 1
            self._apply_due(cluster.sim.now)
        else:
            cluster.sim.schedule(
                effect_time - cluster.sim.now,
                lambda: self._apply_due(effect_time),
            )

    def _apply_due(self, up_to: float) -> None:
        cluster: "AWCluster" = self.cluster  # type: ignore[assignment]
        while (
            self._pending_updates
            and self._pending_updates[0][0][0] + cluster.delta <= up_to
        ):
            stamp, program = heapq.heappop(self._pending_updates)
            _t, sender, uid = stamp
            if sender == self.pid and self._pending is not None and (
                self._pending.uid == uid
            ):
                self._pending.extra["record"] = self.store.execute(
                    program, uid
                )
            else:
                self.store.apply(program, uid)

    def on_abcast_deliver(self, sender: int, payload: Any) -> None:
        raise ProtocolError(
            "the Attiya-Welch baseline does not use the abcast layer"
        )


class AWCluster(Cluster):
    """A cluster running the clock-based protocol with bound ``delta``."""

    def __init__(self, *args, delta: float = 2.0, **kwargs):
        kwargs.setdefault("process_class", AWProcess)
        super().__init__(*args, **kwargs)
        if delta <= 0:
            raise ProtocolError("delta must be positive")
        self.delta = delta

    def total_late_applies(self) -> int:
        """Delay-bound violations observed across all replicas."""
        return sum(
            proc.late_applies
            for proc in self.processes
            if isinstance(proc, AWProcess)
        )


def aw_cluster(n: int, objects, *, delta: float = 2.0, **kwargs) -> AWCluster:
    """Build an Attiya-Welch-style cluster.

    Args:
        n: number of replicas.
        objects: shared object names.
        delta: the assumed message-delay upper bound.  Correctness
            holds iff the latency model respects it.
        **kwargs: any :class:`~repro.protocols.base.Cluster` keyword.
    """
    return make_cluster(
        AWProcess,
        n,
        objects,
        cluster_class=AWCluster,
        uses_abcast=False,
        delta=delta,
        **kwargs,
    )


register_protocol(
    ProtocolSpec(
        name="aw",
        factory=aw_cluster,
        condition="m-sc",
        summary="Attiya-Welch clocks: fast writes, delta-delayed applies",
        uses_abcast=False,
        options=("delta",),
    )
)
