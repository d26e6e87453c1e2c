"""The Figure-4 protocol: m-sequential consistency (Section 5.1).

Three actions, each local and atomic:

* **(A1)** On invocation of an m-operation that potentially writes
  (``may_write``), atomically broadcast it to all processes.
* **(A2)** On delivery of an atomic broadcast, apply the m-operation
  to the local copy (bumping ``ts[x]`` for every written ``x``); if
  this process issued it, generate the response.
* **(A3)** On invocation of a query m-operation, apply it to the
  local copy immediately and respond.

Theorem 15 proves every execution of this protocol m-sequentially
consistent; experiment T15 checks that claim over randomized runs.
The protocol is *not* m-linearizable: a query reads its local replica,
which may not yet reflect an update whose response was already
generated elsewhere (the benchmark ``test_fig5_scenario.py`` exhibits
exactly the stale read that Figure 5 illustrates).

Response-time shape (experiment A2, mirroring Attiya–Welch): queries
cost only the local delay; updates pay the atomic-broadcast latency.
This is the classic "fast reads, slow writes" sequentially consistent
implementation, generalised to multi-object operations.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.obs import get_tracer
from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.runtime.registry import Capabilities, ProtocolSpec, register_protocol


class MSCProcess(BaseProcess):
    """One participant in the Figure-4 protocol."""

    def on_invoke(self, pending: PendingOp) -> None:
        tracer = get_tracer()
        if pending.program.may_write:
            # (A1): atomically broadcast the update.
            abcast = self.cluster.abcast
            if abcast is None:
                raise ProtocolError(
                    "the Fig-4 protocol requires an atomic-broadcast layer"
                )
            if tracer.enabled:
                tracer.event(
                    "proto.abcast", uid=pending.uid, process=self.pid
                )
            self.broadcast_update(abcast, pending)
        else:
            # (A3): queries execute against the local copy at once.
            with tracer.span(
                "msc.query.local", uid=pending.uid, process=self.pid
            ):
                record = self.store.execute(pending.program, pending.uid)
            self.respond(pending, record)


def msc_cluster(
    n: int,
    objects,
    **kwargs,
) -> Cluster:
    """Build a Figure-4 (m-sequentially consistent) cluster.

    Accepts every :class:`~repro.protocols.base.Cluster` keyword.
    """
    return make_cluster(MSCProcess, n, objects, **kwargs)


register_protocol(
    ProtocolSpec(
        name="msc",
        factory=msc_cluster,
        condition="m-sc",
        summary="Figure-4 protocol: broadcast updates, local queries",
        capabilities=Capabilities(
            crash_tolerant=True,
            partition_tolerant=True,
            certificate_eligible=True,
        ),
    )
)
