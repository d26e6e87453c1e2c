"""Negative control: eager local writes with unordered gossip.

This protocol deliberately drops the one ingredient the Section-5
protocols rely on — the *total order* on update m-operations — to show
that the checkers actually catch inconsistency:

* an update executes immediately on the issuer's replica and responds;
* the update is then gossiped to the other replicas as plain
  (unordered, reordering-prone) point-to-point messages, each of which
  applies it on arrival;
* a query reads the local replica.

Two concurrent updates can therefore be applied in different orders
at different replicas, and queries can observe write orders that no
single legal sequential history explains.  Runs of this protocol are
frequently **not** m-sequentially consistent; the test suite asserts
that violations occur (and that the exact checker flags them) on
seeds where replicas genuinely diverge.

The recorded reads-from relation remains exact: each replica tracks
which m-operation last wrote each of *its* copies, and reads are
attributed against the replica they executed on.

Workload caveat: use *blind-write* programs (writes of constants)
with this control.  A value-dependent program (e.g. a read-modify-
write transfer) re-executed on a diverged replica writes a different
value there, and the resulting observations cannot be expressed as a
history at all (a read would return a value no recorded write ever
wrote) — :meth:`History.from_mops` rejects such runs, which is itself
evidence of inconsistency, but the interesting checkable cases come
from blind writes.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.protocols.store import MProgram
from repro.runtime.registry import ProtocolSpec, register_protocol
from repro.sim.network import Message

GOSSIP = "gossip"


class LocalProcess(BaseProcess):
    """Applies updates locally first, then gossips them unordered."""

    def on_invoke(self, pending: PendingOp) -> None:
        record = self.store.execute(pending.program, pending.uid)
        if pending.program.may_write:
            self.cluster.network.send_to_all(
                self.pid,
                Message(
                    GOSSIP,
                    {"uid": pending.uid, "program": pending.program},
                    {"program": pending.program.price},
                ),
                include_self=False,
            )
        self.respond(pending, record)

    def handle_message(self, src: int, message: Message) -> None:
        if message.kind == GOSSIP:
            uid = message.payload["uid"]
            program: MProgram = message.payload["program"]
            self.store.apply(program, uid)
        else:
            super().handle_message(src, message)

    def on_abcast_deliver(self, sender: int, payload: Any) -> None:
        raise NotImplementedError(
            "the local-gossip control never uses atomic broadcast"
        )


def local_cluster(n: int, objects, **kwargs) -> Cluster:
    """Build the (inconsistent) local-gossip control cluster."""
    return make_cluster(LocalProcess, n, objects, uses_abcast=False, **kwargs)


register_protocol(
    ProtocolSpec(
        name="local",
        factory=local_cluster,
        condition=None,
        summary="negative control: apply locally, gossip unordered",
        uses_abcast=False,
    )
)
