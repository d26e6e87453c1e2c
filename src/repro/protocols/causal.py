"""Causally consistent replication (extension; checked against the
m-causal row of :data:`repro.core.CONDITIONS`).

The Section-4 aside — "The system can then provide weaker guarantees
and have better performance" — made concrete: drop the total order on
updates and replicate them with a **causal broadcast** instead.

* On invocation, an update executes on the issuer's replica and
  responds immediately (no broadcast round trip: writes cost only the
  local delay — the performance win over the Fig-4/Fig-6 protocols,
  measured in experiment A4).
* The update's *effects* (the values it wrote) are multicast with a
  vector timestamp; receivers buffer each message until its causal
  dependencies are satisfied — the classic causal-delivery condition
  ``T[src] == delivered[src] + 1  and  T[k] <= delivered[k]`` for all
  other ``k`` — then install the writes.
* Queries read the local replica.

Concurrent updates may be applied in different orders at different
replicas and the replicas may stay divergent — exactly what causal
consistency permits and m-sequential consistency forbids.  Every
execution of this protocol is m-causally consistent (asserted over
randomized runs in the test suite); m-SC violations occur and are
caught by the exact checker.

Effects, not programs, travel on the wire: re-executing a
read-modify-write program against a diverged replica would compute
*different values* than the issuer observed, which is why this
protocol (unlike Fig-4/Fig-6, whose total order makes re-execution
deterministic) ships the written values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.runtime.registry import ProtocolSpec, register_protocol
from repro.sim.network import Message

CAUSAL = "causal-update"


class CausalProcess(BaseProcess):
    """One replica of the causal protocol."""

    def __init__(self, pid: int, cluster: Cluster) -> None:
        super().__init__(pid, cluster)
        #: delivered-update counts per origin (own sends included).
        self.vc: List[int] = [0] * cluster.n
        self._buffer: List[Tuple[int, Dict[str, Any]]] = []

    def on_invoke(self, pending: PendingOp) -> None:
        record = self.store.execute(pending.program, pending.uid)
        if record.wobjects:
            deps = list(self.vc)
            self.vc[self.pid] += 1
            deps[self.pid] = self.vc[self.pid]
            payload = {
                "uid": pending.uid,
                "writes": {
                    obj: self.store.value_of(obj)
                    for obj in record.wobjects
                },
                "vt": deps,
            }
            self.cluster.network.send_to_all(
                self.pid, Message(CAUSAL, payload), include_self=False
            )
        self.respond(pending, record)

    def handle_message(self, src: int, message: Message) -> None:
        if message.kind != CAUSAL:
            super().handle_message(src, message)
            return
        self._buffer.append((src, message.payload))
        self._drain()

    def on_abcast_deliver(self, sender: int, payload: Any) -> None:
        raise NotImplementedError(
            "the causal protocol does not use atomic broadcast"
        )

    # ------------------------------------------------------------------
    # Causal delivery
    # ------------------------------------------------------------------

    def _deliverable(self, src: int, vt: List[int]) -> bool:
        if vt[src] != self.vc[src] + 1:
            return False
        return all(
            vt[k] <= self.vc[k]
            for k in range(self.cluster.n)
            if k != src
        )

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for entry in list(self._buffer):
                src, payload = entry
                if self._deliverable(src, payload["vt"]):
                    self._buffer.remove(entry)
                    self.store.apply_writes(
                        payload["writes"], payload["uid"]
                    )
                    self.vc[src] += 1
                    progressed = True


def causal_cluster(n: int, objects, **kwargs) -> Cluster:
    """Build a causally consistent replication cluster."""
    return make_cluster(CausalProcess, n, objects, uses_abcast=False, **kwargs)


register_protocol(
    ProtocolSpec(
        name="causal",
        factory=causal_cluster,
        condition="m-causal",
        summary="vector-clock gossip: causal delivery, no total order",
        uses_abcast=False,
    )
)
