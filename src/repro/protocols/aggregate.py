"""Baseline: the aggregate-object approach (Section 1's strawman).

The paper's introduction warns that multi-methods could be modelled
"by defining an aggregate object that represents the state of all
objects", but that "this technique has serious drawbacks ... loss of
locality and concurrency".  This protocol implements that strawman
faithfully so the loss can be *measured* (experiment A1): the whole
store is one logical object, so **every** m-operation — queries
included — must be globally ordered, i.e. atomically broadcast, and a
query pays the full broadcast latency that the Fig-4 protocol avoids
entirely and the Fig-6 protocol replaces with one round trip.

(The executions are trivially m-linearizable: every m-operation takes
effect at its delivery point, which lies between its invocation and
response.)
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.runtime.registry import Capabilities, ProtocolSpec, register_protocol


class AggregateProcess(BaseProcess):
    """Every m-operation is broadcast, as if on one big object."""

    # Queries ride the abcast like updates, so the shared replay-
    # tolerant delivery path answers them and recovery must replay an
    # unanswered query's slot.
    abcast_answers_queries = True

    def on_invoke(self, pending: PendingOp) -> None:
        abcast = self.cluster.abcast
        if abcast is None:
            raise ProtocolError(
                "the aggregate baseline requires an atomic-broadcast layer"
            )
        self.broadcast_update(abcast, pending)


def aggregate_cluster(n: int, objects, **kwargs) -> Cluster:
    """Build an aggregate-object baseline cluster."""
    return make_cluster(AggregateProcess, n, objects, **kwargs)


register_protocol(
    ProtocolSpec(
        name="aggregate",
        factory=aggregate_cluster,
        condition="m-lin",
        summary="strawman: one big object, every m-operation broadcast",
        capabilities=Capabilities(
            crash_tolerant=True, partition_tolerant=True
        ),
    )
)
