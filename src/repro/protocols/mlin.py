"""The Figure-6 protocol: m-linearizability (Section 5.2).

Updates are handled exactly as in the Figure-4 protocol (actions A1
and A2).  Queries are where the two protocols differ — to avoid
reading a stale value, a query gathers the freshest replica state in
one round trip:

* **(A3)** On invocation of a query m-operation, reset ``othts`` and
  send a "query" message to all processes.
* **(A4)** On receiving a "query", reply with the local copy and its
  timestamp ``(myX, myts)``.
* **(A5)** On receiving a "query response" ``(X, ts)``, if
  ``othts < ts`` (lexicographic comparison of whole vectors), replace
  ``(othX, othts) := (X, ts)``.
* **(A6)** Once all responses have arrived, apply the m-operation to
  ``othX`` and respond.

Theorem 20 proves every execution m-linearizable; crucially the
protocol needs **no synchronized clocks and no message-delay bound**
(the paper's advantage over Attiya–Welch's linearizable
implementation).  Experiment T20 validates the theorem over
randomized runs; experiment A2 measures the price: queries now cost a
full round trip governed by the slowest replica.

The closing remark of Section 5.2 — replies may carry only the
objects the query touches rather than the whole store — is available
via ``reply_relevant_only=True`` on :func:`mlin_cluster` (the query's
``static_objects`` declaration scopes the reply); experiment A3
quantifies the message-size saving.

Implementation note: the issuing process incorporates its *own*
``(myX, myts)`` directly at invocation time instead of sending itself
a network "query"; this is the same event (``query(i, a)`` occurs
between ``inv(a)`` and ``resp(a)``, P 5.20) without a self-addressed
message in flight.

**Held replies.**  On a clean run (where relays land lazily) the issuer
*holds* its gather's A4 replies in the network
(:class:`~repro.sim.network.Holder`) and queues only the one that
arrives last; when it fires, A5 runs over every reply.  See "The
delivery path" in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional

from repro.errors import ProtocolError
from repro.obs import get_tracer
from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.protocols.store import MProgram, VersionedStore
from repro.runtime.registry import Capabilities, ProtocolSpec, register_protocol
from repro.sim.network import EMPTY_SIZE, Holder, Message

QUERY = "query"
QUERY_RESP = "query-resp"

#: What a full A4 reply is charged besides its snapshot and ``ts``:
#: an int ``uid`` and ``attempt``, and the four member names.
_REPLY_PRICE = EMPTY_SIZE + 8 + 8 + sum(
    map(len, ("uid", "attempt", "snapshot", "ts"))
)


class MLinProcess(BaseProcess):
    """One participant in the Figure-6 protocol."""

    #: The replies held for this process's gathers (see the module
    #: notes), and how many replicas answered the open one; None
    #: while replies are queued.
    _replies: Optional[Holder] = None
    _sent: Optional[int] = None

    def on_invoke(self, pending: PendingOp) -> None:
        if pending.program.may_write:
            # (A1): identical to the Fig-4 protocol.
            abcast = self.cluster.abcast
            if abcast is None:
                raise ProtocolError(
                    "the Fig-6 protocol requires an atomic-broadcast layer"
                )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "proto.abcast", uid=pending.uid, process=self.pid
                )
            self.broadcast_update(abcast, pending)
            return
        # (A3): gather the freshest replica state.
        self._start_gather(pending, attempt=0)

    def on_recover_pending(self, pending: PendingOp) -> None:
        """Restart an interrupted gather after a crash.

        Updates keep the base behaviour (the abcast layer re-drives
        them); a query's gather state died with the replica, so it is
        reissued under a fresh attempt number — late responses to the
        pre-crash gather carry the old attempt and are ignored.
        """
        if pending.program.may_write:
            return
        self._start_gather(pending, pending.extra.get("attempt", 0) + 1)

    def handle_message(self, src: int, message: Message) -> None:
        if message.kind == QUERY:
            # (A4): reply with (myX, myts), possibly restricted to the
            # relevant objects (Section 5.2 closing remark).
            query = message.payload
            reply = {"uid": query["uid"], "attempt": query.get("attempt", 0)}
            price = None
            if query["objects"] is None:
                # The replica image knows what both parts cost.
                snapshot, snapshot_size, ts, ts_size = (
                    self.store.export_priced()
                )
                price = _REPLY_PRICE + snapshot_size + ts_size
            else:
                relevant = frozenset(query["objects"])
                snapshot = self.store.export(relevant)
                ts = self.store.lex_ts(relevant)
            reply["snapshot"] = snapshot
            reply["ts"] = ts
            response = Message(QUERY_RESP, reply, price)
            issuer = self.cluster.processes[src]
            if issuer._sent is not None:
                issuer._hold_reply(self.pid, response)
            else:
                self.cluster.network.send(self.pid, src, response)
        elif message.kind == QUERY_RESP:
            self._on_query_response(message)
        else:
            super().handle_message(src, message)

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------

    def _relevant_objects(
        self, program: MProgram
    ) -> Optional[FrozenSet[str]]:
        cluster: "MLinCluster" = self.cluster  # type: ignore[assignment]
        if getattr(cluster, "reply_relevant_only", False):
            if program.static_objects is None:
                raise ProtocolError(
                    f"reply_relevant_only requires query program "
                    f"{program.name!r} to declare static_objects"
                )
            return program.static_objects
        return None

    def _start_gather(self, pending: PendingOp, attempt: int) -> None:
        """(Re)issue the query round; ``attempt`` tags its responses.

        Fault tolerance makes gathers restartable — after a crash, or
        when replies stall past ``cluster.query_retry`` (a replica was
        down when queried) — so each round is numbered and responses
        carrying a stale attempt are discarded rather than mixed into
        the new round's count.
        """
        relevant = self._relevant_objects(pending.program)
        tracer = get_tracer()
        if tracer.enabled:
            # One span per gather round; a retried/restarted gather
            # closes the previous round's span first.
            previous = pending.extra.get("gather_span")
            if previous is not None:
                previous.end(superseded=True)
            pending.extra["gather_span"] = tracer.begin(
                "mlin.gather",
                uid=pending.uid,
                process=self.pid,
                attempt=attempt,
            )
        pending.extra["attempt"] = attempt
        pending.extra["awaiting"] = self.cluster.n - 1
        # Own copy counts as one of the n query responses (see module
        # docstring); start from it instead of othts := 0.
        pending.extra["best"] = self.store.export(relevant)
        pending.extra["best_ts"] = self.store.lex_ts(relevant)
        if self.cluster.n == 1:
            self._finish_query(pending)
            return
        if self.cluster.land is not None:  # a clean run: hold replies
            if self._replies is None:
                self._replies = self.cluster.network.holder(self._a5, (self.pid,))
            self._sent = 0
        query_body = {
            "uid": pending.uid,
            "attempt": attempt,
            "objects": sorted(relevant) if relevant is not None else None,
        }
        self.cluster.network.send_to_all(
            self.pid, Message(QUERY, query_body), include_self=False
        )
        if self.cluster.fault_tolerant:
            uid = pending.uid
            self.cluster.sim.schedule(
                self.cluster.query_retry,
                lambda: self._maybe_retry_query(uid, attempt),
            )

    def _maybe_retry_query(self, uid: int, attempt: int) -> None:
        """Retry timer: re-gather iff this exact attempt is still open."""
        pending = self._pending
        if (
            self.crashed
            or pending is None
            or pending.uid != uid
            or pending.extra.get("attempt") != attempt
        ):
            return
        self._start_gather(pending, attempt + 1)

    def _on_query_response(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending
        stale = (
            pending is None
            or pending.uid != payload["uid"]
            or payload.get("attempt", 0) != pending.extra.get("attempt", 0)
        )
        if stale:
            if self.cluster.fault_tolerant:
                # A superseded gather round (crash restart or retry
                # timeout) — its late responses are expected noise.
                return
            # A response for an already-completed query would be a
            # protocol bug: the process issues sequentially and uids
            # are unique.
            raise ProtocolError(
                f"P{self.pid}: stray query response for uid "
                f"{payload['uid']}"
            )
        if self._replies is not None:
            self._replies.land_arrived(self.cluster.sim.key)
        self._a5(self.pid, message)
        if pending.extra["awaiting"] == 0:
            self._finish_query(pending)

    def _a5(self, _pid: int, message: Message, _key: Any = None) -> None:
        """(A5), also what a held reply does where it lands: keep the
        lexicographically freshest snapshot, wholesale."""
        payload, extra = message.payload, self._pending.extra
        ts = payload["ts"]
        if extra["best_ts"] < ts:
            extra["best"] = payload["snapshot"]
            extra["best_ts"] = ts
        extra["awaiting"] -= 1

    def _hold_reply(self, src: int, message: Message) -> None:
        """Replica ``src`` answers this process's open gather: hold the
        reply, and once all are sent queue the one arriving last."""
        replies = self._replies
        self._sent += 1
        if replies.hold(src, message) and self._sent == self.cluster.n - 1:
            replies.queue_last(self.pid)

    def _finish_query(self, pending: PendingOp) -> None:
        # (A6): run the query against the constructed copy othX.
        self._sent = None
        gather_span = pending.extra.pop("gather_span", None)
        if gather_span is not None:
            gather_span.end()
        oth_store = VersionedStore.from_export(pending.extra["best"])
        record = oth_store.execute(pending.program, pending.uid)
        self.respond(pending, record)


class MLinCluster(Cluster):
    """A Figure-6 cluster, optionally with relevant-objects replies."""

    def __init__(self, *args, reply_relevant_only: bool = False, **kwargs):
        kwargs.setdefault("process_class", MLinProcess)
        super().__init__(*args, **kwargs)
        self.reply_relevant_only = reply_relevant_only


def mlin_cluster(
    n: int,
    objects,
    *,
    reply_relevant_only: bool = False,
    **kwargs,
) -> MLinCluster:
    """Build a Figure-6 (m-linearizable) cluster.

    Args:
        n: number of processes.
        objects: shared object names.
        reply_relevant_only: enable the Section-5.2 optimization
            (query replies carry only the declared relevant objects).
        **kwargs: any :class:`~repro.protocols.base.Cluster` keyword.
    """
    return make_cluster(
        MLinProcess,
        n,
        objects,
        cluster_class=MLinCluster,
        reply_relevant_only=reply_relevant_only,
        **kwargs,
    )


register_protocol(
    ProtocolSpec(
        name="mlin",
        factory=mlin_cluster,
        condition="m-lin",
        summary="Figure-6 protocol: broadcast updates, gather queries",
        capabilities=Capabilities(
            crash_tolerant=True,
            partition_tolerant=True,
            certificate_eligible=True,
            query_optimizable=True,
        ),
        options=("reply_relevant_only",),
    )
)
