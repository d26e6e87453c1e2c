"""Baseline: a single unreplicated server.

The simplest m-linearizable implementation: one process holds the only
copy of the objects; every other process ships each m-operation to it
and waits for the result.  Linearization point = execution at the
server, which lies between invocation and response.

Useful as a latency/throughput baseline against the replicated
protocols: every m-operation costs a round trip to the server (or the
local delay, at the server itself), reads gain nothing from
replication, and the server serialises everything.

Crash tolerance (``fault_tolerant=True`` clusters) models the classic
write-ahead-logged server: every executed m-operation is committed to
the server's durable map before its result is sent, a restarting
server reinstalls the committed image, duplicate requests are answered
from the commit log without re-execution, and clients retry their
request on a timer (``cluster.query_retry``) so a response lost to a
server crash is regenerated.  The server's execution order is exposed
through :meth:`~repro.protocols.base.Cluster.announce_sync` as the
run's ``~ww`` synchronization order — the same Theorem-7 hook the
broadcast protocols get from the abcast delivery sequence.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ProtocolError
from repro.protocols.base import BaseProcess, Cluster, PendingOp, make_cluster
from repro.protocols.store import ExecutionRecord, MProgram
from repro.runtime.registry import Capabilities, ProtocolSpec, register_protocol
from repro.sim.network import Message

EXEC_REQ = "srv-exec"
EXEC_RESP = "srv-result"

#: The pid that hosts the single copy.
SERVER_PID = 0


class ServerProcess(BaseProcess):
    """Client of (or, at pid 0, host of) the central store."""

    def __init__(self, pid: int, cluster: Cluster) -> None:
        super().__init__(pid, cluster)
        #: Server-side commit log (pid 0 only): uid -> executed record.
        #: Durable — survives :meth:`crash` — so restarts answer
        #: retried requests without re-executing them.
        self._committed: Dict[int, ExecutionRecord] = {}
        #: Durable image of the store matching ``_committed``.
        self._durable_store: Any = None

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def _server_execute(
        self, uid: int, program: MProgram
    ) -> ExecutionRecord:
        """Execute once, commit durably, and dedup retried requests."""
        if uid in self._committed:
            return self._committed[uid]
        record = self.store.execute(program, uid)
        self._committed[uid] = record
        self._durable_store = self.store.export()
        # The server's arrival order *is* the synchronization order.
        self.cluster.announce_sync(uid, self.pid)
        return record

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def on_invoke(self, pending: PendingOp) -> None:
        if self.pid == SERVER_PID:
            record = self._server_execute(pending.uid, pending.program)
            self.respond(pending, record)
            return
        self._send_request(pending)

    def _send_request(self, pending: PendingOp) -> None:
        self.cluster.network.send(
            self.pid,
            SERVER_PID,
            Message(
                EXEC_REQ,
                {"uid": pending.uid, "program": pending.program},
                {"program": pending.program.price},
            ),
        )
        if self.cluster.fault_tolerant:
            self._arm_retry(pending.uid)

    def _arm_retry(self, uid: int) -> None:
        """Resend until answered — a server crash can eat the response."""

        def retry() -> None:
            pending = self._pending
            if (
                self.crashed
                or pending is None
                or pending.uid != uid
                or uid in self._responded_uids
            ):
                return
            self._send_request(pending)

        self.cluster.sim.schedule(self.cluster.query_retry, retry)

    def on_recover_pending(self, pending: PendingOp) -> None:
        """Re-drive the request that was open when this process died."""
        if self.pid == SERVER_PID:
            record = self._server_execute(pending.uid, pending.program)
            self.respond(pending, record)
            return
        self._send_request(pending)

    def recover(self) -> None:
        if self.pid == SERVER_PID and self._durable_store is not None:
            # Reinstall the committed image before the client loop
            # resumes; retried requests then execute against it.
            self.store.install(self._durable_store)
        super().recover()

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message: Message) -> None:
        if message.kind == EXEC_REQ:
            if self.pid != SERVER_PID:
                raise ProtocolError(
                    f"P{self.pid}: execution request at non-server"
                )
            uid = message.payload["uid"]
            program: MProgram = message.payload["program"]
            record = self._server_execute(uid, program)
            self.cluster.network.send(
                self.pid,
                src,
                Message(EXEC_RESP, {"uid": uid, "record": record}),
            )
        elif message.kind == EXEC_RESP:
            uid = message.payload["uid"]
            pending = self._pending
            if pending is None or pending.uid != uid:
                if uid in self._responded_uids:
                    return  # duplicate reply to a retried request
                raise ProtocolError(
                    f"P{self.pid}: stray server result for uid {uid}"
                )
            record: ExecutionRecord = message.payload["record"]
            self.respond(pending, record)
        else:
            super().handle_message(src, message)

    def on_abcast_deliver(self, sender: int, payload: Any) -> None:
        raise ProtocolError("the server baseline never uses atomic broadcast")


def server_cluster(n: int, objects, **kwargs) -> Cluster:
    """Build a single-server baseline cluster (server at pid 0)."""
    return make_cluster(ServerProcess, n, objects, uses_abcast=False, **kwargs)


register_protocol(
    ProtocolSpec(
        name="server",
        factory=server_cluster,
        condition="m-lin",
        summary="single server at pid 0; every m-operation a round trip",
        capabilities=Capabilities(
            crash_tolerant=True, partition_tolerant=True
        ),
        uses_abcast=False,
    )
)
