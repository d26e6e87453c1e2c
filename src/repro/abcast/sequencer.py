"""Fixed-sequencer atomic broadcast: the ordering core.

The simplest total-order broadcast over reliable channels: a designated
*sequencer* process assigns consecutive sequence numbers.

* To broadcast, a process sends ``abc-req`` to the sequencer.
* The sequencer stamps the payload with the next sequence number and
  sends ``abc-seq`` to every participant (including the sender and
  itself).
* Each participant delivers in sequence-number order: a relay that
  arrives in order is delivered at once, one that arrives early (the
  network is non-FIFO) waits in a buffer for the gap to fill.

Message cost per broadcast: ``1 + n`` point-to-point messages and two
message delays on the critical path (request to sequencer + relay),
or one delay when the sender *is* the sequencer.

Its invariant: **every participant's delivery log is a gap-free prefix
``0..k`` of the one sequence the sequencer stamped**.  Duplicated
frames are harmless (requests are deduplicated by message id, relays
by sequence number) and no delivered entry is retained.  The core
knows no epochs, elections or quorums — the paper assumes reliable
channels and crash-free processes (Section 5): with the sequencer down
:meth:`SequencerAbcast.broadcast` raises
:class:`~repro.errors.SequencerUnavailable`, as does a request to
recover.  Runs with a fault plan use
:class:`repro.abcast.failover.FailoverSequencer`, same wire format
(the ``"epoch": 0`` on every relay is the one field it ever moves).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Set

from repro.abcast.interface import AtomicBroadcast
from repro.errors import ProtocolError, SequencerUnavailable
from repro.obs import get_tracer
from repro.sim.network import Message, Network

#: Message kinds used on the wire.
REQ = "abc-req"
SEQ = "abc-seq"


class SequencerAbcast(AtomicBroadcast):
    """Fixed-sequencer total-order broadcast.

    Args:
        network: the simulated network; all ``network.n`` endpoints
            participate.
        sequencer: pid of the sequencing process (default 0).
    """

    KINDS = (REQ, SEQ)

    #: The epoch stamped on every relay; only a failover ever moves it
    #: (an election's ``self.epoch += 1`` starts from this 0).
    epoch = 0

    def __init__(self, network: Network, *, sequencer: int = 0) -> None:
        super().__init__(network)
        if not 0 <= sequencer < network.n:
            raise ProtocolError(f"sequencer pid {sequencer} out of range")
        self.sequencer = sequencer
        self._next_msg_id = itertools.count()
        # --- sequencer-side state ---
        self._next_seq = 0
        #: Ids of the requests already stamped (a duplicated request
        #: frame must not be ordered twice).
        self._ids: Set[int] = set()
        # --- per-participant state ---
        #: Delivery cursor: the next sequence number to deliver.
        self._expected: Dict[int, int] = {pid: 0 for pid in range(network.n)}
        #: Relays that arrived ahead of the cursor, by sequence number.
        self._buffer: Dict[int, Dict[int, Dict[str, Any]]] = {
            pid: {} for pid in range(network.n)
        }

    # ------------------------------------------------------------------
    # AtomicBroadcast API
    # ------------------------------------------------------------------

    def broadcast(self, sender: int, payload: Any) -> None:
        """Send the payload to the sequencer."""
        if self.network.is_down(self.sequencer):
            raise SequencerUnavailable(
                f"sequencer {self.sequencer} is down and this sequencer "
                "has no failover"
            )
        body = {
            "sender": sender,
            "payload": payload,
            "id": next(self._next_msg_id),
        }
        self.network.send(sender, self.sequencer, Message(REQ, body))

    def handle(self, pid: int, src: int, message: Message) -> None:
        """Process an ``abc-*`` message arriving at endpoint ``pid``."""
        entry = message.payload
        if message.kind == SEQ:
            seq = entry["seq"]
            expected = self._expected[pid]
            if seq > expected:
                # Early; a duplicated early frame keeps the first copy.
                self._buffer[pid].setdefault(seq, entry)
                return
            if seq < expected:
                return  # duplicate of an already-delivered relay
            deliver = self._deliver.get(pid)
            if deliver is None:
                raise ProtocolError(
                    f"delivery at unattached participant {pid}"
                )
            log = self.delivery_log[pid]
            buffer = self._buffer[pid]
            while entry is not None:
                expected += 1
                self._expected[pid] = expected
                log.append((entry["sender"], entry["id"]))
                deliver(entry["sender"], entry["payload"])
                entry = buffer.pop(expected, None)
        elif message.kind == REQ:
            if pid != self.sequencer:
                raise ProtocolError(
                    f"abc-req arrived at non-sequencer {pid}"
                )
            if entry["id"] in self._ids:
                return  # duplicated request frame: already ordered
            self._ids.add(entry["id"])
            stamped = self._stamp(self._next_seq, self.epoch, entry)
            self._next_seq += 1
            self.network.send_to_all(pid, message.relay(SEQ, stamped))
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    @staticmethod
    def _stamp(seq: int, epoch: int, request: Dict[str, Any]) -> Dict[str, Any]:
        """The relay body that puts ``request`` at position ``seq``."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "abcast.sequence",
                seq=seq,
                epoch=epoch,
                sender=request["sender"],
            )
        return {
            "seq": seq,
            "epoch": epoch,
            "sender": request["sender"],
            "payload": request["payload"],
            "id": request["id"],
        }

    # ------------------------------------------------------------------
    # Crash hooks (driven by the cluster / fault injector)
    # ------------------------------------------------------------------

    def on_crash(self, pid: int) -> None:
        """Participant ``pid`` crashed; wipe its volatile state."""
        super().on_crash(pid)
        self._expected[pid] = 0
        self._buffer[pid].clear()

    def recover(self, pid: int, **_recovery: Any) -> None:
        """The core keeps nothing a restarted participant could catch
        up from."""
        raise SequencerUnavailable(
            "crash recovery requires a FailoverSequencer"
        )

    #: Snapshot recovery opens by gating delivery; refused the same way.
    suspend = recover

    def cursor(self, pid: int) -> int:
        """``pid``'s delivery cursor (next expected sequence number)."""
        return self._expected[pid]
