"""Fixed-sequencer atomic broadcast: the ordering core.

The simplest total-order broadcast over reliable channels: a designated
*sequencer* process assigns consecutive sequence numbers.

* To broadcast, a process sends ``abc-req`` to the sequencer.
* The sequencer stamps the payload with the next sequence number and
  sends ``abc-seq`` to every participant (including the sender and
  itself).
* Each participant delivers in sequence-number order: a relay that
  arrives in order is delivered at once, with the run of early ones
  (the network is non-FIFO) that waited in a buffer for its gap.

Message cost per broadcast: ``1 + n`` point-to-point messages and two
message delays on the critical path (request to sequencer + relay),
or one delay when the sender *is* the sequencer.

**Lazy landing.**  On a clean run (:meth:`SequencerAbcast.land_lazily`,
which the cluster calls) relays are *held* in the network as rows by
sequence number (:class:`~repro.sim.network.Holder`), whose cursors
are the participants' delivery cursors: whenever a participant acts it
lands the rows that have reached it as a move of its cursor, and hands
the run on as slices of the rows' bodies and ``(sender, id)`` records.
One frame per relay is queued, the arrival that completes its sender's
prefix.  See "The delivery path" in ``docs/architecture.md``.

Its invariant: **every participant's delivery log is a gap-free prefix
``0..k`` of the one sequence the sequencer stamped**.  Duplicated
frames are harmless (requests are deduplicated by message id, relays
by sequence number), and a relay is retained until every participant
landed it: memory follows the slowest replica, not the run.  The core
knows no epochs, elections or quorums — the paper assumes reliable
channels and crash-free processes (Section 5): with the sequencer down
:meth:`SequencerAbcast.broadcast` raises
:class:`~repro.errors.SequencerUnavailable`, as does a request to
recover.  Runs with a fault plan use
:class:`repro.abcast.failover.FailoverSequencer`, same wire format
(the ``"epoch": 0`` on every relay is the one field it ever moves);
it queues every frame.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.abcast.interface import AtomicBroadcast
from repro.errors import ProtocolError, SequencerUnavailable
from repro.obs import get_tracer
from repro.sim.network import Holder, Message, Network

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
        self._expected: List[int] = [0] * network.n
        #: Relays that arrived ahead of the cursor, by sequence number.
        self._buffer: Dict[int, Dict[int, Dict[str, Any]]] = {
            pid: {} for pid in range(network.n)
        }
        #: Relays held in the network by sequence number, until every
        #: participant landed them; None while relays are queued.
        self._relays: Optional[Holder] = None

    # ------------------------------------------------------------------
    # AtomicBroadcast API
    # ------------------------------------------------------------------

    def broadcast(
        self, sender: int, payload: Any, price: Optional[int] = None
    ) -> None:
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
        self.network.send(
            sender, self.sequencer, self.request(REQ, body, price)
        )

    def handle(self, pid: int, src: int, message: Message) -> None:
        """Process an ``abc-*`` message arriving at endpoint ``pid``."""
        entry = message.payload
        if message.kind == SEQ:
            self._arrived(pid, message, self.network.sim.key)
        elif message.kind == REQ:
            if pid != self.sequencer:
                raise ProtocolError(
                    f"abc-req arrived at non-sequencer {pid}"
                )
            if entry["id"] in self._ids:
                return  # duplicated request frame: already ordered
            self._ids.add(entry["id"])
            seq = self._next_seq
            self._next_seq += 1
            relay = message.relay(SEQ, self._stamp(seq, self.epoch, entry))
            relays = self._relays
            if relays is None:
                self.network.send_to_all(pid, relay)
            elif relays.hold(pid, relay, seq, (entry["sender"], entry["id"])):
                # The one frame a held relay needs queued: the arrival
                # that completes its sender's prefix, where the sender
                # delivers it and answers its client.
                relays.queue_last(entry["sender"])
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    # ------------------------------------------------------------------
    # Landing: one step for held relays and buffered frames
    # ------------------------------------------------------------------

    def land_lazily(self) -> Callable[[int], None]:
        """Hold relays in the network from now on (see the module
        notes); returns :meth:`land`, which the caller runs at every
        landing point of a participant."""
        self._relays = self.network.holder(self._arrived, range(self.n), self._expected)
        return self.land

    def land(self, pid: int, key: Optional[Tuple[float, int]] = None) -> None:
        """Deliver at ``pid`` every relay that has reached it by ``key``
        (by now)."""
        if self._expected[pid] < self._next_seq:  # (a relay it lacks)
            key = key or self.network.sim.key
            held = self._relays.land(pid, key)
            if held is not None:
                self._land_from(pid, *held, key, True)

    def _arrived(
        self, pid: int, message: Message, key: Tuple[float, int]
    ) -> None:
        """What a relay does where it lands: delivered with the run
        behind it when it is next; buffered when early (a duplicated
        early frame keeps the first copy), after which ``pid`` lands
        what has reached it by ``key``; dropped when delivered
        already."""
        entry = message.payload
        seq, expected = entry["seq"], self._expected[pid]
        if seq == expected:
            self._land_from(pid, [entry], [(entry["sender"], entry["id"])], key)
        elif seq > expected:
            self._buffer[pid].setdefault(seq, entry)
            if self._relays is not None:
                self.land(pid, key)

    def _land_from(
        self, pid: int, run: List[Dict[str, Any]], records: List[Tuple[int, Any]],
        key: Tuple[float, int], held: bool = False,
    ) -> None:
        """The one landing step.  Deliver at ``pid`` the relays ``run``
        with their ``records``, which start at its cursor, and every
        relay behind them that reached it by ``key`` — buffered frames
        and held relays alike — in one call.  ``held``: ``run`` ends
        with every held relay that could land there."""
        relays, buffer, cursors = self._relays, self._buffer[pid], self._expected
        start = cursors[pid]
        cursors[pid] += len(run)
        while True:
            landed = None if held or relays is None else relays.land(pid, key)
            if landed is not None:
                run += landed[0]
                records += landed[1]
                cursors[pid] += len(landed[0])
            entry = buffer.pop(cursors[pid], None)
            if entry is None:
                break
            run.append(entry)
            records.append((entry["sender"], entry["id"]))
            cursors[pid] += 1
            held = False
        if relays is not None and start <= relays.base < min(cursors):
            relays.trim()
        deliver, position = self._log_run(pid, records)
        deliver(run, position)

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
