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

**Lazy landing.**  A replica's copy is read only when the replica
acts, so on a clean run (:meth:`SequencerAbcast.land_lazily`, which
the cluster calls) a relay need not be an event per participant.  The
network fans it out unqueued (:meth:`~repro.sim.network.Network.
fan_out`): the latencies are sampled and the kernel seqs reserved as
for queued frames, and the relay is *held* with its arrival key
``(time, seq)`` at each participant.  A participant *lands*, in one
delivery call, every held relay whose key is at or below the current
event's, in sequence order — the gap-free run its buffer would have
delivered by then — at each landing point: whenever it acts, when a
frame reaches it, and at the end of the run (:meth:`SequencerAbcast.
land_all`).  One frame per relay stays queued: the arrival that
completes its sender's prefix, where the sender delivers it and
answers its client.  When the network
can no longer fan out unqueued (a tracer, an impaired wire, a crash),
every held arrival is queued at its reserved key, so both paths give
the same run.

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
import math
from array import array
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.abcast.interface import AtomicBroadcast
from repro.errors import ProtocolError, SequencerUnavailable
from repro.obs import get_tracer
from repro.sim.network import Message, Network

#: Message kinds used on the wire.
REQ = "abc-req"
SEQ = "abc-seq"


class _Held:
    """A relay fanned out unqueued: when it reaches each participant
    (``times[pid]``, kernel seq ``first + pid``), how many have yet to
    land it, and the participants whose frame of it is queued."""

    __slots__ = ("message", "times", "first", "left", "queued")

    def __init__(
        self, message: Message, times: array, first: int, left: int
    ) -> None:
        self.message = message
        self.times = times
        self.first = first
        self.left = left
        self.queued: Tuple[int, ...] = ()


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
        # --- relays fanned out unqueued (see the module notes) ---
        self._lazy = False
        #: Held relays by sequence number, until every participant
        #: landed them.
        self._relays: Dict[int, _Held] = {}
        #: Latest arrival time of any held relay.
        self._last_arrival = 0.0

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
            if self._relays:
                # Held relays that reached ``pid`` by now land first —
                # this one too, if it is a held relay's queued arrival.
                self.land(pid)
            seq = entry["seq"]
            expected = self._expected[pid]
            if seq > expected:
                # Early; a duplicated early frame keeps the first copy.
                self._buffer[pid].setdefault(seq, entry)
                held = self._relays.get(seq)
                if held is not None:  # a held relay's queued arrival
                    held.left -= 1
                    if not held.left:
                        del self._relays[seq]
                return
            if seq < expected:
                return  # duplicate of an already-delivered relay
            self._land_from(pid, entry, self.network.sim.key)
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
            relay = message.relay(SEQ, stamped)
            if self._lazy:
                fanned = self.network.fan_out(pid, relay, self._queue_held)
                if fanned is not None:
                    self._hold(relay, *fanned)
                    return
            self.network.send_to_all(pid, relay)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    # ------------------------------------------------------------------
    # Landing: one step for held relays and buffered frames
    # ------------------------------------------------------------------

    def land_lazily(self) -> Callable[[int], None]:
        """Fan relays out unqueued from now on (see the module notes);
        returns :meth:`land`, which the caller runs at every landing
        point of a participant."""
        self._lazy = True
        return self.land

    def land(self, pid: int) -> None:
        """Deliver at ``pid`` every relay that has reached it by now."""
        if self._expected[pid] in self._relays:
            self._land_from(pid, None, self.network.sim.key)

    def land_all(self) -> None:
        """End of a drained run: land every held relay and move the
        clock on to the last arrival, as a queued run would have.  (A
        run stopped with events queued switches to the queued path
        instead: :meth:`~repro.sim.network.Network.queue_held`.)"""
        sim = self.network.sim
        for pid in range(self.n):
            self._land_from(pid, None, (math.inf, 0))
        if self._last_arrival > sim.now:
            sim.run(until=self._last_arrival)

    def _land_from(
        self, pid: int, entry: Optional[Dict[str, Any]], key: Tuple[float, int]
    ) -> None:
        """The one landing step.  Collect ``entry``, the relay at
        ``pid``'s cursor (None: start with the held relay there, if it
        has arrived), then every relay behind it that reached ``pid``
        by ``key`` — buffered frames and held relays alike — and
        deliver that run in one call."""
        now, current = key
        relays = self._relays
        buffer = self._buffer[pid]
        expected = self._expected[pid]
        run = []
        landed = 0
        while True:
            if entry is None:
                held = relays.get(expected)
                if held is None:
                    break
                time, seq = held.times[pid], held.first + pid
                if time > now or (time == now and seq > current):
                    break
                if time != now or seq != current:
                    # (the frame arriving now was counted on arrival)
                    landed += 1
                held.left -= 1
                if not held.left:
                    del relays[expected]
                entry = held.message.payload
            run.append(entry)
            expected += 1
            entry = buffer.pop(expected, None)
        if run:
            self._expected[pid] = expected
            self.network.stats.delivered += landed
            self._log_run(pid, run)(run)

    def _hold(self, relay: Message, times: array, first: int) -> None:
        """Keep a relay fanned out unqueued until every participant
        landed it, and queue the one frame it needs: the arrival that
        completes its sender's prefix, where the sender delivers it
        and answers its client."""
        entry = relay.payload
        seq, sender = entry["seq"], entry["sender"]
        last = self._relays[seq] = _Held(relay, times, first, self.n)
        self._last_arrival = max(self._last_arrival, max(times))
        key = (times[sender], first + sender)
        for earlier in range(self._expected[sender], seq):
            held = self._relays.get(earlier)
            if held is not None:
                arrival = (held.times[sender], held.first + sender)
                if arrival > key:
                    key, last = arrival, held
        if sender not in last.queued:
            last.queued += (sender,)
            self.network.arrive_at(
                *key, self.sequencer, sender, last.message
            )

    def _queue_held(self) -> None:
        """The network stopped fanning out unqueued: land what has
        arrived, buffer what arrived behind a gap, and queue every
        other held arrival at its reserved key."""
        for pid in range(self.n):
            self.land(pid)
        key = self.network.sim.key
        for seq, held in sorted(self._relays.items()):
            for pid in range(self.n):
                if self._expected[pid] > seq or pid in held.queued:
                    continue  # landed, or its frame is queued already
                arrival = (held.times[pid], held.first + pid)
                if arrival <= key:
                    self.network.stats.delivered += 1
                    self._buffer[pid].setdefault(seq, held.message.payload)
                else:
                    self.network.arrive_at(
                        *arrival, self.sequencer, pid, held.message
                    )
        self._relays.clear()

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
