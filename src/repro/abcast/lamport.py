"""Decentralised atomic broadcast via Lamport clocks and acknowledgments.

Lamport's classic total-ordering construction (the mutual-exclusion
queue of "Time, Clocks, ..."): every broadcast is multicast with the
sender's logical timestamp, every receiver acknowledges to everyone,
and a message is delivered once (a) it has been acknowledged by all
``n`` participants and (b) it carries the minimum ``(timestamp,
origin)`` key among pending messages.

Lamport's algorithm assumes FIFO channels; the paper's network is
explicitly non-FIFO ("the messages can get reordered"), so this
implementation layers FIFO *per-sender reassembly* on top: each
protocol message carries a per-sender sequence number, and receivers
buffer until they can process each sender's stream in send order.
With that, the usual argument applies: when process ``p`` has
processed ``q``'s acknowledgment of ``m``, it has already processed
every message ``q`` sent earlier — in particular any broadcast of
``q`` timestamped below ``m`` — so the min-pending rule cannot
deliver out of order.

Cost per broadcast: ``n`` broadcast messages plus ``n^2``
acknowledgments, two message delays on the critical path.  The
contrast with the fixed sequencer's ``n + 1`` messages is measured in
experiment A2.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.abcast.interface import AtomicBroadcast
from repro.errors import ProtocolError
from repro.sim.network import Message, Network

BCAST = "abl-bcast"
ACK = "abl-ack"

#: Total-order key of a pending broadcast: (lamport ts, origin pid, id).
Key = Tuple[int, int, int]


class LamportAbcast(AtomicBroadcast):
    """Decentralised total-order broadcast (no sequencer).

    All ``network.n`` endpoints participate.
    """

    KINDS = (BCAST, ACK)

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        n = network.n
        self._clock: List[int] = [0] * n
        self._msg_counter = itertools.count()
        # Pending broadcasts per participant: key -> (sender, payload).
        self._pending: Dict[int, Dict[Key, Tuple[int, Any]]] = {
            pid: {} for pid in range(n)
        }
        # Acks per participant: key -> set of ackers.
        self._acks: Dict[int, Dict[Key, Set[int]]] = {
            pid: {} for pid in range(n)
        }
        # Keys already delivered (acks for them can be discarded).
        self._delivered: Dict[int, Set[Key]] = {pid: set() for pid in range(n)}
        # FIFO reassembly: per receiver, per sender: next expected
        # sequence number and the out-of-order buffer.
        self._send_seq: List[int] = [0] * n
        self._recv_next: Dict[int, List[int]] = {
            pid: [0] * n for pid in range(n)
        }
        self._recv_buffer: Dict[int, Dict[Tuple[int, int], Message]] = {
            pid: {} for pid in range(n)
        }

    # ------------------------------------------------------------------
    # AtomicBroadcast API
    # ------------------------------------------------------------------

    def broadcast(
        self, sender: int, payload: Any, price: Optional[int] = None
    ) -> None:
        """Multicast the payload with the sender's Lamport timestamp
        (each copy is walked: the FIFO slot makes it a new message)."""
        self._clock[sender] += 1
        key: Key = (self._clock[sender], sender, next(self._msg_counter))
        body = {"key": key, "sender": sender, "payload": payload}
        self._multicast(sender, Message(BCAST, body))

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------

    def handle(self, pid: int, src: int, message: Message) -> None:
        """FIFO-reassemble, then process, a protocol message."""
        seq = message.payload["fifo_seq"]
        expected = self._recv_next[pid]
        if seq == expected[src]:
            self._process(pid, src, message)
            expected[src] += 1
            # Drain any buffered successors.
            while (src, expected[src]) in self._recv_buffer[pid]:
                buffered = self._recv_buffer[pid].pop((src, expected[src]))
                self._process(pid, src, buffered)
                expected[src] += 1
        elif seq > expected[src]:
            # A duplicated frame overwrites its identical twin.
            self._recv_buffer[pid][(src, seq)] = message
        # else: duplicate of an already-processed frame (the network's
        # duplication fault) — drop it; processing it twice would
        # double-count acks at best and double-deliver at worst.

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _multicast(self, src: int, message: Message) -> None:
        """Send to every participant with per-sender FIFO numbering.

        One network message per destination; each carries the same
        per-*multicast* sequence number slot, so reassembly is per
        (src, dst) stream.
        """
        for dst in range(self.network.n):
            body = dict(message.payload)
            body["fifo_seq"] = self._send_seq[src]
            self.network.send(src, dst, Message(message.kind, body))
        self._send_seq[src] += 1

    def _process(self, pid: int, src: int, message: Message) -> None:
        body = message.payload
        if message.kind == BCAST:
            key: Key = tuple(body["key"])  # type: ignore[assignment]
            self._clock[pid] = max(self._clock[pid], key[0]) + 1
            self._pending[pid][key] = (body["sender"], body["payload"])
            self._acks[pid].setdefault(key, set()).add(body["sender"])
            # Acknowledge to everyone (including self) so all
            # participants converge on the same ack counts.
            self._clock[pid] += 1
            ack_body = {"key": key, "acker": pid}
            self._multicast(pid, Message(ACK, ack_body))
            self._try_deliver(pid)
        elif message.kind == ACK:
            key = tuple(body["key"])  # type: ignore[assignment]
            if key in self._delivered[pid]:
                return
            self._acks[pid].setdefault(key, set()).add(body["acker"])
            self._try_deliver(pid)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    def _try_deliver(self, pid: int) -> None:
        pending = self._pending[pid]
        while pending:
            key = min(pending)
            ackers = self._acks[pid].get(key, set())
            if len(ackers) < self.network.n:
                return
            sender, payload = pending.pop(key)
            self._acks[pid].pop(key, None)
            self._delivered[pid].add(key)
            run = [{"sender": sender, "payload": payload, "id": key[2]}]
            self._deliver_run(pid, run)
