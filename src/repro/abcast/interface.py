"""Atomic (total-order) broadcast interface (substrate S11).

Both protocols in Section 5 assume an atomic broadcast primitive:
"atomic broadcast ensures that all processes apply all update
m-operations in the same order".  The required properties are the
classic ones:

* **Validity** — a message broadcast by a correct process is
  eventually delivered by every process (channels are reliable).
* **Integrity** — each message is delivered at most once, and only if
  it was broadcast.
* **Total order** — any two processes deliver any two messages in the
  same relative order.

This module defines the implementation-independent interface; the
concrete algorithms live in :mod:`repro.abcast.sequencer` (with its
fault-tolerance layer, :mod:`repro.abcast.failover`) and
:mod:`repro.abcast.lamport` and are validated against these properties
by their test suites.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.sim.network import Message, Network

#: Delivery callback: (sender_pid, payload) -> None.
DeliverFn = Callable[[int, Any], None]

#: Run callback: one call per gap-free run of deliveries at a
#: participant, with its relay entries in delivery order (dicts with at
#: least ``"sender"``, ``"payload"`` and the unique ``"id"``) and the
#: global position of the first, None if an entry differs from the one
#: log (the run is no stretch of one global sequence).
DeliverRunFn = Callable[[List[Dict[str, Any]], Optional[int]], None]

#: A run entry's delivery-log record: ``(sender, id)``.
_SENDER_ID = itemgetter("sender", "id")

class AtomicBroadcast:
    """Base class for total-order broadcast implementations.

    Lifecycle: construct with the network, then each participant calls
    :meth:`attach` or :meth:`attach_run` exactly once with its delivery
    callback, and afterwards may call :meth:`broadcast`.

    Implementations deliver every broadcast payload exactly once at
    every participant, in one global order.
    """

    #: Wire kinds the implementation owns; claimed on the network at
    #: construction, so its frames reach :meth:`handle` directly.
    KINDS: Tuple[str, ...] = ()

    def __init__(self, network: Network) -> None:
        self.network = network
        for kind in self.KINDS:
            network.bind(kind, self.handle)
        self._deliver: Dict[int, DeliverRunFn] = {}
        # One delivery log for every participant: the first entry
        # landed at each global position, as ``(sender, id)``, and per
        # participant the entries that differ from it, by position.
        self._order: List[Optional[Tuple[int, Any]]] = []
        self._odd: Dict[int, Dict[int, Tuple[int, Any]]] = {}
        #: global position of each pid's first delivery — 0 normally,
        #: the snapshot cursor after a peer-snapshot recovery (the
        #: prefix below it was adopted as state, never re-delivered).
        self.delivery_offset: Dict[int, int] = {}
        #: global position of each pid's next delivery.
        self._position: Dict[int, int] = {}

    @property
    def n(self) -> int:
        """Number of participants."""
        return self.network.n

    def attach(self, pid: int, deliver: DeliverFn) -> None:
        """Register participant ``pid``'s delivery callback, called
        with ``(sender, payload)`` for each delivery in turn."""

        def each(run: List[Dict[str, Any]], _start: Optional[int]) -> None:
            for entry in run:
                deliver(entry["sender"], entry["payload"])

        self.attach_run(pid, each)

    def attach_run(self, pid: int, deliver_run: DeliverRunFn) -> None:
        """Register participant ``pid``'s :data:`DeliverRunFn`."""
        if pid in self._deliver:
            raise ProtocolError(f"participant {pid} already attached")
        self._deliver[pid] = deliver_run
        self._restart_log(pid, 0)

    @staticmethod
    def request(kind: str, body: Dict[str, Any], price: Optional[int]) -> Message:
        """A ``kind`` message carrying a request ``body`` (its
        broadcast payload under ``"payload"``), priced from the
        payload's ``price`` when the broadcaster stated one."""
        return Message(kind, body, None if price is None else {"payload": price})

    def close(self) -> None:
        """Drop the participants' delivery callbacks (they hold the
        processes, which hold this layer): a finished run is freed
        without the cyclic collector."""
        self._deliver = {}

    def broadcast(
        self, sender: int, payload: Any, price: Optional[int] = None
    ) -> None:
        """Atomically broadcast ``payload`` on behalf of ``sender``.

        ``price``, when the caller holds it, is what the network
        charges for ``payload`` as a member of a message payload; an
        implementation may state it on its request instead of walking
        ``payload``.
        """
        raise NotImplementedError

    def land_lazily(self) -> Optional[Callable[[int], None]]:
        """Let deliveries land lazily, if this implementation can.

        Returns the landing step the caller must run for a participant
        at each of its landing points (whenever it acts), or None: the
        default, every delivery is an event of its own.
        """
        return None

    # ------------------------------------------------------------------
    # Crash/recovery hooks (optional; ``FailoverSequencer`` implements
    # them, other implementations inherit the base behaviour: forget
    # the crashed participant's deliveries)
    # ------------------------------------------------------------------

    def on_crash(self, pid: int) -> None:
        """Participant ``pid`` crashed: its volatile state is gone.

        The delivery log restarts empty — on recovery the participant
        re-delivers the total order from scratch (or from a snapshot
        cursor), so the rebuilt log stays prefix-consistent with the
        other participants' logs.
        """
        self._restart_log(pid, 0)

    def _restart_log(self, pid: int, position: int) -> None:
        """``pid``'s delivery log restarts empty at global ``position``."""
        self.delivery_offset[pid] = self._position[pid] = position
        self._odd.pop(pid, None)

    def recover(self, pid: int) -> None:
        """Participant ``pid`` restarted and wants to catch up."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support crash recovery"
        )

    def handle(self, pid: int, src: int, message: Any) -> None:
        """Process a layer-owned message arriving at endpoint ``pid``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers for implementations
    # ------------------------------------------------------------------

    def _deliver_run(self, pid: int, run: List[Dict[str, Any]]) -> None:
        """Deliver a run of entries at ``pid`` (one entry or many)."""
        deliver, start = self._log_run(pid, list(map(_SENDER_ID, run)))
        deliver(run, start)

    def _log_run(
        self, pid: int, records: List[Tuple[int, Any]]
    ) -> Tuple[DeliverRunFn, Optional[int]]:
        """Log the ``(sender, id)`` records of a run of deliveries at
        ``pid``; return its callback and the run's global start
        position, None if a record differs from the one log.  The
        caller runs the callback right below its own frame."""
        deliver = self._deliver.get(pid)
        if deliver is None:
            raise ProtocolError(f"delivery at unattached participant {pid}")
        order = self._order
        start = position = self._position[pid]
        end = self._position[pid] = position + len(records)
        if order[position:end] == records:
            return deliver, start  # what earlier landings delivered there
        order += [None] * (position - len(order))
        for record in records:
            if position == len(order):
                order.append(record)
            elif order[position] is None:
                order[position] = record
            elif order[position] != record:
                self._odd.setdefault(pid, {})[position] = record
                start = None
            position += 1
        return deliver, start

    # ------------------------------------------------------------------
    # Property checking (used by tests and by protocol self-checks)
    # ------------------------------------------------------------------

    def check_total_order(self) -> Optional[str]:
        """Verify the deliveries satisfy total order + integrity.

        Returns None when the properties hold, else a human-readable
        description of the first violation.  A run may end mid-flight,
        so participants may have delivered different-length logs; with
        total order the logs must agree element-wise wherever they
        overlap (each log ``i``-th entry sits at global position
        ``delivery_offset + i``), and integrity forbids duplicate
        message ids within one log.  Participants are checked in pid
        order, each against the earlier ones.

        Each entry was compared with the one log as it landed; the
        logs are rebuilt and walked only if one differed from it or an
        id repeats in it.
        """
        ids = [record[1] for record in self._order if record is not None]
        if not self._odd and len(set(ids)) == len(ids):
            return None
        # reference[p]: the entry delivered at position p; None while
        # only logs starting past p (snapshot-recovered ones) were seen.
        reference: List[Any] = []
        for pid in sorted(self._position):
            base, odd = self.delivery_offset[pid], self._odd.get(pid, {})
            log = [  # rebuilt from the one log
                odd.get(p) or self._order[p]
                for p in range(base, self._position[pid])
            ]
            if len({msg_id for _sender, msg_id in log}) != len(log):
                return f"participant {pid} delivered a message twice"
            reference += [None] * (base - len(reference))
            overlap = min(len(log), len(reference) - base)
            if reference[base:base + overlap] != log[:overlap]:
                for i in range(overlap):
                    known, entry = reference[base + i], log[i]
                    if known is None:
                        reference[base + i] = entry
                    elif known != entry:
                        return (
                            f"participant {pid} delivered {entry} at "
                            f"position {base + i} but another delivered "
                            f"{known}"
                        )
            reference += log[overlap:]
        return None
