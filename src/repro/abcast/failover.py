"""Fixed-sequencer atomic broadcast with failover: the fault-tolerance layer.

:class:`FailoverSequencer` is what a run with a fault plan puts where
a clean run has the ordering core (:class:`repro.abcast.sequencer.
SequencerAbcast`): the same interface and wire format, plus everything
the core leaves out because the paper assumes it away.  Its invariants,
on top of the core's gap-free total order: **epoch fence** (a relay
stamped before an election this participant saw is never delivered),
**stable-prefix preservation** (an election keeps every quorum-acked
entry at its number) and **cursor catch-up** (a restarted participant
re-delivers the sequenced log from its cursor).  The mechanisms, told
at length in ``docs/fault_model.md``:

* **Sequencer failover** — when the sequencer crashes, the next live
  pid in ring order is elected after ``failover_delay``.  It rebuilds
  the sequencing state from the live participants' retained logs:
  delivered entries keep their numbers (no live process can have
  delivered past a gap), buffered-but-undelivered entries are
  *renumbered* contiguously, everything is restamped with a new epoch
  and rebroadcast.  Participants drop stale-epoch relays and, on
  learning of the new epoch (``abc-new-seq``), re-send their
  still-unsequenced requests; requests are idempotent by message id.
* **Crash recovery** — a restarted participant fetches the sequenced
  log from the current sequencer (``abc-fetch``/``abc-log``) and
  re-delivers from its cursor (0 after a full wipe, or a snapshot
  cursor installed by the protocol layer).
* **Quorum-gated delivery** (``bind_detector``) — participants
  acknowledge every accepted relay (``abc-ack``); the sequencer
  advances a contiguous *stable* watermark once a majority acked and
  announces it (``abc-stable``, also piggybacked on relays).
  Participants deliver only below the watermark, so nothing a minority
  delivered can be missing from a majority's election state.
* **Degraded minority** — a sequencer whose own detector view lacks a
  quorum stops sequencing: requests are *deferred* and replayed when
  quorum returns, or with ``degraded="refuse"`` ``broadcast()`` raises
  :class:`~repro.errors.PartitionedError`.
* **Partition failover** — an observer that suspects its *own*
  sequencer schedules an election, which aborts unless its
  mutually-reachable view is a majority.  The announcement goes to
  *every* up pid — the reliable shim carries it across the cut at heal
  time — fencing the minority's ex-sequencer, redirecting the minority
  and triggering its request retry: the post-heal reconciliation.

All sequencing state is held **per participant**: each pid has its
own view of who the sequencer is (``_psequencer``) and its own epoch
(``_pepoch``), and holds sequencing state only while its own view
names itself.  Nothing global leaks across a link cut — a stale
minority sequencer really can keep stamping old-epoch entries, and
with ``quorum_aware=False`` (the negative control) the checkers must
catch the resulting split-brain.

The election gathers the live participants' state in one atomic step
(standing in for a synchronous state-collection round) but performs
all repair — new-epoch announcement, rebroadcast, request retry,
log fetch — through real (lossy, reordering, partitionable) network
messages.  The handoff is safe under the single-failure-at-a-time
schedules ``FaultPlan.random`` generates; overlapping crashes of the
sequencer and the only participant that delivered a suffix can lose
that suffix, as in any 1-resilient primary-backup scheme without
stable storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.abcast.sequencer import REQ, SEQ, SequencerAbcast
from repro.errors import PartitionedError, ProtocolError, SequencerUnavailable
from repro.obs import get_tracer
from repro.sim.network import Message, Network

#: Message kinds this layer adds to the core's ``abc-req``/``abc-seq``.
NEWSEQ = "abc-new-seq"
FETCH = "abc-fetch"
LOG = "abc-log"
ACK = "abc-ack"
STABLE = "abc-stable"


@dataclass
class _SeqState:
    """One pid's sequencer-side state (exists only while it leads)."""

    next_seq: int = 0
    ids: Set[int] = field(default_factory=set)
    log: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: seq -> pids that acknowledged the relay (quorum-gated mode).
    acks: Dict[int, Set[int]] = field(default_factory=dict)
    #: Contiguous stable watermark: every seq below it is quorum-acked.
    stable: int = 0
    #: Requests parked while the sequencer lacks a quorum.
    deferred: Dict[int, Message] = field(default_factory=dict)


class FailoverSequencer(SequencerAbcast):
    """Fixed-sequencer total-order broadcast that survives its faults.

    Args:
        network: the simulated network; all ``network.n`` endpoints
            participate.
        sequencer: pid of the initial sequencing process (default 0).
        failover_delay: virtual time between a sequencer crash (or a
            partition suspicion) and the successor election completing
            (models failure-detection confirmation).
    """

    KINDS = (REQ, SEQ, NEWSEQ, FETCH, LOG, ACK, STABLE)

    def __init__(
        self,
        network: Network,
        *,
        sequencer: int = 0,
        failover_delay: float = 5.0,
    ) -> None:
        #: ``sequencer`` is the *latest-epoch* sequencer (what a fresh
        #: observer with a global view would name); individual
        #: participants may lag — see ``_psequencer``.
        super().__init__(network, sequencer=sequencer)
        self.failover_delay = failover_delay
        #: Completed failovers: (time, old sequencer, new sequencer).
        self.failovers: List[tuple] = []
        #: Degraded-mode incidents: (time, pid, reason, msg id|None).
        self.degraded: List[tuple] = []
        # --- quorum awareness (armed by bind_detector) ---
        self.detector = None
        self.degraded_mode = "defer"
        #: Quorum machinery active (detector bound with safeguards on).
        #: A plain attribute, not a property — it is read on every
        #: accepted delivery and the method-call cost showed up in
        #: profiles of the 1000-process workload.
        self._gated = False
        # --- sequencer-side state, per pid *currently holding the
        # role in its own view* (volatile: dies with a crash, dropped
        # when an epoch fence demotes the holder; the core's single
        # ``_next_seq``/``_ids`` go unused) ---
        self._seq_state: Dict[int, _SeqState] = {sequencer: _SeqState()}
        # --- per-participant state ---
        #: Each participant's view of who the sequencer is.  Diverges
        #: across a partition (that is the point); reconciled by the
        #: NEWSEQ announcement.
        self._psequencer: Dict[int, int] = {
            pid: sequencer for pid in range(network.n)
        }
        #: Delivered entries retained per participant; feeds elections
        #: and peer snapshots.
        self._plog: Dict[int, Dict[int, Dict[str, Any]]] = {
            pid: {} for pid in range(network.n)
        }
        #: Participant's current epoch (stale-epoch relays dropped).
        self._pepoch: Dict[int, int] = {pid: 0 for pid in range(network.n)}
        #: Participant's known stable watermarks, **per announcing
        #: epoch** (quorum-gated mode).  A watermark from epoch ``e``
        #: vouches only for entries of epoch >= ``e``: an election
        #: preserves the stable prefix position-for-position going
        #: *forward*, so a newer epoch's watermark says nothing about
        #: a stale buffered entry from an older epoch still awaiting
        #: its fence (the split-brain heal race).
        self._pstable: Dict[int, Dict[int, int]] = {
            pid: {} for pid in range(network.n)
        }
        #: Participants whose delivery is gated (snapshot install).
        self._suspended: Set[int] = set()
        #: Sender pid -> msg id -> request, for requests not yet seen
        #: in the delivered order (durable client intent; resent, as
        #: priced when first sent, on failover and recovery).
        self._unsequenced: Dict[int, Dict[int, Message]] = {
            pid: {} for pid in range(network.n)
        }
        #: Recovery-completion callbacks: pid -> thunk fired once the
        #: replayed delivery reaches the LOG reply's ``upto`` target.
        self._on_caught_up: Dict[int, Any] = {}
        #: Open tracing span covering sequencer crash -> election done.
        self._failover_span: Optional[Any] = None

    # ------------------------------------------------------------------
    # Quorum awareness
    # ------------------------------------------------------------------

    def bind_detector(
        self,
        detector,
        *,
        quorum_aware: bool = True,
        degraded: str = "defer",
    ) -> None:
        """Arm partition handling with a heartbeat failure detector.

        With ``quorum_aware=True`` (default) this enables quorum-gated
        delivery, minority degradation and majority-side partition
        failover.  ``quorum_aware=False`` keeps the detector driving
        elections but strips every quorum safeguard — the split-brain
        negative control.
        """
        if degraded not in ("defer", "refuse"):
            raise ProtocolError(
                f"unknown degraded mode {degraded!r}; expected 'defer' "
                "or 'refuse'"
            )
        self.detector = detector
        self.degraded_mode = degraded
        self._gated = quorum_aware
        detector.on_change = self.on_detector_event

    def close(self) -> None:
        super().close()
        self._on_caught_up = {}
        if self.detector is not None:
            self.detector.on_change = None

    def quorum_size(self) -> int:
        """The majority threshold used for stability and elections."""
        return self.network.n // 2 + 1

    def _quorate(self, pid: int) -> bool:
        """Does ``pid``'s own detector view still see a majority?"""
        return self.detector.alive_count(pid) >= self.quorum_size()

    def _degrade(
        self, pid: int, reason: str, msg_id: Optional[int] = None
    ) -> None:
        """Record one degraded-mode decision taken at ``pid``."""
        self.degraded.append((self.network.sim.now, pid, reason, msg_id))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "abcast.degraded", pid=pid, reason=reason, id=msg_id
            )

    def _is_sequencer(self, pid: int) -> bool:
        """True iff ``pid``'s own view names itself sequencer."""
        return self._psequencer[pid] == pid

    def _state(self, pid: int) -> _SeqState:
        state = self._seq_state.get(pid)
        if state is None:
            state = self._seq_state[pid] = _SeqState()
        return state

    # ------------------------------------------------------------------
    # AtomicBroadcast API
    # ------------------------------------------------------------------

    def broadcast(
        self, sender: int, payload: Any, price: Optional[int] = None
    ) -> None:
        """Send the payload to the sequencer (in the sender's view)."""
        if (
            self._gated
            and self.degraded_mode == "refuse"
            and not self._quorate(sender)
        ):
            self._degrade(sender, "refused")
            raise PartitionedError(
                f"P{sender} is on the minority side of a partition "
                "(degraded mode 'refuse'): broadcast rejected"
            )
        msg_id = next(self._next_msg_id)
        body = {"sender": sender, "payload": payload, "id": msg_id}
        request = self._unsequenced[sender][msg_id] = self.request(
            REQ, body, price
        )
        self.network.send(sender, self._psequencer[sender], request)

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------

    def handle(self, pid: int, src: int, message: Message) -> None:
        """Process an ``abc-*`` message arriving at endpoint ``pid``."""
        if message.kind == REQ:
            if not self._is_sequencer(pid):
                # Stale address (pre-failover sender, or a frame
                # retried into a fenced ex-sequencer): forward to
                # the sequencer in *this* pid's view.
                self.network.send(pid, self._psequencer[pid], message)
                return
            self._sequence(pid, message)
        elif message.kind == SEQ:
            entry = message.payload
            if self._gated and "stable" in entry:
                self._learn_stable(pid, entry["stable"], entry["epoch"])
            if self._accept(pid, entry) and self._gated:
                self._send_ack(pid, src, entry)
            self._drain(pid)
        elif message.kind == NEWSEQ:
            self._on_new_sequencer(pid, message.payload)
        elif message.kind == FETCH:
            if not self._is_sequencer(pid):
                self.network.send(pid, self._psequencer[pid], message)
                return
            self._serve_fetch(pid, message.payload)
        elif message.kind == LOG:
            self._on_log(pid, src, message.payload)
        elif message.kind == ACK:
            self._on_ack(pid, message.payload)
        elif message.kind == STABLE:
            body = message.payload
            self._learn_stable(pid, body["stable"], body["epoch"])
            self._drain(pid)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    # ------------------------------------------------------------------
    # Crash / recovery hooks (driven by the cluster / fault injector)
    # ------------------------------------------------------------------

    def on_crash(self, pid: int) -> None:
        """Participant ``pid`` crashed; wipe its volatile state."""
        super().on_crash(pid)
        self._plog[pid].clear()
        self._pstable[pid] = {}
        self._suspended.discard(pid)
        self._on_caught_up.pop(pid, None)
        # Sequencing state (if this pid led in its own view) was in
        # the crashed process's memory.
        self._seq_state.pop(pid, None)
        if pid == self.sequencer:
            failed_epoch = self.epoch
            self._open_failover_span(failed=pid, epoch=failed_epoch)
            self.network.sim.schedule(
                self.failover_delay,
                lambda: self._elect(pid, failed_epoch),
            )

    def recover(
        self, pid: int, *, cursor: int = 0, on_caught_up=None
    ) -> None:
        """Participant ``pid`` restarted; catch up from ``cursor``.

        ``cursor=0`` replays the whole totally-ordered log (the
        process starts from a fresh store); a positive cursor resumes
        after a peer snapshot covering deliveries ``0..cursor-1``.
        Also re-sends the participant's still-unsequenced requests —
        their original frames may have died with the old sequencer.

        ``on_caught_up`` fires once the replay has re-delivered every
        entry the sequencer's log held when it served the fetch.  The
        cluster gates the restarted *client* on it: answering a local
        query from the half-replayed store would read values older
        than ones this process's earlier responses already exposed.
        """
        # A restarted process rejoins with the cluster's current view
        # of the sequencer (it re-learns everything else from the LOG
        # reply anyway).
        self._psequencer[pid] = self.sequencer
        # Stay gated until the LOG reply arrives: it carries the
        # current epoch, which is what lets _drain tell a live relay
        # from a stale pre-crash frame still floating in the network.
        self._suspended.add(pid)
        self._expected[pid] = cursor
        self._restart_log(pid, cursor)
        self._buffer[pid] = {
            seq: entry
            for seq, entry in self._buffer[pid].items()
            if seq >= cursor
        }
        if on_caught_up is not None:
            self._on_caught_up[pid] = on_caught_up
        self.network.send(
            pid, self.sequencer, Message(FETCH, {"pid": pid, "from": cursor})
        )
        for request in list(self._unsequenced[pid].values()):
            self.network.send(pid, self.sequencer, request)
        self._drain(pid)

    def suspend(self, pid: int) -> None:
        """Gate delivery at ``pid`` (while a snapshot is in flight)."""
        self._suspended.add(pid)

    def install_snapshot(
        self, pid: int, cursor: int, log: Dict[int, Dict[str, Any]]
    ) -> None:
        """Adopt a peer's retained log up to ``cursor`` (state transfer).

        The retained log keeps the recovered participant eligible as
        an election donor for entries it did not re-deliver itself.
        """
        self._plog[pid] = {
            seq: entry for seq, entry in log.items() if seq < cursor
        }

    def retained_log(self, pid: int) -> Dict[int, Dict[str, Any]]:
        """``pid``'s retained delivered entries (for peer snapshots)."""
        return dict(self._plog[pid])

    # ------------------------------------------------------------------
    # Sequencer internals
    # ------------------------------------------------------------------

    def _sequence(self, pid: int, message: Message) -> None:
        state = self._state(pid)
        request = message.payload
        if request["id"] in state.ids:
            return  # duplicate or retried request: already ordered
        if self._gated and not self._quorate(pid):
            # Graceful degradation: a sequencer that cannot see a
            # majority must not extend the order (its relays could
            # never stabilize, and in the split-brain case they would
            # diverge from the majority's).  Park the request; it is
            # replayed when quorum returns, or re-driven by its
            # sender's unsequenced retry after an epoch fence.
            if request["id"] not in state.deferred:
                state.deferred[request["id"]] = message
                self._degrade(pid, "sequence-deferred", request["id"])
            return
        state.ids.add(request["id"])
        stamped = self._stamp(state.next_seq, self._pepoch[pid], request)
        if self._gated:
            stamped["stable"] = state.stable
        state.next_seq += 1
        state.log[stamped["seq"]] = stamped
        self.network.send_to_all(pid, message.relay(SEQ, stamped))

    def _serve_fetch(self, pid: int, body: Dict[str, Any]) -> None:
        state = self._state(pid)
        start = body["from"]
        entries = [
            state.log[seq]
            for seq in range(start, state.next_seq)
            if seq in state.log
        ]
        # Catch-up target for the recovering participant's client
        # gate.  Under quorum gating nothing past the stable watermark
        # is deliverable by anyone, so the watermark caps the target
        # (waiting for more would deadlock the restart).
        upto = state.next_seq
        if self._gated:
            upto = min(upto, state.stable)
        reply = {
            "entries": entries,
            "epoch": self._pepoch[pid],
            "upto": max(start, upto),
        }
        if self._gated:
            reply["stable"] = state.stable
        self.network.send(pid, body["pid"], Message(LOG, reply))

    def _on_ack(self, pid: int, body: Dict[str, Any]) -> None:
        if not self._is_sequencer(pid):
            return  # stale ack to a fenced or retired ex-sequencer
        if body["epoch"] != self._pepoch[pid]:
            return
        state = self._state(pid)
        state.acks.setdefault(body["seq"], set()).add(body["from"])
        quorum = self.quorum_size()
        advanced = False
        while len(state.acks.get(state.stable, ())) >= quorum:
            state.stable += 1
            advanced = True
        if advanced:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "abcast.stable", pid=pid, stable=state.stable
                )
            self.network.send_to_all(
                pid,
                Message(
                    STABLE,
                    {"stable": state.stable, "epoch": self._pepoch[pid]},
                ),
            )

    def _send_ack(self, pid: int, relayer: int, entry: Dict[str, Any]) -> None:
        self.network.send(
            pid,
            relayer,
            Message(
                ACK,
                {"seq": entry["seq"], "epoch": entry["epoch"], "from": pid},
            ),
        )

    def _learn_stable(self, pid: int, stable: int, epoch: int) -> None:
        known = self._pstable[pid]
        if stable > known.get(epoch, 0):
            known[epoch] = stable

    def _stable_for(self, pid: int, entry_epoch: int) -> int:
        """Delivery bound for an entry of the given epoch.

        Only watermarks announced in epoch <= the entry's count: a
        stable position in epoch ``e`` names epoch-``e``'s entry at
        that position, which later epochs are guaranteed (by the
        election's renumbering) to keep — but an *older* entry at the
        same position may be an uncommitted stale one the fence has
        not yet swept away.
        """
        return max(
            (
                stable
                for epoch, stable in self._pstable[pid].items()
                if epoch <= entry_epoch
            ),
            default=0,
        )

    # ------------------------------------------------------------------
    # Participant internals
    # ------------------------------------------------------------------

    def _accept(self, pid: int, entry: Dict[str, Any]) -> bool:
        """Buffer a relay; True iff it is new (and worth acking)."""
        if entry["epoch"] < self._pepoch[pid]:
            return False  # renumbered away by a failover this pid saw
        seq = entry["seq"]
        if seq < self._expected[pid]:
            return False  # duplicate of an already-delivered relay
        existing = self._buffer[pid].get(seq)
        if existing is not None and existing["epoch"] >= entry["epoch"]:
            return False  # duplicate buffered relay
        self._buffer[pid][seq] = entry
        return True

    def _drain(self, pid: int) -> None:
        if pid in self._suspended:
            return
        # Hot loop: locals for the per-pid maps; ``expected``/``pepoch``
        # are re-read after each delivery callback, which may advance
        # them through events it triggers.
        buffer = self._buffer[pid]
        plog = self._plog[pid]
        gated = self._gated
        expected = self._expected[pid]
        pepoch = self._pepoch[pid]
        while expected in buffer:
            entry = buffer[expected]
            if gated and expected >= self._stable_for(pid, entry["epoch"]):
                # Quorum-gated delivery: the relay is here but no
                # watermark of its own (or an older) epoch covers it
                # yet.  A newer epoch's watermark does not count — it
                # vouches for the *renumbered* entry at this position,
                # not a stale buffered one (leave that to the fence).
                break
            del buffer[expected]
            if entry["epoch"] < pepoch:
                # A stale pre-failover frame occupying a slot the
                # election renumbered; the current sequencer will
                # (re)relay this slot's real entry.  Do not advance.
                break
            plog[entry["seq"]] = entry
            self._expected[pid] = expected + 1
            if pid == entry["sender"]:
                # Retire the retained request only when the *sender*
                # delivers it.  Another participant's delivery is not
                # enough: that participant (e.g. the sequencer, which
                # delivers its own relays first) may crash as the only
                # process that saw the entry, and then the sender's
                # retained copy is what the retry path resends.
                self._unsequenced[pid].pop(entry["id"], None)
            run = [entry]
            self._deliver_run(pid, run)
            expected = self._expected[pid]
            pepoch = self._pepoch[pid]

    def _on_new_sequencer(self, pid: int, body: Dict[str, Any]) -> None:
        # Equal epochs still proceed: the election already fenced the
        # live participants to the new epoch, and this announcement is
        # what triggers their in-flight-request retry.
        if body["epoch"] < self._pepoch[pid]:
            return
        self._pepoch[pid] = body["epoch"]
        new = body["sequencer"]
        self._psequencer[pid] = new
        if self._gated and "stable" in body:
            self._learn_stable(pid, body["stable"], body["epoch"])
        if new != pid and pid in self._seq_state:
            # The epoch fence reaching a partition-healed minority
            # ex-sequencer: its sequencing authority (and deferred
            # queue) die here; parked requests are re-driven by their
            # senders' unsequenced retry below.
            del self._seq_state[pid]
        # Buffered relays from older epochs were renumbered; drop them.
        self._buffer[pid] = {
            seq: entry
            for seq, entry in self._buffer[pid].items()
            if entry["epoch"] >= body["epoch"]
        }
        # In-flight-request retry: everything this participant has
        # broadcast but not yet seen delivered may have died with the
        # old sequencer (or sat deferred on a fenced minority one).
        for request in list(self._unsequenced[pid].values()):
            self.network.send(pid, new, request)
        self._drain(pid)

    def _on_log(self, pid: int, src: int, body: Dict[str, Any]) -> None:
        if body["epoch"] > self._pepoch[pid]:
            self._pepoch[pid] = body["epoch"]
        if self._gated and "stable" in body:
            self._learn_stable(pid, body["stable"], body["epoch"])
        # The LOG reply completes recovery: the participant now knows
        # the current epoch, so delivery can resume (see recover()).
        self._suspended.discard(pid)
        for entry in body["entries"]:
            if self._accept(pid, entry) and self._gated:
                self._send_ack(pid, src, entry)
        self._drain(pid)
        callback = self._on_caught_up.get(pid)
        if callback is not None and self._expected[pid] >= body.get(
            "upto", 0
        ):
            del self._on_caught_up[pid]
            callback()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def on_detector_event(
        self, kind: str, observer: int, target: int, now: float
    ) -> None:
        """Detector hook: drive partition failover and deferral replay.

        Installed as the bound detector's ``on_change``.
        """
        if kind == "trust":
            # Quorum may be back: replay requests deferred while the
            # observer (if it leads in its own view) was degraded.
            if (
                self._is_sequencer(observer)
                and observer in self._seq_state
                and self._quorate(observer)
            ):
                state = self._seq_state[observer]
                deferred = list(state.deferred.values())
                state.deferred.clear()
                for message in deferred:
                    self._sequence(observer, message)
            return
        if kind != "suspect":
            return
        leader = self._psequencer[observer]
        if target != leader or observer == leader:
            return
        if self.network.is_down(observer):
            return
        # Confirmation delay mirrors the crash path; the epoch guard
        # dedups the elections every majority observer schedules.
        failed_epoch = self._pepoch[observer]
        self._open_failover_span(
            failed=target, epoch=failed_epoch, cause="suspicion"
        )
        self.network.sim.schedule(
            self.failover_delay,
            lambda: self._elect_partition(observer, target, failed_epoch),
        )

    def _elect_partition(
        self, observer: int, failed: int, failed_epoch: int
    ) -> None:
        if self.network.is_down(observer):
            return
        if (
            self._psequencer[observer] != failed
            or self._pepoch[observer] != failed_epoch
            or self.epoch != failed_epoch
        ):
            return  # superseded by a newer election or a heal
        if not self.detector.is_suspected(observer, failed):
            return  # the suspicion did not survive the confirmation delay
        view = self._view(observer)
        if self._minority(observer, view):
            return
        self._run_election(self._ring_successor(failed, view), view, failed)

    def _elect(self, failed: int, failed_epoch: int) -> None:
        """Crash-path election (scheduled by :meth:`on_crash`).

        Runs even if the sequencer restarted within the detection
        window: its sequencing state is gone, so a handoff is still
        needed (possibly re-electing the same pid).
        """
        if self.epoch != failed_epoch or self.sequencer != failed:
            return  # superseded by a newer election
        successor = self._ring_successor(failed, self._up())
        live = self._view(successor)
        if self._minority(successor, live):
            return
        self._run_election(successor, live, failed)

    def _open_failover_span(self, **attrs: Any) -> None:
        """Trace sequencer loss -> election done (one span at a time)."""
        tracer = get_tracer()
        if tracer.enabled and self._failover_span is None:
            self._failover_span = tracer.begin("abcast.failover", **attrs)

    def _up(self) -> List[int]:
        network = self.network
        return [pid for pid in range(network.n) if not network.is_down(pid)]

    def _view(self, of: int) -> List[int]:
        """The up pids ``of`` can exchange frames with right now."""
        reachable = self.network.reachable
        return [
            pid
            for pid in self._up()
            if reachable(of, pid) and reachable(pid, of)
        ]

    def _minority(self, pid: int, view: List[int]) -> bool:
        """True (and recorded) iff ``pid`` must not elect from ``view``.

        Electing on a minority fragment — after a partition suspicion
        or a crash alike — would be the split brain the quorum rule
        exists to prevent; the majority side elects via its own
        suspicion of the lost sequencer.
        """
        if self._gated and len(view) < self.quorum_size():
            self._degrade(pid, "election-aborted")
            return True
        return False

    def _ring_successor(self, failed: int, eligible: List[int]) -> int:
        """The first eligible pid after ``failed`` in ring order."""
        n = self.network.n
        for step in range(1, n + 1):
            if (failed + step) % n in eligible:
                return (failed + step) % n
        raise SequencerUnavailable(
            "no live candidate to take over sequencing"
        )

    def _run_election(
        self, successor: int, live: List[int], failed: int
    ) -> None:
        self.epoch += 1
        old = self.sequencer
        self.sequencer = successor
        self.failovers.append((self.network.sim.now, old, successor))
        if self._failover_span is not None:
            self._failover_span.end(successor=successor, epoch=self.epoch)
            self._failover_span = None
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "abcast.epoch",
                epoch=self.epoch,
                sequencer=successor,
                failed=failed,
            )

        # --- state collection (atomic stand-in for a gather round) ---
        # Epoch-fence the collected participants in the same atomic
        # step: pre-crash relays still in flight must not extend any
        # delivered prefix past the state the election just gathered
        # (the renumbering below is computed from exactly this state).
        # Participants *outside* the view (a partitioned minority) are
        # deliberately not touched: the NEWSEQ announcement fences
        # them whenever the network lets it through.
        for pid in live:
            self._pepoch[pid] = self.epoch
            self._psequencer[pid] = successor
        donor = max(live, key=lambda pid: self._expected[pid])
        delivered_upto = self._expected[donor]
        log: Dict[int, Dict[str, Any]] = {}
        for pid in live:
            for seq, entry in self._plog[pid].items():
                if seq < delivered_upto:
                    log.setdefault(seq, entry)
        # Undelivered entries exist only in buffers (no live process
        # delivered past `delivered_upto`); renumber them contiguously
        # in old-sequence order, deduplicated by message id.  In
        # quorum-gated mode the stable prefix is contiguous and fully
        # present in the gathered buffers (each stable entry was acked
        # by a quorum, which intersects this majority view), so stable
        # entries land back on their original numbers — nothing any
        # minority participant already delivered can move.
        pending: Dict[int, Dict[str, Any]] = {}
        for pid in live:
            for entry in self._buffer[pid].values():
                if entry["seq"] >= delivered_upto:
                    pending.setdefault(entry["id"], entry)
        renumbered = sorted(pending.values(), key=lambda e: e["seq"])

        # --- install the rebuilt sequencer state (restamped) ---
        if sorted(log) != list(range(len(log))):  # pragma: no cover
            raise ProtocolError(
                f"failover log has a gap below sequence {len(log)}"
            )
        state = _SeqState()
        for seq, entry in enumerate(
            [log[seq] for seq in sorted(log)] + renumbered
        ):
            stamped = dict(entry)
            stamped["seq"] = seq
            stamped["epoch"] = self.epoch
            state.log[seq] = stamped
            state.ids.add(stamped["id"])
        next_seq = state.next_seq = len(state.log)
        if self._gated:
            # Watermarks known to the gathered view all come from
            # epochs before this election (the epoch guard in _elect /
            # _elect_partition ensures no newer epoch existed), and
            # the renumbering preserved their prefixes, so the new
            # epoch adopts the largest one.
            known = max(
                self._stable_for(pid, self.epoch) for pid in live
            )
            state.stable = min(max(delivered_upto, known), next_seq)
            for seq, entry in state.log.items():
                entry["stable"] = state.stable
        self._seq_state[successor] = state
        # The failed leader's own state is NOT cleared here: on the
        # crash path on_crash already wiped it, and on the partition
        # path it lives across the cut — clearing it would be the
        # oracle leak this refactor removes.  The NEWSEQ fence retires
        # it instead.

        # --- repair over the real network ---
        announcement = {"epoch": self.epoch, "sequencer": successor}
        if self._gated:
            announcement["stable"] = state.stable
        # Every *up* pid gets the announcement, including ones the
        # successor cannot currently reach: the reliable shim retries
        # across the cut, so the fence and the redirect arrive with
        # the heal — that is the post-heal reconciliation trigger.
        up = self._up()
        for dst in up:
            self.network.send(
                successor, dst, Message(NEWSEQ, dict(announcement))
            )
        base = min(self._expected[pid] for pid in live)
        for seq in range(base, state.next_seq):
            for dst in up:
                self.network.send(successor, dst, Message(SEQ, state.log[seq]))
