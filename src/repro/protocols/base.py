"""Shared scaffolding for the replicated-DSM protocols (Section 5).

A :class:`Cluster` wires together the simulator, the network, an
atomic-broadcast implementation and one :class:`BaseProcess` per
participant, then drives per-process *workloads* (sequences of
:class:`~repro.protocols.store.MProgram`) through the protocol under
test.  Processes are sequential, as the model requires: each issues
its next m-operation only after receiving the response of the
previous one (well-formedness, Section 2.2).

Protocol subclasses implement two hooks:

* :meth:`BaseProcess.on_invoke` — what happens when the client issues
  an m-operation (classify update vs. query conservatively via
  ``MProgram.may_write`` and start the protocol's actions).
* :meth:`BaseProcess.handle_message` — protocol-specific messages
  (e.g. the Fig-6 "query"/"query response").

Atomic-broadcast and heartbeat traffic never reaches a process: those
layers claim their message kinds on the network
(:meth:`~repro.sim.network.Network.bind`).

**Landing points.**  On a clean run (no monitor, not fault-tolerant)
the fixed sequencer's relays land lazily (:mod:`repro.abcast.
sequencer`): a replica applies the updates that have reached it when
it next acts.  :attr:`Cluster.land` runs for a process at the start
of every invocation (:meth:`BaseProcess._issue_next`) and before every
frame dispatched to it; :meth:`Cluster.run` and :meth:`Cluster.
finalize` land everything.  Process code that reads the replica from
any other event — a protocol's own timer — must run ``cluster.land``
for it first.  Whatever lands at a process arrives as one run
(:meth:`BaseProcess.land_run`, one call per run, queued or lazy): each
update's first delivery is recorded in the ``~ww`` order, the issuer
applies its own update through :meth:`BaseProcess.on_abcast_deliver`,
and every other stretch of the run goes to the replica's store in one
call (:meth:`~repro.protocols.store.VersionedStore.apply_run`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.abcast.interface import AtomicBroadcast
from repro.abcast.sequencer import SequencerAbcast
from repro.core.history import History
from repro.errors import ProcessCrashed, ProtocolError, SimulationError
from repro.obs import get_tracer
from repro.protocols.recorder import HistoryRecorder, OpRecord
from repro.protocols.store import ExecutionRecord, MProgram, StateLog, VersionedStore
from repro.sim.detector import HeartbeatDetector
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import EMPTY_SIZE, Message, Network, NetworkStats

#: A workload: one program sequence per process.
Workloads = Sequence[Sequence[MProgram]]

#: Wire kinds of the peer-snapshot recovery exchange.
SNAP_REQ = "snap-req"
SNAP_RESP = "snap-resp"

#: What an update's abcast payload is charged besides its program: an
#: int ``uid`` and the two member names.
_UPDATE_PRICE = EMPTY_SIZE + 8 + len("uid") + len("program")


@dataclass
class PendingOp:
    """Book-keeping for an m-operation between invocation and response."""

    uid: int
    program: MProgram
    inv: float
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Open tracing span covering invocation → response (None when no
    #: tracer is installed); ended by :meth:`BaseProcess.respond`.
    span: Optional[Any] = None


class BaseProcess:
    """One participant: a sequential client plus its replica state."""

    #: The protocol answers *queries* from abcast deliveries too (the
    #: aggregate-object baseline broadcasts everything); recovery then
    #: treats an unanswered query like an unanswered update.
    abcast_answers_queries = False

    def __init__(self, pid: int, cluster: "Cluster") -> None:
        self.pid = pid
        self.cluster = cluster
        self.store = VersionedStore(cluster.initial_values, cluster.state_log)
        self._programs: List[MProgram] = []
        self._next_program = 0
        self._pending: Optional[PendingOp] = None
        #: True while the replica is down (between crash and recover).
        self.crashed = False
        #: uids this process has generated responses for — client-side
        #: knowledge, so it survives replica crashes and lets replayed
        #: own-update deliveries be recognised as already answered.
        self._responded_uids: set = set()
        #: An invocation came due while the process was down.
        self._issue_deferred = False
        self._awaiting_snapshot = False

    # ------------------------------------------------------------------
    # Client side: sequential issue loop
    # ------------------------------------------------------------------

    def load(self, programs: Sequence[MProgram]) -> None:
        """Install this process's workload."""
        self._programs = list(programs)
        self._next_program = 0

    def start(self) -> None:
        """Schedule the first invocation (with per-process jitter)."""
        delay = self.cluster.rng.uniform(0.0, self.cluster.start_jitter)
        self.cluster.sim.post(delay, self._issue_next)

    def _issue_next(self) -> None:
        land = self.cluster.land
        if land is not None:
            land(self.pid)
        if self.crashed:
            # The client's next request waits out the downtime and is
            # re-driven by recovery.
            self._issue_deferred = True
            return
        if self._pending is not None:
            raise ProtocolError(
                f"P{self.pid} issued an m-operation while one is pending"
            )
        if self._next_program >= len(self._programs):
            return
        program = self._programs[self._next_program]
        self._next_program += 1
        uid = self.cluster.next_uid()
        inv = self.cluster.sim.now
        self._pending = PendingOp(uid=uid, program=program, inv=inv)
        tracer = get_tracer()
        if tracer.enabled:
            # The operation's issue → abcast → apply → respond arc
            # crosses simulator events, so the span is unscoped and
            # ended by respond().
            self._pending.span = tracer.begin(
                "op.update" if program.may_write else "op.query",
                uid=uid,
                process=self.pid,
                program=program.name,
            )
        self.cluster.recorder.begin(uid, inv, program.name)
        self.on_invoke(self._pending)

    def broadcast_update(
        self, abcast: AtomicBroadcast, pending: PendingOp
    ) -> None:
        """Atomically broadcast ``pending``'s program, the payload
        priced from the program's stated price: no request walks its
        program."""
        program = pending.program
        abcast.broadcast(
            self.pid,
            {"uid": pending.uid, "program": program},
            _UPDATE_PRICE + program.price,
        )

    def respond(self, pending: PendingOp, record: ExecutionRecord) -> None:
        """Generate the response event for the pending m-operation."""
        if self._pending is None or self._pending.uid != pending.uid:
            raise ProtocolError(
                f"P{self.pid}: response for {pending.uid} but pending is "
                f"{self._pending.uid if self._pending else None}"
            )
        resp = self.cluster.sim.now
        if not resp > pending.inv:
            # Zero-latency local actions still consume local processing
            # time; keep real-time order sound by nudging the response.
            resp = pending.inv + self.cluster.local_delay
        completed = OpRecord(
            uid=pending.uid,
            process=self.pid,
            name=pending.program.name,
            inv=pending.inv,
            resp=resp,
            ops=record.ops,
            reads_from=dict(record.reads_from),
            result=record.result,
            is_update=pending.program.may_write,
        )
        self.cluster.recorder.complete(completed)
        if self.cluster.monitor is not None:
            self.cluster.monitor.complete(completed, now=self.cluster.sim.now)
        if pending.span is not None:
            pending.span.end(resp=resp)
            pending.span = None
        self._responded_uids.add(pending.uid)
        self._pending = None
        # Schedule the next invocation strictly after the (possibly
        # clamped) response time, preserving well-formedness even when
        # the think time is zero or smaller than the clamp.
        delay = (
            (resp - self.cluster.sim.now)
            + max(self.cluster.think_time(), self.cluster.local_delay)
        )
        self.cluster.sim.post(delay, self._issue_next)

    @property
    def done(self) -> bool:
        """True iff the workload is exhausted and nothing is pending."""
        return self._pending is None and self._next_program >= len(
            self._programs
        )

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile replica state (store, protocol buffers).

        The *client's* pending request is not replica state: it
        survives and is re-driven on recovery, so a crash can delay an
        m-operation's response but never orphan it.
        """
        if self.crashed:
            raise ProcessCrashed(f"P{self.pid} crashed twice")
        self.crashed = True
        self._awaiting_snapshot = False
        self.store.reset()

    def recover(self) -> None:
        """Rejoin after a restart, rebuilding the replica.

        ``cluster.recovery`` selects the strategy: ``"replay"``
        re-delivers the atomic-broadcast log from the start onto the
        wiped store; ``"snapshot"`` installs a live peer's exported
        state and resumes delivery from its cursor (the abcast layer
        fills the tail).
        """
        if not self.crashed:
            raise ProcessCrashed(f"P{self.pid} recovered while up")
        self.crashed = False
        abcast = self.cluster.abcast
        if abcast is None:
            self._resume_client()
            return
        # An unresponded broadcast operation forces replay recovery
        # even in snapshot mode: its response can only be generated by
        # (re)delivering it, and a snapshot whose cursor lies past the
        # operation's slot folds it into adopted state silently — the
        # client would wait forever.  Updates always ride the abcast;
        # protocols that broadcast queries too (the aggregate-object
        # baseline) set ``abcast_answers_queries``.
        unanswered_update = (
            self._pending is not None
            and (
                self._pending.program.may_write
                or self.abcast_answers_queries
            )
            and self._pending.uid not in self._responded_uids
        )
        if (
            self.cluster.recovery == "snapshot"
            and self.cluster.n > 1
            and not unanswered_update
        ):
            peer = self._pick_snapshot_peer()
            if peer is not None:
                abcast.suspend(self.pid)
                self._awaiting_snapshot = True
                self.cluster.network.send(
                    self.pid, peer, Message(SNAP_REQ, {"pid": self.pid})
                )
                return
        # The client resumes only once the replay catches up to the
        # sequencer's log: a local query answered from the
        # half-replayed store could read values older than ones this
        # process's earlier responses already exposed (an illegal
        # triple under any condition with a total update order).
        abcast.recover(
            self.pid, cursor=0, on_caught_up=self._resume_client
        )

    def _pick_snapshot_peer(self) -> Optional[int]:
        """Deterministic donor choice: the lowest live peer."""
        down = self.cluster.network.down
        for pid in range(self.cluster.n):
            if pid != self.pid and pid not in down:
                return pid
        return None  # pragma: no cover - all peers down; fall back

    def _resume_client(self) -> None:
        """Re-drive the surviving client request and the issue loop."""
        pending = self._pending
        if pending is not None and pending.uid not in self._responded_uids:
            self.on_recover_pending(pending)
        if self._issue_deferred:
            self._issue_deferred = False
            self.cluster.sim.schedule(
                self.cluster.local_delay, self._issue_next
            )

    def on_recover_pending(self, pending: PendingOp) -> None:
        """Protocol hook: re-drive the m-operation open at crash time.

        Default: nothing — an update's broadcast is retried by the
        abcast layer itself and the response fires when the replayed
        delivery reaches this process.  Protocols whose queries span
        events (Fig-6) override this to restart the gather.
        """

    def dispatch(self, src: int, message: Message) -> None:
        """A frame for this process under lazy landing: a landing point."""
        self.cluster.land(self.pid)
        self.handle_message(src, message)

    def land_run(self, run: List[Dict[str, Any]], start: Optional[int]) -> None:
        """A gap-free run of atomic-broadcast deliveries at this process,
        at global positions ``start, start + 1, ...``.

        Total order makes every delivery stream an extension of one
        global sequence, kept once by position: ``ww_sequence`` (the
        ``~ww`` order) with each update's program and sender beside
        it, extended at a position's first delivery anywhere.  The
        issuer applies its own update through :meth:`on_abcast_deliver`,
        each stretch of others' goes to the store in one call (action
        A2), one new update at a time under a monitor (it reads each
        update's writes off the store).  A run the columns do not
        stand for (``start`` None: a split brain) lands entry by
        entry, first sight by uid.
        """
        cluster = self.cluster
        uids, programs = cluster.ww_sequence, cluster.ww_programs
        seen = len(uids)
        if (
            start is None
            or len(programs) != seen  # (a position recorded elsewhere)
            or start > seen
            or (start + len(run) > seen and not cluster._sight(run[seen - start:]))
        ):
            return self._land_entries(run)
        pid, store, senders = self.pid, self.store, cluster.ww_senders
        monitor, tracer = cluster.monitor, get_tracer()
        position, stop = start, start + len(run)
        while position < stop:
            # The stretch of others' updates up to the next own entry,
            # or, under a monitor, the next first-seen one.
            last = stop
            if pid in senders[position:stop]:
                last = senders.index(pid, position, stop)
            if monitor is not None and seen < last:
                last = max(position, seen)
            if tracer.enabled:
                for k in range(position, min(last + 1, stop)):
                    tracer.event(
                        "proto.apply", uid=uids[k], process=pid, sender=senders[k]
                    )
            if last > position:
                store.apply_run(programs[position:last], uids[position:last])
            if last == stop:
                return
            if senders[last] == pid:
                self.on_abcast_deliver(pid, run[last - start]["payload"])
            else:
                store.apply_run(programs[last:last + 1], uids[last:last + 1])
            if monitor is not None and last >= seen:
                cluster._notify_announce(uids[last], pid)
            position = last + 1

    def _land_entries(self, run: List[Dict[str, Any]]) -> None:
        """:meth:`land_run` one entry at a time, first sight by uid."""
        tracer = get_tracer()
        for entry in run:
            sender, payload, pid = entry["sender"], entry["payload"], self.pid
            uid = payload["uid"]
            if tracer.enabled:
                tracer.event("proto.apply", uid=uid, process=pid, sender=sender)
            if sender == pid:
                self.on_abcast_deliver(sender, payload)
            else:
                self.store.apply(payload["program"], uid)
            self.cluster.announce_sync(uid, pid)

    def on_abcast_deliver(self, sender: int, payload: Dict[str, Any]) -> None:
        """Atomic-broadcast delivery of this process's own broadcast.

        Action (A2) at the issuer, the default of every abcast
        protocol: apply the update and respond.  Every process
        applies; only the issuer observes the run (the record its
        response and the history need), so :meth:`land_run` applies
        everyone else's updates straight into the store.
        Tolerant of recovery replay: a re-delivered own update that
        was already answered is applied like anyone else's
        (rebuilding the replica) without generating a second response.
        """
        uid: int = payload["uid"]
        program: MProgram = payload["program"]
        if uid in self._responded_uids:
            self.store.apply(program, uid)
            return
        pending = self._pending
        if pending is None or pending.uid != uid:
            raise ProtocolError(
                f"P{self.pid}: delivery of own update {uid} but no "
                "matching pending m-operation"
            )
        self.respond(pending, self.store.execute(program, uid))

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def on_invoke(self, pending: PendingOp) -> None:
        """Start the protocol's actions for a newly issued m-operation."""
        raise NotImplementedError

    def handle_message(self, src: int, message: Message) -> None:
        """Protocol-specific point-to-point message.

        The base class owns the peer-snapshot recovery exchange; every
        protocol inherits it by delegating unknown kinds here.
        """
        if message.kind == SNAP_REQ:
            abcast = self.cluster.abcast
            reply = {
                "snapshot": self.store.export(),
                "cursor": abcast.cursor(self.pid),
                "log": abcast.retained_log(self.pid),
            }
            self.cluster.network.send(
                self.pid, src, Message(SNAP_RESP, reply)
            )
            return
        if message.kind == SNAP_RESP:
            if not self._awaiting_snapshot:
                return  # late duplicate after recovery completed
            self._awaiting_snapshot = False
            body = message.payload
            self.store.install(body["snapshot"])
            abcast = self.cluster.abcast
            abcast.install_snapshot(self.pid, body["cursor"], body["log"])
            # Same client gate as replay recovery: the donor's cursor
            # may trail this process's own pre-crash deliveries, so
            # the adopted state alone is not safe to answer from.
            abcast.recover(
                self.pid,
                cursor=body["cursor"],
                on_caught_up=self._resume_client,
            )
            return
        raise ProtocolError(
            f"P{self.pid}: unexpected message kind {message.kind!r}"
        )


@dataclass
class RunResult:
    """Everything measured in one protocol run.

    Attributes:
        history: the recorded execution as a checkable history.
        recorder: the raw per-m-operation records.
        net_stats: message counts/sizes from the network layer.
        duration: virtual time when the run completed.
        abcast_violation: non-None iff the abcast layer's delivery
            logs violated total order/integrity (should never happen;
            asserted by tests).
        ww_sequence: uids of broadcast m-operations in atomic-
            broadcast delivery order — the implementation-level
            ``~ww`` order (D 5.3).  Feeding these as ``extra_pairs``
            into the checkers makes the recorded base order satisfy
            the WW-constraint, unlocking the polynomial Theorem-7
            verification path for arbitrarily large runs.
    """

    history: History
    recorder: HistoryRecorder
    net_stats: NetworkStats
    duration: float
    abcast_violation: Optional[str]
    ww_sequence: List[int] = field(default_factory=list)

    def ww_pairs(self) -> List[tuple]:
        """``~ww`` as explicit pairs (successive deliveries chained)."""
        return [
            (a, b)
            for a, b in zip(self.ww_sequence, self.ww_sequence[1:])
        ]

    def latencies(self, *, updates: Optional[bool] = None) -> List[float]:
        """Response times, optionally filtered to updates/queries.

        Args:
            updates: None = all m-operations; True = updates only
                (conservative classification); False = queries only.
        """
        return [
            rec.resp - rec.inv
            for rec in self.recorder.records
            if updates is None or rec.is_update == updates
        ]

    def results_by_uid(self) -> Dict[int, Any]:
        """uid -> program return value."""
        return {rec.uid: rec.result for rec in self.recorder.records}


class Cluster:
    """A simulated deployment of one replication protocol.

    Args:
        n: number of processes/replicas.
        objects: the shared object names.
        initial_values: per-object initial values (default 0 for all,
            the paper's convention).
        latency: message-delay model (default Uniform[0.5, 1.5] —
            non-FIFO reordering happens naturally).
        seed: seed for all randomness (latencies, jitter, think time).
        abcast_factory: builds the atomic-broadcast layer; default
            fixed sequencer at pid 0.  Pass None for protocols that do
            not use atomic broadcast.
        local_delay: virtual cost of a purely local m-operation.
        think_jitter: upper bound of the uniform think time between a
            response and the next invocation.
        start_jitter: upper bound of the initial per-process stagger.
    """

    def __init__(
        self,
        n: int,
        objects: Sequence[str],
        *,
        process_class: Type[BaseProcess],
        initial_values: Optional[Mapping[str, Any]] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        abcast_factory: Optional[
            Callable[[Network], AtomicBroadcast]
        ] = SequencerAbcast,
        local_delay: float = 1e-3,
        think_jitter: float = 0.2,
        start_jitter: float = 0.5,
        think_fn: Optional[Callable[[random.Random], float]] = None,
        network_factory: Optional[
            Callable[[Simulator, int], Network]
        ] = None,
        monitor=None,
        fault_tolerant: bool = False,
        recovery: str = "replay",
        query_retry: float = 6.0,
    ) -> None:
        if n <= 0:
            raise SimulationError("cluster needs at least one process")
        if not objects:
            raise SimulationError("cluster needs at least one shared object")
        self.n = n
        self.objects: Tuple[str, ...] = tuple(sorted(objects))
        values = {obj: 0 for obj in self.objects}
        if initial_values:
            values.update(initial_values)
        self.initial_values: Dict[str, Any] = values
        self.local_delay = local_delay
        self.think_jitter = think_jitter
        self.start_jitter = start_jitter
        self.think_fn = think_fn
        #: optional live verifier (repro.core.monitor.LiveMonitor);
        #: fed broadcast deliveries and completions as they happen.
        self.monitor = monitor
        #: enables the crash/recovery surface (crash_process et al.)
        #: and the protocols' retry paths.
        self.fault_tolerant = fault_tolerant
        if recovery not in ("replay", "snapshot"):
            raise SimulationError(
                f"unknown recovery mode {recovery!r}; expected 'replay' "
                "or 'snapshot'"
            )
        self.recovery = recovery
        #: Fig-6 gather retry interval under fault tolerance.
        self.query_retry = query_retry
        self.rng = random.Random(seed)

        self.sim = Simulator()
        if network_factory is not None:
            self.network = network_factory(self.sim, n)
        else:
            self.network = Network(
                self.sim,
                n,
                latency=latency or UniformLatency(0.5, 1.5),
                seed=seed + 1,
            )
        self.abcast: Optional[AtomicBroadcast] = (
            abcast_factory(self.network) if abcast_factory else None
        )
        self.recorder = HistoryRecorder()
        self._uid_counter = itertools.count(1)
        #: uids of broadcast m-operations in delivery order — the
        #: ``~ww`` synchronization order of D 5.3/D 5.8 (identical at
        #: every replica by total order; captured at each uid's first
        #: delivery anywhere, which under a sequencer is stamp order).
        self.ww_sequence: List[int] = []
        #: Each update's program and sender beside ``ww_sequence``,
        #: while they stand for it (see :meth:`BaseProcess.land_run`).
        self.ww_programs: List[MProgram] = []
        self.ww_senders: List[int] = []
        #: The abcast's landing step, run for a process wherever it
        #: acts; None when every delivery is an event of its own.  A
        #: monitor reads deliveries as they happen and a fault-tolerant
        #: run crashes replicas, so both keep deliveries queued.
        self.land: Optional[Callable[[int], None]] = None
        if self.abcast is not None and monitor is None and not fault_tolerant:
            self.land = self.abcast.land_lazily()
        #: The states every in-step replica shares, by update position.
        self.state_log = StateLog(values)
        self.processes: List[BaseProcess] = []
        for pid in range(n):
            proc = process_class(pid, self)
            self.processes.append(proc)
            self.network.register(
                pid,
                proc.handle_message if self.land is None else proc.dispatch,
            )
            if self.abcast is not None:
                self.abcast.attach_run(pid, proc.land_run)
        self._ran = False
        #: uids already recorded in ``ww_sequence`` (recovery replay
        #: re-delivers them at pid 0; they must not be re-announced).
        self._announced: set = set()

    def attach_detector(self, detector: HeartbeatDetector) -> None:
        """Arm a heartbeat failure detector for this cluster.

        Wires its stop predicate to "every workload is done" — a
        detector that kept beating would hold the event queue open and
        the run would never quiesce.
        """
        if detector.should_stop is None:
            processes = self.processes
            detector.should_stop = lambda: all(
                proc.done for proc in processes
            )
        detector.start()

    def _sight(self, fresh: List[Dict[str, Any]]) -> bool:
        """Record the first delivery of ``fresh``, each at the next
        position, unless one was recorded already: False."""
        announced, uids, seen = self._announced, self.ww_sequence, len(self.ww_sequence)
        for entry in fresh:
            payload = entry["payload"]
            if payload["uid"] in announced:  # (a replayed or restamped update)
                announced.difference_update(uids[seen:])
                del uids[seen:], self.ww_programs[seen:], self.ww_senders[seen:]
                return False
            announced.add(payload["uid"])
            uids.append(payload["uid"])
            self.ww_programs.append(payload["program"])
            self.ww_senders.append(entry["sender"])
        return True

    def _notify_announce(self, uid: int, pid: int) -> None:
        """Feed one synchronization-order entry to the live monitor.

        Must run *after* process ``pid`` applied ``uid`` — the write
        set is read back from its store.
        """
        if self.monitor is None:
            return
        store = self.processes[pid].store
        self.monitor.announce(
            uid,
            tuple(
                obj
                for obj in store.objects
                if store.writer_of(obj) == uid
            ),
        )

    def announce_sync(self, uid: int, pid: int) -> None:
        """Record ``uid`` in the ``~ww`` sequence, by uid, once ``pid``
        applied it.

        Protocols that serialize updates through something other than
        atomic broadcast (the single-server baseline's arrival order)
        call this at execution time so their runs still expose the
        total synchronization order the Theorem-7 fast path and the
        live monitor key on, as does an abcast run that is no stretch
        of one global sequence.  Idempotent across recovery replays.
        """
        if uid in self._announced:
            return
        self._announced.add(uid)
        self.ww_sequence.append(uid)
        self._notify_announce(uid, pid)

    # ------------------------------------------------------------------
    # Cluster services used by processes
    # ------------------------------------------------------------------

    def next_uid(self) -> int:
        """Allocate a cluster-wide unique m-operation uid (> 0)."""
        return next(self._uid_counter)

    def think_time(self) -> float:
        """Think time between a response and the next invocation.

        Uses ``think_fn`` when supplied (scenario scripting needs
        deterministic spacing), else uniform jitter.
        """
        if self.think_fn is not None:
            return self.think_fn(self.rng)
        if self.think_jitter <= 0:
            return 0.0
        return self.rng.uniform(0.0, self.think_jitter)

    # ------------------------------------------------------------------
    # Fault injection surface (used by repro.sim.faults)
    # ------------------------------------------------------------------

    def crash_process(self, pid: int) -> None:
        """Crash process ``pid``: replica state and in-flight timers die.

        Requires ``fault_tolerant=True`` — the protocols' recovery
        paths (delivery dedup, request retry, gather restart) are only
        armed then, and crashing a cluster without them would just
        wedge the run.
        """
        if not self.fault_tolerant:
            raise SimulationError(
                "crash injection requires Cluster(fault_tolerant=True)"
            )
        self.processes[pid].crash()
        self.network.crash(pid)
        if self.abcast is not None:
            self.abcast.on_crash(pid)

    def restart_process(self, pid: int) -> None:
        """Restart a crashed process and run its recovery protocol."""
        self.network.restore(pid)
        self.processes[pid].recover()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(
        self,
        workloads: Workloads,
        *,
        max_events: int = 5_000_000,
        settle: float = 0.0,
    ) -> RunResult:
        """Run the workloads to completion and record the history.

        Args:
            workloads: one program sequence per process (shorter than
                ``n`` is allowed; missing entries are empty).
            max_events: hard simulator-event budget (guards against
                protocol livelock).
            settle: extra virtual time to run after all m-operations
                complete, letting in-flight replication traffic land
                (useful when asserting replica convergence).

        Returns:
            A :class:`RunResult` with the recorded history.
        """
        self.prepare(workloads)
        self.sim.run(max_events=max_events)
        self.network.land_held()
        if settle > 0:
            self.sim.run(until=self.sim.now + settle, max_events=max_events)
        return self.finalize(max_events=max_events)

    def close(self) -> None:
        """Break the reference cycles through this finished cluster.

        Every process points back at its cluster, and the network and
        the atomic broadcast hold the processes' handlers, so without
        this a dead cluster (stores, recorder, history) lives until a
        full cyclic collection.  Call once the run's results are read;
        the processes can no longer act.
        """
        for proc in self.processes:
            proc.cluster = None
        self.network.close()
        if self.abcast is not None:
            self.abcast.close()

    def prepare(self, workloads: Workloads) -> None:
        """Load workloads and schedule the first invocations.

        Split out of :meth:`run` so that exploration drivers
        (:mod:`repro.sim.explore`) can interleave message deliveries
        manually between quiescence points.
        """
        if self._ran:
            raise SimulationError("a Cluster instance is single-use")
        self._ran = True
        if len(workloads) > self.n:
            raise SimulationError(
                f"{len(workloads)} workloads for {self.n} processes"
            )
        for pid, programs in enumerate(workloads):
            self.processes[pid].load(programs)
        for proc in self.processes:
            proc.start()

    def finalize(self, *, max_events: int = 5_000_000) -> RunResult:
        """Validate completion and assemble the :class:`RunResult`."""
        if not all(proc.done for proc in self.processes):
            stuck = [p.pid for p in self.processes if not p.done]
            raise ProtocolError(
                f"run ended with unfinished processes {stuck} "
                f"(event budget {max_events} exhausted?)"
            )
        self.network.land_held()
        violation = (
            self.abcast.check_total_order() if self.abcast is not None else None
        )
        if self.monitor is not None:
            self.monitor.flush()
        history = self.recorder.build_history(self.initial_values)
        return RunResult(
            history=history,
            recorder=self.recorder,
            net_stats=self.network.stats,
            duration=self.sim.now,
            abcast_violation=violation,
            ww_sequence=list(self.ww_sequence),
        )


def make_cluster(
    process_class: Type[BaseProcess],
    n: int,
    objects: Sequence[str],
    *,
    cluster_class: Optional[Type[Cluster]] = None,
    uses_abcast: bool = True,
    **kwargs,
) -> Cluster:
    """Shared builder behind every ``*_cluster`` factory.

    Per-protocol modules only declare what differs: the process class,
    a :class:`Cluster` subclass when they carry extra state (AW's
    ``delta``, locking's ``rw_locks``, Fig-6's reply optimization) and
    whether the protocol rides the atomic-broadcast layer.  Protocols
    with ``uses_abcast=False`` get ``abcast_factory=None`` defaulted
    in (still overridable by explicit keyword, matching the historic
    factories).
    """
    if not uses_abcast:
        kwargs.setdefault("abcast_factory", None)
    kwargs.setdefault("process_class", process_class)
    cls = cluster_class or Cluster
    return cls(n, objects, **kwargs)
