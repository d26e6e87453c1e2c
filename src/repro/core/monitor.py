"""Streaming verification of WW-constrained executions (S28).

The batch scan of :mod:`repro.core.plan` re-runs over the whole
history; for *monitoring* — checking each m-operation as it completes
— the same theory gives an incremental form, the operational twin of
the paper's Section-5 timestamp reasoning.  Announced updates take
``~ww`` positions on a :class:`~repro.core.plan.Timeline` (see there
for what a *mark* decides), and a completed ``a``'s mark is the
highest position among its direct predecessors:

* the writers of ``a``'s external reads,
* the issuing process's previous m-operation (cumulative per-process
  mark),
* for m-linearizability: every m-operation that responded before
  ``inv(a)`` (a cumulative global mark, queried by binary search on
  response times),
* for an update: its own position (every earlier update precedes it
  via ``~ww``).

**Cycles.**  Every cycle of the order passes through an update, and an
update ``u`` lies on one iff its predecessors' mark already reaches
its own position (``>= pos(u)``: a predecessor saw ``u`` itself or
something broadcast after it).  Where no update is flagged, an
update's mark *is* its position, so only positions — never marks —
need to travel along reads-from edges, and a reader may be checked
before the update it read from has completed.

**Legality** (D 4.6) is :meth:`~repro.core.plan.Timeline.overwriter`
per read, at the reader's mark.

The verdicts coincide with the batch constrained checker
(``check_*(extra_pairs=ww_pairs)``) — cross-validated over randomized
and corrupted streams in the test suite — at O((reads + writes)·log n)
per m-operation instead of a whole-history rescan per query.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.index import CONDITIONS
from repro.core.operation import INIT_UID
from repro.core.plan import INIT_POS, Timeline, check_window
from repro.core.refutation import Refutation
from repro.errors import ReproError, WindowExceeded

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.recorder import OpRecord


class MonitorUsageError(ReproError):
    """The live monitor was fed an out-of-contract stream."""


class LiveMonitor:
    """Incremental m-SC / m-linearizability verification of a live run.

    Args:
        condition: a :data:`~repro.core.index.CONDITIONS` row judged
            over the whole history and not joined by ``~x`` — marks
            from process order and reads-from (``"m-sc"``), plus the
            global response-time mark when ``~t`` joins (``"m-lin"``).
        window: bounded-memory mode — every ``window`` announcements
            the closed prefix is sealed: writer positions more than
            ``window`` behind the delivery frontier are discarded,
            keeping per object only the *sealed head* (the newest
            discarded writer — reads from it stay decidable).  A read
            reaching behind a sealed prefix is a *refusal*, never a
            wrong verdict: it is counted in :attr:`window_refusals`
            and left undecided (the end-of-run batch check is the
            authority).  Retained state is O(objects × window) writer
            slots, one position per announced uid and one mark per
            process; under m-lin also one response time and one mark
            per released completion, which no seal discards.
        slack: see the release discipline below.

    Attach via ``Cluster(..., monitor=LiveMonitor("m-sc"))``; the
    cluster feeds broadcast deliveries (:meth:`announce`, in total
    order, with the update's write set — known at delivery time in
    any replica, *before* any reader can depend on it) and completions
    (:meth:`complete`) as they happen, and the verdict is available as
    :attr:`consistent` / :meth:`audit` during and after the run.

    In a running cluster the two event streams are only *locally*
    ordered: a reader can complete before the ``~ww`` tap (the first
    delivery) has announced the update it read from.  Completions are
    therefore queued in response order, and the head is released only
    once (a) every uid it depends on has a broadcast position and (b)
    the clock has passed ``head.resp + slack`` — with a
    response-clamping protocol (see ``BaseProcess.respond``) a later
    completion can carry an *earlier* response time by up to the local
    delay, so the slack window guarantees no earlier-response
    straggler is still coming.  Only m-lin's response-time mark
    depends on that order; there a straggler behind an already
    released completion is a :class:`MonitorUsageError`.

    At a quiescent point (epoch boundary, fault boundary, end of run)
    :meth:`barrier` releases every dependency-satisfied completion
    deterministically, without waiting out the slack window.
    ``flush()`` (called by the cluster at finalize) is the terminal
    barrier: it releases the remainder and converts any completion
    still blocked on a never-announced broadcast position into an
    ``"undelivered"`` refutation — an executed read whose writer was
    never delivered anywhere is itself a consistency violation, not a
    usage error, so the tap-ordering race can no longer mask a verdict.

    Violations are collected in :attr:`violations` as
    :class:`~repro.core.refutation.Refutation` values over the order
    ``~p ∪ ~rf [∪ ~t]`` plus the ``~ww`` chain (label ``extra``); they
    are permanent (the order only grows) and the stream may continue
    afterwards.
    """

    def __init__(
        self,
        condition: str = "m-sc",
        *,
        window: Optional[int] = None,
        slack: float = 1e-3,
    ) -> None:
        row = CONDITIONS.get(condition)
        if row is None or row.objects or row.per_process:
            streamable = tuple(
                name for name, r in CONDITIONS.items()
                if not (r.objects or r.per_process)
            )
            raise MonitorUsageError(
                f"cannot stream condition {condition!r}; the monitor "
                f"streams {streamable}"
            )
        check_window(window)
        self.condition = condition
        #: retained ``~ww`` depth, in broadcast positions (None = all).
        self.window = window
        self.slack = slack
        self._real_time = row.real_time
        self._timeline = Timeline(INIT_UID)
        self._proc_mark: Dict[int, int] = {}
        # m-lin: response times and the cumulative mark after each
        # release (both non-decreasing).
        self._resp_times: List[float] = []
        self._marks_after: List[int] = []
        self._last_resp = float("-inf")
        # Completions awaiting release: (resp, arrival number, op).
        self._queue: List[Tuple[float, int, OpRecord]] = []
        self._arrivals = itertools.count()
        self._now = float("-inf")
        #: completions released to the checks so far.
        self.observed = 0
        self.violations: List[Refutation] = []
        #: prefix seals performed (one per ``window`` announcements).
        self.epochs = 0
        #: writer-timeline slots discarded by sealing.
        self.sealed = 0
        #: reads refused for reaching behind a sealed prefix.
        self.window_refusals = 0

    # -- feed ----------------------------------------------------------

    def announce(self, uid: int, writes: Iterable[str]) -> None:
        """The next update in atomic-broadcast order, with its write set.

        Consecutive announcements form the ``~ww`` chain (D 5.3).
        """
        timeline = self._timeline
        if uid in timeline:
            raise MonitorUsageError(f"uid {uid} already has a ww position")
        position = timeline.place(uid, writes)
        if self.window is not None and (position + 1) % self.window == 0:
            floor = position - self.window  # epoch checkpoint
            if floor > 0:
                self.epochs += 1
                self.sealed += timeline.seal(floor)
        self._drain()

    def complete(self, op: OpRecord, *, now: Optional[float] = None) -> None:
        """An m-operation completed at (simulated) wall time ``now``.

        ``op`` is the recorder's :class:`~repro.protocols.recorder.OpRecord`;
        the monitor reads its ``uid``, ``process``, ``inv``, ``resp``,
        ``reads_from`` and ``is_update``.
        """
        if now is not None:
            self._now = max(self._now, now)
        if self._real_time and op.resp < self._last_resp:
            raise MonitorUsageError(
                f"m#{op.uid} responded at {op.resp}, before the "
                f"already released response at {self._last_resp}: "
                "completions outran the slack window"
            )
        heapq.heappush(self._queue, (op.resp, next(self._arrivals), op))
        self._drain()

    def barrier(self) -> int:
        """Deterministic epoch barrier: drain without the slack wait.

        Releases queued completions, in response order, as long as the
        head's broadcast dependencies are announced — the slack window
        is ignored, so the outcome depends only on the event streams,
        not on how far the clock has advanced.  Under m-lin, call at a
        point where no earlier-response straggler can still arrive
        (epoch or fault boundary, quiescence).  Returns the number
        released; anything left is blocked on a delivery that has not
        landed yet.
        """
        released = 0
        while self._queue and self._ready(self._queue[0][2]):
            self._release(heapq.heappop(self._queue)[2])
            released += 1
        return released

    def flush(self) -> None:
        """Terminal barrier: release everything (end of run).

        A completion still blocked here depends on a broadcast
        position that will never be announced — its writer (or the
        update itself) was never delivered.  That is a verdict, not a
        bookkeeping state: each such completion is recorded as an
        ``"undelivered"`` refutation.
        """
        self._now = float("inf")
        self.barrier()
        blocked, self._queue = sorted(self._queue), []
        timeline = self._timeline
        for _resp, _arrival, op in blocked:
            missing = {w for w in op.reads_from.values() if w not in timeline}
            if op.is_update and op.uid not in timeline:
                missing.add(op.uid)
            self.violations.append(
                Refutation(
                    "undelivered",
                    self.condition,
                    undelivered=tuple(sorted(missing)),
                    blocked=op.uid,
                )
            )

    # -- verdict -------------------------------------------------------

    def audit(self) -> Optional[str]:
        """:meth:`barrier`, then the first violation so far (None if
        clean).  Monotone: a reported violation is never retracted by
        later m-operations, a clean audit is provisional.  Refused
        reads are *not* violations; see :attr:`window_refusals`."""
        self.barrier()
        return str(self.violations[0]) if self.violations else None

    @property
    def consistent(self) -> bool:
        """No violation among the operations released so far."""
        return not self.violations

    @property
    def pending(self) -> int:
        """Completed operations still awaiting a dependency's position."""
        return len(self._queue)

    @property
    def retained(self) -> int:
        """Writer-timeline slots currently held (memory gauge)."""
        return self._timeline.retained

    # -- internals -----------------------------------------------------

    def _ready(self, op: OpRecord) -> bool:
        timeline = self._timeline
        if op.is_update and op.uid not in timeline:
            return False
        return all(writer in timeline for writer in op.reads_from.values())

    def _drain(self) -> None:
        queue = self._queue
        while (
            queue
            and queue[0][0] + self.slack <= self._now
            and self._ready(queue[0][2])
        ):
            self._release(heapq.heappop(queue)[2])

    def _release(self, op: OpRecord) -> None:
        """Check one completion against the marks, then advance them."""
        timeline = self._timeline
        uid = op.uid
        self._last_resp = op.resp
        reads = [
            (obj, writer, timeline.position(writer))
            for obj, writer in op.reads_from.items()
            if writer != uid
        ]

        # The predecessors' mark.
        mark = self._proc_mark.get(op.process, INIT_POS)
        if self._real_time:
            k = bisect_left(self._resp_times, op.inv)
            if k and self._marks_after[k - 1] > mark:
                mark = self._marks_after[k - 1]
        for _obj, _writer, b_pos in reads:
            if b_pos > mark:
                mark = b_pos

        violation: Optional[Refutation] = None
        own = timeline.position(uid) if op.is_update else None
        if own is not None:
            if mark >= own:
                violation = self._cycle(uid, own, mark, reads)
            else:
                mark = own

        # Per-read legality at the mark.
        for obj, writer, b_pos in reads:
            try:
                overwriter = timeline.overwriter(uid, obj, b_pos, mark)
            except WindowExceeded:
                self.window_refusals += 1
                continue
            if overwriter is not None and violation is None:
                violation = Refutation(
                    "illegal",
                    self.condition,
                    triple=(uid, writer, overwriter),
                    obj=obj,
                )

        # Advance the marks.
        self._proc_mark[op.process] = mark
        if self._real_time:
            marks = self._marks_after
            self._resp_times.append(op.resp)
            marks.append(max(mark, marks[-1]) if marks else mark)
        self.observed += 1
        if violation is not None:
            self.violations.append(violation)

    def _cycle(
        self, uid: int, own: int, mark: int, reads: List[Tuple[str, int, int]]
    ) -> Refutation:
        """The cycle through an update whose predecessors already see
        broadcast position ``mark >= own``: a read from a later update
        ``w`` is ``uid -extra-> w -rf-> uid``; otherwise the update at
        ``mark`` follows ``uid`` on the chain and precedes it along a
        path of the order (or is ``uid`` itself)."""
        for _obj, writer, b_pos in reads:
            if b_pos >= own:
                cycle = ((uid, "extra"), (writer, "rf"))
                break
        else:
            if mark == own:
                cycle = ((uid, "path"),)
            else:
                later = self._timeline.uid_at(mark)
                cycle = ((uid, "extra"), (later, "path"))
        return Refutation("cycle", self.condition, cycle=cycle)


def verify_stream(
    result,  # RunResult; untyped to avoid a protocols dependency
    *,
    condition: str = "m-sc",
) -> LiveMonitor:
    """Replay a finished protocol run through a :class:`LiveMonitor`.

    Updates' ww positions come from ``result.ww_sequence``; records
    are fed in response order and flushed.  The returned monitor's
    :attr:`~LiveMonitor.violations` should be empty for every run of
    the Section-5 protocols (and is, see the test suite), and its
    verdict coincides with the batch constrained checker.
    """
    monitor = LiveMonitor(condition)
    records = sorted(result.recorder.records, key=lambda r: r.resp)
    writes_of = {
        record.uid: tuple(op.obj for op in record.ops if op.is_write)
        for record in records
    }
    for uid in result.ww_sequence:
        monitor.announce(uid, writes_of.get(uid, ()))
    for record in records:
        monitor.complete(record)
    monitor.flush()
    return monitor
