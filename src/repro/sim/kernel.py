"""Discrete-event simulation kernel (substrate S9).

The paper's protocols run in an asynchronous distributed system.  We
model it with a classic discrete-event simulator: a priority queue of
``(time, seq, callback, args)`` entries drained in timestamp order.
Virtual time is a float; ties are broken by insertion sequence, so
runs are fully deterministic given deterministic callbacks.

The drain loop fires **one entry per pop**, in exact ``(time, seq)``
order.  A sequence number is normally taken when an entry is queued,
but a caller may *reserve* a block of them (:meth:`Simulator.reserve`)
and post an entry at a reserved key later (:meth:`Simulator.post_at`)
— such an entry can belong to the current instant with a lower seq
than entries already due, which a whole-timestamp batch would have
popped out of order.  :attr:`Simulator.key` is the ``(time, seq)``
of the entry firing now (of the last one fired, between runs): every
event keyed at or below it has happened.

An entry is one tuple: :meth:`Simulator.post` queues it, and only
:meth:`Simulator.schedule` also returns a handle, which cancels by
marking the entry's seq.  A marked entry is dropped when its time
comes or, once marks exceed half the queue, by a one-shot compaction
(``(time, seq)`` is a total order, so re-heapifying keeps firing
order).  ``pending`` is the queue's length less the marks.

The kernel knows nothing about processes or messages — those live in
:mod:`repro.sim.network` and :mod:`repro.protocols.base`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.obs import get_metrics, get_tracer

#: Queues smaller than this are never compacted: a handful of stale
#: entries drain naturally and the rebuild would cost more than it
#: saves.
_COMPACT_MIN_QUEUE = 64


class EventHandle:
    """The caller's handle to one event queued by :meth:`Simulator.schedule`.

    Attributes:
        time: the virtual time at which the event fires.
        seq: its kernel sequence number (the entry's key is
            ``(time, seq)``).
        cancelled: True once :meth:`cancel` stopped it from firing.
    """

    __slots__ = ("time", "seq", "cancelled", "_sim")

    def __init__(self, sim: "Simulator", time: float, seq: int) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; a no-op once the
        run has reached its key, i.e. once it fired)."""
        sim = self._sim
        if self.cancelled or (self.time, self.seq) <= sim.key:
            return
        self.cancelled = True
        sim._cancel(self.seq)


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("at t=1.5"))
        sim.run()

    Events scheduled while running are processed in order; the
    simulation ends when the queue is empty, when ``until`` is
    reached, or when ``max_events`` have fired.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        #: Min-heap of ``(time, seq, callback, args)`` entries.
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        #: Seq of the entry firing now (the last one fired, between
        #: runs); -1 before the first.
        self._seq_now = -1
        self._events_fired = 0
        self._running = False
        #: Seqs of the cancelled entries still in the heap.
        self._cancelled: Set[int] = set()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def key(self) -> Tuple[float, int]:
        """``(time, seq)`` of the entry firing now (of the last one
        fired, between runs): every entry keyed at or below it has
        fired."""
        return self._now, self._seq_now

    @property
    def events_fired(self) -> int:
        """Total number of events processed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return len(self._queue) - len(self._cancelled)

    def post(self, delay: float, callback: Callable[..., None], *args: object) -> None:
        """Queue ``callback(*args)`` to fire ``delay`` (>= 0) time units
        from now; ``args`` spare timers and deliveries a closure."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), callback, args)
        )

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: object
    ) -> EventHandle:
        """:meth:`post`, returning the event's cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time, seq = self._now + delay, next(self._seq)
        heapq.heappush(self._queue, (time, seq, callback, args))
        return EventHandle(self, time, seq)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: object
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def reserve(self, count: int) -> int:
        """Take ``count`` consecutive sequence numbers and return the
        first; entries queued afterwards are numbered after them."""
        first = next(self._seq)
        self._seq = itertools.count(first + count)
        return first

    def post_at(
        self, time: float, seq: int, callback: Callable[..., None], *args: object
    ) -> None:
        """Queue ``callback(*args)`` at the key ``(time, seq)``.

        ``seq`` must come from :meth:`reserve` and be posted at most
        once; the key must lie after :attr:`key`.
        """
        if (time, seq) <= (self._now, self._seq_now):
            raise SimulationError(
                f"cannot post at {(time, seq)}: the run is at "
                f"{(self._now, self._seq_now)}"
            )
        heapq.heappush(self._queue, (time, seq, callback, args))

    def _cancel(self, seq: int) -> None:
        """Mark the unfired entry ``seq``; compact once marks exceed
        half the queue."""
        cancelled = self._cancelled
        cancelled.add(seq)
        queue = self._queue
        if len(cancelled) * 2 > len(queue) >= _COMPACT_MIN_QUEUE:
            self._queue = [item for item in queue if item[1] not in cancelled]
            heapq.heapify(self._queue)
            cancelled.clear()

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drain the event queue one entry at a time, in ``(time, seq)``
        order.

        Args:
            until: stop once virtual time would exceed this value
                (events at exactly ``until`` still fire).
            max_events: stop after firing this many events (guards
                against livelock in faulty protocols under test).

        Returns:
            The virtual time when the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        # Observability: while the queue drains, the installed tracer
        # reads *virtual* time, so spans emitted from simulated code
        # are deterministic under a fixed seed.
        tracer = get_tracer()
        binding = run_span = None
        if tracer.enabled:
            binding = tracer.bind_clock(lambda: self._now, "sim")
            binding.__enter__()
            run_span = tracer.begin("kernel.run")
        metrics = get_metrics()
        depth_gauge = (
            metrics.gauge("kernel.queue_depth") if metrics is not None else None
        )
        # The gauge samples the pending count once per *batch*: the
        # entries of one timestamp already queued when its first one
        # fires (``batch_end`` is the first seq after them), capped by
        # the event budget left then (``batch_room``, counting
        # cancelled entries popped in between).
        batch_time, batch_end, batch_room = None, 0, None
        cancelled = self._cancelled
        queue = self._queue
        pop = heapq.heappop
        try:
            while fired < budget:
                if queue is not self._queue:  # compaction swapped it
                    queue = self._queue
                if not queue:
                    break
                entry = pop(queue)
                time, seq, callback, args = entry
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)  # shed without firing
                    if batch_room is not None:
                        batch_room -= 1
                    continue
                if time > horizon:
                    heapq.heappush(queue, entry)
                    break
                if time < self._now:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"event queue disorder: {time} < {self._now}"
                    )
                self._now = time
                self._seq_now = seq
                if depth_gauge is not None:
                    if (
                        time != batch_time
                        or seq >= batch_end
                        or batch_room == 0
                    ):
                        batch_time, batch_end = time, next(self._seq)
                        self._seq = itertools.count(batch_end)
                        batch_room = (
                            None if max_events is None else max_events - fired
                        )
                        # (the entry firing now still counts as pending)
                        depth_gauge.set(len(queue) + 1 - len(cancelled))
                    if batch_room is not None:
                        batch_room -= 1
                fired += 1
                callback(*args)
        finally:
            self._running = False
            self._events_fired += fired
            if run_span is not None:
                run_span.end(events=fired)
            if binding is not None:
                binding.__exit__()
        if until is not None and self._now < until and not self._queue:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Fire exactly one event.  Returns False if the queue is empty."""
        before = self._events_fired
        self.run(max_events=1)
        return self._events_fired > before
