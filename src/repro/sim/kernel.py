"""Discrete-event simulation kernel (substrate S9).

The paper's protocols run in an asynchronous distributed system.  We
model it with a classic discrete-event simulator: a priority queue of
``(time, sequence, callback)`` entries drained in timestamp order.
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

Bookkeeping is O(1): ``pending`` is a live counter (not a queue scan),
and cancelled entries are dropped lazily — either when their timestamp
arrives or, if they ever exceed half the queue, by a one-shot
compaction that rebuilds the heap without them (``(time, seq)`` is a
total order, so heapification preserves firing order).

The kernel knows nothing about processes or messages — those live in
:mod:`repro.sim.network` and :mod:`repro.protocols.base`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import get_metrics, get_tracer

#: Queues smaller than this are never compacted: a handful of stale
#: entries drain naturally and the rebuild would cost more than it
#: saves.
_COMPACT_MIN_QUEUE = 64


class EventHandle:
    """One scheduled event: the heap entry and the caller's handle to it.

    The heap itself holds ``(time, seq, event)`` tuples so ordering is
    decided by C-level float/int comparisons — ``seq`` is unique, so
    the event object is never compared.  :meth:`Simulator.schedule`
    returns the event it queued; there is no second object per timer.

    Attributes:
        time: the virtual time at which the event fires.
        cancelled: True once :meth:`cancel` stopped it from firing.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The simulator whose queue holds the event; None once fired.
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; a no-op once fired)."""
        sim = self._sim
        if sim is None or self.cancelled:
            return
        self.cancelled = True
        sim._on_cancel()


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
        #: Min-heap of ``(time, seq, EventHandle)`` tuples.
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        #: Seq of the entry firing now (the last one fired, between
        #: runs); -1 before the first.
        self._seq_now = -1
        self._events_fired = 0
        self._running = False
        # Live bookkeeping: ``_pending`` counts scheduled, unfired,
        # uncancelled events (O(1) ``pending``); ``_stale`` estimates
        # how many cancelled entries still sit in the heap, driving
        # lazy compaction.
        self._pending = 0
        self._stale = 0

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
        return self._pending

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: object
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        Args:
            delay: non-negative offset from the current virtual time.
            callback: the callable to fire.
            *args: positional arguments passed to ``callback`` at fire
                time, so timers and delivery loops need no per-event
                closure.

        Returns:
            The queued event, which is its own cancellable
            :class:`EventHandle`; hot paths simply discard it.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        event = EventHandle(self, time, callback, args)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        self._pending += 1
        return event

    #: The same call under the name the delivery paths (and the
    #: end-to-end benchmark's probes) use for fire-and-forget events.
    post = schedule

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
    ) -> EventHandle:
        """Queue ``callback(*args)`` at the key ``(time, seq)``.

        ``seq`` must come from :meth:`reserve` and be posted at most
        once; the key must lie after :attr:`key`.
        """
        if (time, seq) <= (self._now, self._seq_now):
            raise SimulationError(
                f"cannot post at {(time, seq)}: the run is at "
                f"{(self._now, self._seq_now)}"
            )
        event = EventHandle(self, time, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        self._pending += 1
        return event

    def _on_cancel(self) -> None:
        """Bookkeeping for one newly cancelled, unfired entry."""
        self._pending -= 1
        self._stale += 1
        if (
            self._stale * 2 > len(self._queue)
            and len(self._queue) >= _COMPACT_MIN_QUEUE
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        ``(time, seq)`` is a strict total order over entries, so the
        rebuilt heap pops survivors in exactly the same order as the
        original, and no cancelled entry is left to count.
        """
        self._queue = [item for item in self._queue if not item[2].cancelled]
        heapq.heapify(self._queue)
        self._stale = 0

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
        fired_this_run = 0
        # Observability: while the queue drains, the installed tracer
        # reads *virtual* time, so spans emitted from simulated code
        # are deterministic under a fixed seed.  With no collector
        # installed the per-event cost is one None check.
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
        queue = self._queue
        pop = heapq.heappop
        try:
            while True:
                if queue is not self._queue:  # compaction swapped it
                    queue = self._queue
                if not queue or (
                    max_events is not None and fired_this_run >= max_events
                ):
                    break
                time, seq, entry = pop(queue)
                if entry.cancelled:
                    # Shed without firing or tracer work.
                    if self._stale:
                        self._stale -= 1
                    if batch_room is not None:
                        batch_room -= 1
                    continue
                if until is not None and time > until:
                    heapq.heappush(queue, (time, seq, entry))
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
                            None
                            if max_events is None
                            else max_events - fired_this_run
                        )
                        depth_gauge.set(self._pending)
                    if batch_room is not None:
                        batch_room -= 1
                entry._sim = None  # fired: cancel() is now a no-op
                self._pending -= 1
                self._events_fired += 1
                fired_this_run += 1
                args = entry.args
                if args:
                    entry.callback(*args)
                else:
                    entry.callback()
        finally:
            self._running = False
            if run_span is not None:
                run_span.end(events=fired_this_run)
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
