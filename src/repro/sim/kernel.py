"""Discrete-event simulation kernel (substrate S9).

The paper's protocols run in an asynchronous distributed system.  We
model it with a classic discrete-event simulator: a priority queue of
``(time, sequence, callback)`` entries drained in timestamp order.
Virtual time is a float; ties are broken by insertion sequence, so
runs are fully deterministic given deterministic callbacks.

The drain loop is **batched**: all entries sharing the head timestamp
are popped in one pass and fired in sequence order.  Callbacks that
schedule at the current instant receive a higher sequence number than
anything already queued, so they land in a later batch of the same
timestamp — the firing order is exactly the per-entry pop order of the
unbatched loop, and histories are byte-identical per seed.  Per-batch
overhead outside the callbacks themselves is one attribute check when
no tracer/metrics collector is installed.

Bookkeeping is O(1): ``pending`` is a live counter (not a queue scan),
and cancelled entries are dropped lazily — either when their timestamp
arrives or, if they ever exceed half the queue, by a one-shot
compaction that rebuilds the heap without them (``(time, seq)`` is a
total order, so heapification preserves firing order).

The kernel knows nothing about processes or messages — those live in
:mod:`repro.sim.network` and :mod:`repro.sim.actor`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

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
        original.  ``_stale`` may slightly overcount (an entry can be
        cancelled after it was popped into the current batch), hence
        reset rather than subtraction.
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
        """Drain the event queue in same-timestamp batches.

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
        # installed the per-batch cost is one None check.
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
        queue = self._queue
        pop = heapq.heappop
        try:
            while True:
                if queue is not self._queue:  # compaction swapped it
                    queue = self._queue
                # Shed cancelled heads without firing or tracer work.
                while queue and queue[0][2].cancelled:
                    pop(queue)
                    if self._stale:
                        self._stale -= 1
                if not queue:
                    break
                batch_time = queue[0][0]
                if until is not None and batch_time > until:
                    break
                if max_events is not None and fired_this_run >= max_events:
                    break
                if batch_time < self._now:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"event queue disorder: {batch_time} < {self._now}"
                    )
                self._now = batch_time
                # Pop the whole same-timestamp run in one pass, capped
                # by the remaining event budget.  Callbacks scheduling
                # at ``batch_time`` get higher sequence numbers than
                # every entry still queued, so later batches of the
                # same instant preserve global ``(time, seq)`` order.
                budget = (
                    None
                    if max_events is None
                    else max_events - fired_this_run
                )
                batch = [pop(queue)[2]]
                while (
                    queue
                    and queue[0][0] == batch_time
                    and (budget is None or len(batch) < budget)
                ):
                    batch.append(pop(queue)[2])
                if depth_gauge is not None:
                    depth_gauge.set(self._pending)
                for entry in batch:
                    if entry.cancelled:
                        # Cancelled while queued or mid-batch; it has
                        # left the heap either way.
                        if self._stale:
                            self._stale -= 1
                        continue
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
