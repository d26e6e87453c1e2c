"""Semantics of the drain loop.

The kernel fires one entry per pop in ``(time, seq)`` order; these
tests pin the properties protocols rely on: same-instant ties fire in
insertion order, cancellation of a due tie is honoured,
``until``/``max_events`` cut a run of ties at the right entry, an
entry posted at a reserved key fires in its place even inside the
current instant, and the lazy compaction of cancelled entries never
reorders survivors.  A queued entry is one ``(time, seq, callback,
args)`` tuple; ``post`` returns nothing and ``schedule`` returns a
handle that cancels by seq, so the same properties are pinned for
events scheduled with positional arguments.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import EventHandle, Simulator
from repro.sim.kernel import _COMPACT_MIN_QUEUE


class TestBatchOrder:
    def test_same_instant_reschedule_fires_after_queued_ties(self):
        # A callback scheduling at delay 0 fires after every entry
        # already queued at that instant (higher insertion seq =
        # later).
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.schedule(1.0, lambda: fired.append("third"))
        sim.run()
        assert fired == ["first", "second", "third", "nested"]
        assert sim.now == 1.0

    def test_batches_at_distinct_times_stay_ordered(self):
        sim = Simulator()
        fired = []
        for t in (2.0, 1.0, 2.0, 1.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == [1.0, 1.0, 2.0, 2.0]


class TestReservedKeys:
    def test_reserved_seqs_are_skipped_by_later_entries(self):
        sim = Simulator()
        fired = []
        first = sim.reserve(3)
        sim.schedule(1.0, lambda: fired.append(("queued", sim.key)))
        sim.post_at(1.0, first + 2, lambda: fired.append(("reserved", sim.key)))
        sim.run()
        assert fired == [
            ("reserved", (1.0, first + 2)),
            ("queued", (1.0, first + 3)),
        ]

    def test_post_at_a_reserved_key_inside_the_current_instant(self):
        # An entry posted mid-instant at a seq below entries already
        # due fires before them: a whole-timestamp batch would not.
        sim = Simulator()
        fired = []

        def poster():
            fired.append("poster")
            sim.post_at(1.0, reserved, fired.append, "reserved")

        sim.schedule(1.0, poster)
        reserved = sim.reserve(1)
        sim.schedule(1.0, fired.append, "due")
        sim.run()
        assert fired == ["poster", "reserved", "due"]

    def test_post_at_or_below_the_current_key_raises(self):
        from repro.errors import SimulationError

        sim = Simulator()
        first = sim.reserve(2)
        sim.post_at(1.0, first + 1, lambda: None)
        sim.run()
        assert sim.key == (1.0, first + 1)
        with pytest.raises(SimulationError):
            sim.post_at(1.0, first, lambda: None)
        with pytest.raises(SimulationError):
            sim.post_at(0.5, first + 5, lambda: None)


class TestCancellationInsideBatch:
    def test_entry_cancelled_by_earlier_tie_does_not_fire(self):
        # Both entries share a timestamp, so both are popped into the
        # same batch; the first cancels the second before it runs.
        sim = Simulator()
        fired = []
        handles = []

        def canceller():
            fired.append("canceller")
            handles[0].cancel()

        sim.schedule(1.0, canceller)
        handles.append(sim.schedule(1.0, lambda: fired.append("victim")))
        sim.run()
        assert fired == ["canceller"]
        assert sim.pending == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert sim.pending == 0


class TestRunLimitsMidBatch:
    def test_max_events_splits_a_batch(self):
        sim = Simulator()
        fired = []
        for tag in "abcd":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run(max_events=2)
        assert fired == ["a", "b"]
        assert sim.pending == 2
        # The remainder of the batch fires on the next run, in order.
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_until_stops_before_a_later_batch(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(2.0, lambda: fired.append(2.0))
        sim.run(until=1.5)
        assert fired == [1.0]
        # Time does not jump to ``until`` while work remains queued.
        assert sim.now == 1.0
        sim.run()
        assert fired == [1.0, 2.0]

    def test_events_exactly_at_until_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("x"))
        sim.schedule(1.0, lambda: fired.append("y"))
        sim.run(until=1.0)
        assert fired == ["x", "y"]

    def test_step_fires_exactly_one_tie(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(1.0, lambda: fired.append("b"))
        assert sim.step()
        assert fired == ["a"]
        assert sim.step()
        assert fired == ["a", "b"]
        assert not sim.step()


class TestLazyCompaction:
    def test_mass_cancellation_compacts_and_preserves_order(self):
        # Cancel well over half of a large queue: compaction triggers,
        # survivors still fire in (time, seq) order and the live
        # pending counter tracks exactly.
        sim = Simulator()
        total = 4 * _COMPACT_MIN_QUEUE
        fired = []
        handles = [
            sim.schedule(float(i), lambda i=i: fired.append(i))
            for i in range(total)
        ]
        for i, handle in enumerate(handles):
            if i % 4 != 0:  # cancel 3 of every 4
                handle.cancel()
        survivors = [i for i in range(total) if i % 4 == 0]
        assert sim.pending == len(survivors)
        # Compaction actually shrank the heap (not just marked), and
        # the post-compaction queue honours the staleness bound.
        assert len(sim._queue) < total
        assert len(sim._cancelled) * 2 <= len(sim._queue)
        assert all(handles[i].cancelled for i in range(1, total, 4))
        sim.run()
        assert fired == survivors
        assert sim.pending == 0

    def test_small_queues_skip_compaction(self):
        sim = Simulator()
        handles = [
            sim.schedule(float(i), lambda: None) for i in range(8)
        ]
        for handle in handles[:6]:
            handle.cancel()
        # Below _COMPACT_MIN_QUEUE the cancelled entries stay queued
        # (dropped lazily at their timestamps), but pending is live.
        assert len(sim._queue) == 8
        assert sim.pending == 2
        sim.run()
        assert sim.events_fired == 2

    def test_cancel_during_run_keeps_counter_consistent(self):
        sim = Simulator()
        total = 4 * _COMPACT_MIN_QUEUE
        handles = []

        def cancel_rest():
            for handle in handles:
                handle.cancel()

        sim.schedule(0.5, cancel_rest)
        handles.extend(
            sim.schedule(float(i + 1), lambda: None) for i in range(total)
        )
        sim.run()
        assert sim.events_fired == 1
        assert sim.pending == 0
        assert sim.now == 0.5


class TestHandles:
    def test_schedule_passes_args_and_returns_a_handle(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.5, lambda *args: fired.append(args), "a", 2)
        assert isinstance(handle, EventHandle)
        assert handle.time == 1.5 and not handle.cancelled
        # The heap holds the entry itself; the handle names it by key.
        (time, seq, _callback, args), = sim._queue
        assert (time, seq, args) == (handle.time, handle.seq, ("a", 2))
        sim.schedule_at(1.5, fired.append, "at")
        sim.run()
        assert fired == [("a", 2), "at"]

    def test_post_queues_the_entry_alone(self):
        sim = Simulator()
        fired = []
        assert sim.post(1.0, fired.append, "posted") is None
        scheduled = sim.schedule(1.0, fired.append, "scheduled")
        assert [type(entry) for entry in sim._queue] == [tuple, tuple]
        assert sim.pending == 2
        scheduled.cancel()
        sim.run()
        assert fired == ["posted"]
        with pytest.raises(SimulationError):
            sim.post(-1.0, fired.append, "past")

    def test_cancel_mid_batch_with_args(self):
        sim = Simulator()
        fired = []
        victims = []

        def canceller(tag):
            fired.append(tag)
            victims[0].cancel()

        sim.schedule(1.0, canceller, "canceller")
        victims.append(sim.schedule(1.0, fired.append, "victim"))
        sim.schedule(1.0, fired.append, "bystander")
        sim.run()
        assert fired == ["canceller", "bystander"]
        assert victims[0].cancelled
        assert sim.pending == 0 and not sim._cancelled

    def test_cancel_after_firing_changes_nothing(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.0)
        handle.cancel()
        # A fired event is not "cancelled", and the books only count
        # events still queued.
        assert not handle.cancelled
        assert sim.pending == 1 and not sim._cancelled
        sim.run()
        assert sim.events_fired == 2

    def test_cancelled_timers_with_args_compact_away(self):
        # The reliable shim's pattern: many timers armed with args,
        # most cancelled by an ack long before they are due.
        sim = Simulator()
        total = 4 * _COMPACT_MIN_QUEUE
        fired = []
        timers = [
            sim.schedule(10.0 + i, fired.append, i) for i in range(total)
        ]
        for i, timer in enumerate(timers):
            if i % 8:
                timer.cancel()
                timer.cancel()  # idempotent: counted once
        assert sim.pending == total // 8
        assert len(sim._queue) < total
        assert len(sim._cancelled) * 2 <= len(sim._queue)
        sim.run()
        assert fired == list(range(0, total, 8))
        assert sim.pending == 0


class TestReentrancy:
    def test_run_is_not_reentrant(self):
        from repro.errors import SimulationError

        sim = Simulator()
        sim.schedule(1.0, lambda: sim.run())
        with pytest.raises(SimulationError):
            sim.run()
