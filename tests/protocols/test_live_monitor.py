"""Live (in-run) verification via Cluster(..., monitor=LiveMonitor).

The monitor is fed broadcast deliveries and completions *during* the
run; verdicts must match post-hoc checking, the stale-read scenario
must be flagged live under the m-lin condition, and the buffering
discipline (dependencies + response-order windows) must leave nothing
behind.
"""

import pytest

from repro.core import (
    check_m_linearizability,
    check_m_sequential_consistency,
)
from repro.core.monitor import LiveMonitor, MonitorUsageError
from repro.objects import read_reg, write_reg
from repro.protocols import mlin_cluster, msc_cluster
from repro.sim import ExponentialLatency
from repro.workloads import random_workloads
from tests.core.test_monitor import completion


class TestLiveRuns:
    @pytest.mark.parametrize("seed", range(6))
    def test_msc_runs_clean(self, seed):
        monitor = LiveMonitor("m-sc")
        cluster = msc_cluster(
            3, ["x", "y", "z"], seed=seed, monitor=monitor
        )
        result = cluster.run(
            random_workloads(3, ["x", "y", "z"], 6, seed=seed + 5)
        )
        assert monitor.consistent
        assert monitor.pending == 0
        assert monitor.observed == len(result.recorder.records)
        batch = check_m_sequential_consistency(
            result.history, extra_pairs=result.ww_pairs()
        )
        assert monitor.consistent == batch.holds

    @pytest.mark.parametrize("seed", range(4))
    def test_mlin_runs_clean_under_mlin_condition(self, seed):
        monitor = LiveMonitor("m-lin")
        cluster = mlin_cluster(
            3, ["x", "y"], seed=seed, monitor=monitor
        )
        result = cluster.run(
            random_workloads(3, ["x", "y"], 5, seed=seed + 5)
        )
        assert monitor.consistent
        assert check_m_linearizability(
            result.history, extra_pairs=result.ww_pairs()
        ).holds

    def test_heavy_reordering_still_fully_observed(self):
        monitor = LiveMonitor("m-sc")
        cluster = msc_cluster(
            4,
            ["x", "y"],
            seed=3,
            latency=ExponentialLatency(1.5),
            monitor=monitor,
        )
        result = cluster.run(
            random_workloads(4, ["x", "y"], 5, seed=8)
        )
        assert monitor.consistent
        assert monitor.observed == len(result.recorder.records)


class TestAnnouncedWriteSets:
    """``Cluster._notify_announce`` reads an update's write set back
    from the store of whichever process delivered it first — usually
    not the issuer, i.e. a replica that ran the program through the
    record-free ``VersionedStore.apply``."""

    @pytest.mark.parametrize(
        "factory,condition",
        [(msc_cluster, "m-sc"), (mlin_cluster, "m-lin")],
    )
    def test_first_delivery_via_apply_announces_the_real_write_set(
        self, factory, condition
    ):
        announced = []

        class RecordingMonitor(LiveMonitor):
            def announce(self, uid, writes):
                announced.append((uid, tuple(writes)))
                super().announce(uid, writes)

        objects = ["w", "x", "y", "z"]
        monitor = RecordingMonitor(condition)
        cluster = factory(5, objects, seed=3, monitor=monitor)
        first_delivery = {}
        notify = cluster._notify_announce

        def spy(uid, pid):
            first_delivery[uid] = pid
            notify(uid, pid)

        cluster._notify_announce = spy
        # The default mix includes conditional writers (dcas, transfer)
        # and multi-object assignments, so write sets vary per run.
        result = cluster.run(random_workloads(5, objects, 8, seed=11))

        updates = [r for r in result.recorder.records if r.is_update]
        written = {
            rec.uid: tuple(
                sorted({op.obj for op in rec.ops if op.is_write})
            )
            for rec in updates
        }
        assert len({len(objs) for objs in written.values()}) > 1
        # Most first deliveries land away from the issuer.
        assert any(first_delivery[r.uid] != r.process for r in updates)
        expected = [(uid, written[uid]) for uid in result.ww_sequence]
        assert announced == expected
        assert monitor.consistent
        assert monitor.audit() is None


class TestLiveViolationDetection:
    def test_fig5_stale_reads_flagged_live_under_mlin(self):
        """Replay the Figure-5 conditions with a live m-lin monitor.

        The Fig-4 protocol only promises m-SC; the live monitor run
        under the m-lin condition must catch the stale reads during
        the run, naming the skipped writer.
        """
        from repro.sim import AsymmetricLatency

        monitor = LiveMonitor("m-lin")
        cluster = msc_cluster(
            3,
            ["x", "y"],
            latency=AsymmetricLatency(
                base=0.5, jitter=0.0, slow_node=2, slow_extra=5.0
            ),
            seed=7,
            think_jitter=0.0,
            start_jitter=0.0,
            think_fn=lambda _rng: 0.8,
            monitor=monitor,
        )
        result = cluster.run(
            [
                [write_reg("x", 1)],
                [],
                [read_reg("x") for _ in range(8)],
            ]
        )
        assert not monitor.consistent
        first = monitor.violations[0]
        assert first.kind == "illegal" and first.obj == "x"
        # Sanity: the same run passes under its actual guarantee.
        assert check_m_sequential_consistency(
            result.history, extra_pairs=result.ww_pairs()
        ).holds

    def test_msc_condition_passes_same_run(self):
        from repro.sim import AsymmetricLatency

        monitor = LiveMonitor("m-sc")
        cluster = msc_cluster(
            3,
            ["x", "y"],
            latency=AsymmetricLatency(
                base=0.5, jitter=0.0, slow_node=2, slow_extra=5.0
            ),
            seed=7,
            think_jitter=0.0,
            start_jitter=0.0,
            think_fn=lambda _rng: 0.8,
            monitor=monitor,
        )
        cluster.run(
            [
                [write_reg("x", 1)],
                [],
                [read_reg("x") for _ in range(8)],
            ]
        )
        assert monitor.consistent


class TestBufferingDiscipline:
    def test_out_of_window_completion_rejected_directly(self):
        monitor = LiveMonitor("m-lin", slack=0.001)
        monitor.announce(1, ("x",))
        monitor.complete(
            completion(1, 0, 0.0, 1.0, {}, True), now=5.0
        )
        # Released already (window passed); a later-time feed with an
        # earlier response would be missing from the response-time
        # mark of what was released since.
        with pytest.raises(MonitorUsageError):
            monitor.complete(
                completion(2, 1, 0.0, 0.5, {"x": 1}, False), now=6.0
            )

    def test_completion_waits_for_announcement(self):
        monitor = LiveMonitor("m-sc")
        # Reader depends on uid 1, not yet announced.
        monitor.complete(
            completion(2, 1, 0.0, 0.5, {"x": 1}, False), now=10.0
        )
        assert monitor.pending == 1
        monitor.announce(1, ("x",))
        assert monitor.pending == 0
        assert monitor.consistent


class TestBarrierAndFlush:
    """Regression tests for the ~ww tap ordering caveat.

    A completion can race its own (or its writer's) broadcast
    position: the tap fires after the completion is fed.  The old
    contract surfaced that as a `MonitorUsageError` at flush time —
    a bookkeeping failure, not a verdict.  Now `barrier()` gives a
    deterministic drain point (slack-independent, so the outcome
    depends only on the event streams) and `flush()` converts
    anything still blocked into an explicit "undelivered" refutation.
    """

    def test_barrier_releases_ready_completions_ignoring_slack(self):
        monitor = LiveMonitor("m-sc", slack=100.0)
        monitor.announce(1, ("x",))
        monitor.complete(
            completion(1, 0, 0.0, 1.0, {}, True), now=1.0
        )
        # Within the (huge) slack window: _drain holds it back...
        assert monitor.pending == 1
        # ...but the barrier releases it deterministically.
        assert monitor.barrier() == 1
        assert monitor.pending == 0
        assert monitor.consistent

    def test_barrier_stops_at_blocked_head(self):
        monitor = LiveMonitor("m-sc", slack=0.0)
        # Head reads from the never-announced uid 9; the later
        # completion must stay queued behind it (response order).
        monitor.complete(
            completion(2, 1, 0.0, 0.5, {"x": 9}, False), now=10.0
        )
        monitor.announce(3, ("y",))
        monitor.complete(
            completion(3, 0, 0.6, 1.0, {}, True), now=10.0
        )
        assert monitor.barrier() == 0
        assert monitor.pending == 2

    def test_flush_reports_missing_tap_as_violation(self):
        monitor = LiveMonitor("m-sc")
        monitor.complete(
            completion(2, 1, 0.0, 0.5, {"x": 9}, False), now=10.0
        )
        assert monitor.pending == 1
        monitor.flush()  # no MonitorUsageError
        assert monitor.pending == 0
        assert not monitor.consistent
        violation = monitor.violations[-1]
        assert violation.kind == "undelivered"
        assert violation.blocked == 2 and violation.undelivered == (9,)
        assert "never received a broadcast position" in str(violation)
        assert "m#9" in str(violation)

    def test_flush_reports_update_missing_own_position(self):
        monitor = LiveMonitor("m-sc")
        # An update completes but its own broadcast never landed.
        monitor.complete(
            completion(4, 0, 0.0, 1.0, {}, True), now=5.0
        )
        monitor.flush()
        assert not monitor.consistent
        assert monitor.violations[-1].undelivered == (4,)
        assert "m#4" in str(monitor.violations[-1])

    def test_flush_clean_monitor_stays_consistent(self):
        monitor = LiveMonitor("m-sc", slack=50.0)
        monitor.announce(1, ("x",))
        monitor.complete(
            completion(1, 0, 0.0, 1.0, {}, True), now=1.0
        )
        monitor.flush()
        assert monitor.pending == 0
        assert monitor.consistent
