"""Regression tests for the serve-layer races a static lockset pass
once found.

Each test here corresponds to one of those findings: unlocked metrics
read-modify-writes, torn ``RunRecord`` snapshots, and unsynchronized
worker/serve-thread handles.  The pass is gone; these tests are what
pins the fixes.  They hammer the fixed code from many threads and
assert the exactness/consistency the locks now guarantee.  Thread counts and
iteration counts are sized so the pre-fix code fails with near
certainty while the suite stays fast.
"""

from __future__ import annotations

import sys
import threading

from repro.obs import MetricsRegistry
from repro.runtime import RunSpec
from repro.serve.plane import ControlPlane, RunRecord, ServeConfig
from repro.serve.store import ArtifactStore, RetentionPolicy, Stored

THREADS = 8
ROUNDS = 2_000


def hammer(worker, count=THREADS):
    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()


class TestMetricsExactness:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def worker(_index):
            for _ in range(ROUNDS):
                counter.inc()

        hammer(worker)
        assert counter.value == THREADS * ROUNDS

    def test_get_or_create_returns_one_instance(self):
        registry = MetricsRegistry()
        seen = [None] * THREADS

        def worker(index):
            for _ in range(ROUNDS // 10):
                seen[index] = registry.counter("shared", kind="x")
                seen[index].inc()

        hammer(worker)
        assert len({id(counter) for counter in seen}) == 1
        # No increments vanished into an orphaned duplicate counter.
        assert seen[0].value == THREADS * (ROUNDS // 10)

    def test_gauge_high_water_mark_is_exact(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")

        def worker(_index):
            for _ in range(ROUNDS):
                gauge.inc()
                gauge.dec()

        hammer(worker)
        # Every inc is paired with a dec; with atomic RMW the value
        # must return exactly to zero.
        assert gauge.value == 0.0

    def test_histogram_count_matches_observations(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))

        def worker(_index):
            for _ in range(ROUNDS):
                histogram.observe(0.5)

        hammer(worker)
        state = histogram.state()
        assert state["count"] == THREADS * ROUNDS
        assert state["counts"][0] == THREADS * ROUNDS
        assert state["total"] == 0.5 * THREADS * ROUNDS


class TestRunRecordConsistency:
    def test_no_torn_terminal_snapshot(self):
        """A reader must never see "done" with the payload missing.

        Pre-fix, ``_execute`` set ``status = "done"`` before
        ``run_seconds``/``finished_at``, so a concurrent ``to_dict``
        could serialize a terminal run with null timing — exactly the
        torn state the lockset findings pointed at.
        """
        spec = RunSpec(protocol="msc", n=2, ops=2, seed=1)
        record = RunRecord("r1", spec, spec.spec_hash())
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                info = record.to_dict()
                if info["status"] in RunRecord.TERMINAL:
                    if (
                        info["run_seconds"] is None
                        or info["finished_at"] is None
                    ):
                        torn.append(dict(info))
                    if (
                        info["status"] == "done"
                        and info["artifact"] is None
                    ):
                        torn.append(dict(info))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for _ in range(200):
            record.__init__("r1", spec, spec.spec_hash())
            record.mark_running()
            record.finish({"ok": True}, "h" * 8, None, 0.01)
        stop.set()
        for thread in readers:
            thread.join(timeout=30.0)
        assert torn == [], torn[:3]

    def test_cached_record_is_terminal_and_complete(self):
        spec = RunSpec(protocol="msc", n=2, ops=2, seed=1)
        record = RunRecord("r2", spec, spec.spec_hash())
        text = '{"history_hash":"abc","ok":true}'
        record.complete_cached(Stored(text, "abc"))
        info = record.to_dict()
        assert info["status"] == "cached"
        assert info["run_seconds"] == 0.0
        # The record shares the store's text; it never parses it.
        assert info["artifact"] is text
        assert info["history_hash"] == "abc"
        assert record.event.is_set()


class TestArtifactStoreTiers:
    def test_lookups_and_budgets_stay_exact_under_contention(self, tmp_path):
        """Lookups racing puts and evictions: every lookup is counted
        once, a hit returns its own key's text, and both tiers stay
        within their bounds with the byte total matching the files."""
        store = ArtifactStore(
            tmp_path,
            RetentionPolicy(max_entries=4, max_bytes=None),
            memory_entries=2,
        )
        keys = [f"{index:02x}" * 32 for index in range(8)]
        wrong = []
        rounds = ROUNDS // 10

        def worker(index):
            for step in range(rounds):
                key = keys[(index + step) % len(keys)]
                if step % 3 == 0:
                    store.put(key, f'{{"history_hash":"{key}"}}', key)
                found = store.lookup(key)
                if found is not None and (
                    found.history_hash != key
                    or found.text != f'{{"history_hash":"{key}"}}'
                ):
                    wrong.append((key, found))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        lookups = store.cache_stats()
        assert lookups["hits"] + lookups["misses"] == THREADS * rounds
        assert lookups["memory_entries"] <= 2
        stats = store.stats()
        files = list(tmp_path.glob("*.json"))
        assert stats["entries"] == len(files) <= 4
        assert stats["bytes"] == sum(path.stat().st_size for path in files)


class TestLifecycleHandles:
    def test_plane_start_is_idempotent(self, tmp_path):
        plane = ControlPlane(
            ServeConfig(store_dir=str(tmp_path / "s"), workers=2)
        )
        try:
            results = []

            def worker(_index):
                plane.start()
                results.append(len(plane._threads))

            hammer(worker, count=4)
            # Exactly one pool, no matter how many racing start()s.
            assert len(plane._threads) == 2
            alive = [t for t in plane._threads if t.is_alive()]
            assert len(alive) == 2
        finally:
            plane.stop()
        assert plane._threads == []

    def test_plane_stop_joins_and_clears(self, tmp_path):
        plane = ControlPlane(
            ServeConfig(store_dir=str(tmp_path / "s"), workers=1)
        )
        plane.start()
        threads = list(plane._threads)
        plane.stop()
        assert plane._threads == []
        assert all(not t.is_alive() for t in threads)
