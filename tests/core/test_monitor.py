"""Live monitor: unit behaviour, the audit contract the chaos harness
keys on, the windowed (bounded-memory) mode, and agreement with batch
checking."""

import pytest

from repro.core import History, check_condition
from repro.core.monitor import (
    LiveMonitor,
    MonitorUsageError,
    verify_stream,
)
from repro.protocols import msc_cluster
from repro.protocols.recorder import OpRecord
from repro.workloads import (
    HistoryShape,
    corrupt_history,
    random_serial_history,
    random_workloads,
    rewire_read,
    shift_process,
    stretch_history,
)
from tests.core.test_plan import serial
from tests.core.test_refutation import accepts


def completion(uid, process, inv, resp, reads_from, is_update):
    """The :class:`OpRecord` a cluster hands the monitor when an
    m-operation completes (no operations: the monitor reads none)."""
    return OpRecord(
        uid=uid,
        process=process,
        name=f"m{uid}",
        inv=inv,
        resp=resp,
        ops=(),
        reads_from=dict(reads_from),
        result=None,
        is_update=is_update,
    )


def observe(monitor: LiveMonitor, *fields):
    """Complete one m-operation and release it; its violation if any."""
    before = len(monitor.violations)
    monitor.complete(completion(*fields))
    monitor.barrier()
    exposed = monitor.violations[before:]
    return exposed[0] if exposed else None


def observe_in_uid_order(monitor, uid, process, reads_from, is_update):
    """:func:`observe` with times in uid order (arrival is response
    order)."""
    return observe(
        monitor, uid, process, float(uid), uid + 0.5, reads_from, is_update
    )


def ww_chain_of(history: History):
    """The updates in response order — for a serially generated
    history the generation order, exactly the role the broadcast
    would play as ``~ww``."""
    return [
        m.uid for m in sorted(history.mops, key=lambda m: m.resp)
        if m.is_update
    ]


def feed_history(history: History, condition: str, chain=None) -> LiveMonitor:
    """Stream an abstract history through the monitor and flush it,
    ``chain`` (default: :func:`ww_chain_of`) being the ``~ww`` order."""
    monitor = LiveMonitor(condition)
    for uid in ww_chain_of(history) if chain is None else chain:
        monitor.announce(uid, tuple(sorted(history[uid].external_writes)))
    for mop in history.mops:
        monitor.complete(
            completion(
                mop.uid,
                mop.process,
                mop.inv,
                mop.resp,
                {
                    obj: history.writer_of(mop.uid, obj)
                    for obj in mop.external_reads
                },
                mop.is_update,
            )
        )
    monitor.flush()
    return monitor


def batch_holds(history: History, condition: str, chain=None) -> bool:
    if chain is None:
        chain = ww_chain_of(history)
    return check_condition(
        history,
        condition,
        method="constrained",
        extra_pairs=list(zip(chain, chain[1:])),
    ).holds


class TestUnitBehaviour:
    def test_empty_stream_consistent(self):
        monitor = LiveMonitor()
        assert monitor.consistent and monitor.observed == 0
        assert monitor.audit() is None

    def test_simple_fresh_read(self):
        monitor = LiveMonitor()
        monitor.announce(1, ("x",))
        assert observe(monitor, 1, 0, 0.0, 1.0, {}, True) is None
        assert observe(monitor, 2, 1, 2.0, 3.0, {"x": 1}, False) is None
        assert monitor.observed == 2

    def test_skipped_update_detected(self):
        # Reader's own process already saw update 2, then reads x
        # from update 1 — the overwrite is a predecessor: illegal.
        monitor = LiveMonitor()
        monitor.announce(1, ("x",))
        monitor.announce(2, ("x",))
        observe(monitor, 1, 0, 0.0, 1.0, {}, True)
        observe(monitor, 2, 0, 2.0, 3.0, {}, True)
        violation = observe(monitor, 3, 0, 4.0, 5.0, {"x": 1}, False)
        assert violation is not None
        assert violation.kind == "illegal"
        assert violation.triple == (3, 1, 2) and violation.obj == "x"
        assert not monitor.consistent
        assert "illegal triple" in monitor.audit()

    def test_other_process_stale_read_fine_for_msc(self):
        # A different process may lag arbitrarily under m-SC.
        monitor = LiveMonitor("m-sc")
        monitor.announce(1, ("x",))
        observe(monitor, 1, 0, 0.0, 1.0, {}, True)
        assert observe(monitor, 2, 1, 2.0, 3.0, {"x": 0}, False) is None

    def test_same_stale_read_flagged_for_mlin(self):
        monitor = LiveMonitor("m-lin")
        monitor.announce(1, ("x",))
        observe(monitor, 1, 0, 0.0, 1.0, {}, True)
        violation = observe(monitor, 2, 1, 2.0, 3.0, {"x": 0}, False)
        assert violation is not None

    def test_overlapping_stale_read_fine_for_mlin(self):
        monitor = LiveMonitor("m-lin")
        monitor.announce(1, ("x",))
        observe(monitor, 1, 0, 0.0, 2.0, {}, True)
        # inv before the writer's resp: no global-mark edge.
        assert observe(monitor, 2, 1, 1.0, 3.0, {"x": 0}, False) is None

    def test_future_read_flagged(self):
        monitor = LiveMonitor()
        monitor.announce(1, ("x",))
        monitor.announce(2, ("y",))
        observe(monitor, 1, 0, 0.0, 1.0, {}, True)
        # Update 2 claims to read y from an even later broadcast.
        monitor.announce(3, ("y",))
        violation = observe(monitor, 2, 1, 2.0, 3.0, {"y": 3}, True)
        assert violation is not None
        # 2 precedes 3 on ~ww, and 3 -rf-> 2.
        assert violation.cycle == ((2, "extra"), (3, "rf"))

    @pytest.mark.parametrize(
        "condition, writer_process", [("m-sc", 0), ("m-lin", 1)]
    )
    def test_read_of_a_later_update_is_a_cycle(
        self, condition, writer_process
    ):
        # P0's query 2 reads x from update 1, which is only issued
        # after the query responded — by P0 itself (~p closes the
        # cycle with ~rf) or, under m-lin, by anyone (~t does).  The
        # predecessors' mark *equals* the update's own position.
        monitor = LiveMonitor(condition)
        monitor.announce(1, ("x",))
        assert observe(monitor, 2, 0, 0.0, 1.0, {"x": 1}, False) is None
        violation = observe(
            monitor, 1, writer_process, 2.0, 3.0, {}, True
        )
        assert violation is not None and violation.kind == "cycle"
        assert violation.cycle == ((1, "path"),)
        assert "cycle" in monitor.audit()

    def test_out_of_order_responses_rejected(self):
        # m-lin's response-time mark needs releases in response order.
        monitor = LiveMonitor("m-lin")
        monitor.announce(1, ("x",))
        observe(monitor, 1, 0, 0.0, 5.0, {}, True)
        with pytest.raises(MonitorUsageError):
            observe(monitor, 2, 1, 0.0, 1.0, {"x": 1}, False)

    def test_unannounced_update_rejected(self):
        # Held back while its broadcast position may still land; at
        # the end of the run a never-delivered update is a violation.
        monitor = LiveMonitor()
        assert observe(monitor, 1, 0, 0.0, 1.0, {}, True) is None
        assert monitor.pending == 1 and monitor.observed == 0
        monitor.flush()
        assert not monitor.consistent
        assert "never received a broadcast position" in monitor.audit()

    @pytest.mark.parametrize("condition", ["m-norm", "m-causal", "m-foo"])
    def test_streams_only_rows_without_object_order_or_views(self, condition):
        with pytest.raises(MonitorUsageError, match=r"\('m-sc', 'm-lin'\)"):
            LiveMonitor(condition)

    def test_duplicate_announcement_rejected(self):
        monitor = LiveMonitor()
        monitor.announce(1, ("x",))
        with pytest.raises(MonitorUsageError):
            monitor.announce(1, ("x",))

    def test_rmw_excludes_own_write(self):
        # An update reading x and writing x: its read must match the
        # previous writer, not itself.
        monitor = LiveMonitor()
        monitor.announce(1, ("x",))
        monitor.announce(2, ("x",))
        observe(monitor, 1, 0, 0.0, 1.0, {}, True)
        assert (
            observe(monitor, 2, 1, 2.0, 3.0, {"x": 1}, True) is None
        )


class TestAuditContract:
    """The streaming audit contract the chaos harness keys on."""

    def test_buffers_until_writer_announced(self):
        monitor = LiveMonitor()
        # reads a not-yet-known writer
        observe_in_uid_order(monitor, 2, 0, {"x": 1}, False)
        assert monitor.pending == 1 and monitor.observed == 0
        monitor.announce(1, ["x"])
        assert monitor.audit() is None
        assert monitor.pending == 0 and monitor.observed == 1

    def test_update_waits_for_own_announcement(self):
        monitor = LiveMonitor()
        observe_in_uid_order(monitor, 1, 0, {}, True)
        assert monitor.pending == 1
        monitor.announce(1, ["x"])
        assert monitor.audit() is None
        assert monitor.pending == 0 and monitor.observed == 1

    def test_detects_order_cycle(self):
        monitor = LiveMonitor()
        monitor.announce(1, ["x"])
        monitor.announce(2, ["x"])  # ~ww: 1 -> 2
        # ~rf: 2 -> 1 closes the cycle
        observe_in_uid_order(monitor, 1, 0, {"x": 2}, True)
        assert "cycle" in monitor.audit()
        assert not monitor.consistent

    def test_detects_illegal_triple(self):
        monitor = LiveMonitor()
        monitor.announce(1, ["x"])
        monitor.announce(2, ["x"])  # ~ww: 1 -> 2
        observe_in_uid_order(monitor, 2, 0, {}, True)
        # P0: 2 -> 3, but 3 reads 1
        observe_in_uid_order(monitor, 3, 0, {"x": 1}, False)
        verdict = monitor.audit()
        assert verdict is not None and "illegal triple" in verdict

    def test_clean_protocol_run_stays_consistent(self):
        """End-to-end: the cluster feeds the monitor during a run and
        the final audit agrees with the batch verdict."""
        monitor = LiveMonitor()
        cluster = msc_cluster(3, ["x", "y"], seed=2, monitor=monitor)
        result = cluster.run(random_workloads(3, ["x", "y"], 4, seed=3))
        assert monitor.observed == len(result.recorder.records)
        assert monitor.pending == 0
        assert monitor.audit() is None


class TestWindowedMonitor:
    """:class:`LiveMonitor` with a ``window``: bounded memory, and a
    read behind a sealed prefix is a counted refusal."""

    def feed(self, monitor, history):
        for mop in history.mops:
            if mop.is_update:
                monitor.announce(mop.uid, list(mop.external_writes))
            observe_in_uid_order(
                monitor,
                mop.uid,
                mop.process,
                {
                    obj: writer
                    for (reader, obj), writer
                    in history.reads_from_map.items()
                    if reader == mop.uid
                },
                mop.is_update,
            )

    def test_clean_serial_history_is_consistent(self):
        history, _chain = serial(n_mops=100, seed=6)
        monitor = LiveMonitor(window=16)
        self.feed(monitor, history)
        assert monitor.audit() is None
        assert monitor.consistent
        assert not monitor.pending
        assert monitor.epochs > 0

    def test_memory_stays_bounded(self):
        history, _chain = serial(n_mops=200, seed=7, n_objects=2)
        monitor = LiveMonitor(window=10)
        self.feed(monitor, history)
        # Per object the timeline keeps at most the sealed head plus
        # the live window of writer positions.
        assert monitor.retained <= 2 * (10 + 2)
        assert monitor.sealed > 0

    def test_window_one_rejected(self):
        with pytest.raises(ValueError):
            LiveMonitor(window=0)

    def test_stale_read_behind_seal_counts_refusal(self):
        # Two x writers, then enough y traffic that the seal discards
        # x's older position; a reader whose mark advanced on y then
        # reads x from the *pruned* older writer — undecidable.
        monitor = LiveMonitor(window=2)
        monitor.announce(1, ["x"])
        observe_in_uid_order(monitor, 1, 0, {}, True)
        monitor.announce(2, ["x"])
        observe_in_uid_order(monitor, 2, 0, {"x": 1}, True)
        for uid in range(3, 9):
            monitor.announce(uid, ["y"])
            observe_in_uid_order(monitor, uid, 1, {}, True)
        observe_in_uid_order(monitor, 10, 2, {"y": 8}, False)
        observe_in_uid_order(monitor, 11, 2, {"x": 1}, False)
        assert monitor.window_refusals >= 1
        assert monitor.audit() is None  # refusal, never a verdict

    def test_illegal_triple_detected_within_window(self):
        monitor = LiveMonitor(window=32)
        monitor.announce(1, ["x"])
        observe_in_uid_order(monitor, 1, 0, {}, True)
        monitor.announce(2, ["x"])
        observe_in_uid_order(monitor, 2, 0, {"x": 1}, True)
        # Reader saw writer 2 (via y-less mark: its own process read
        # of 2) yet reads x from 1: illegal D 4.6 triple.
        observe_in_uid_order(monitor, 3, 1, {"x": 2}, False)
        observe_in_uid_order(monitor, 4, 1, {"x": 1}, False)
        violation = monitor.audit()
        assert violation is not None
        assert "illegal triple" in violation

    def test_chaos_accepts_verify_window(self):
        from repro.runtime import VerifyPolicy, execute
        from tests.conftest import chaos_spec

        artifact = execute(
            chaos_spec(
                "msc", 0, n=3, ops=4, verify=VerifyPolicy(window=64)
            )
        )
        assert artifact.ok
        assert artifact.net_stats["chaos"]["window_refusals"] == 0
        assert "window_epochs" in artifact.net_stats["chaos"]


def rewired(history: History, chain, kind: str, seed: int):
    """One read redirected to a *stale* (earlier in ``chain``),
    *future* (later) or *own-future* (later, and issued by the
    reader's own process after the read) writer; None if no read can
    be."""
    position = {uid: k for k, uid in enumerate(chain)}
    position[history.init.uid] = -1
    candidates = []
    for (reader, obj), old in sorted(history.reads_from_map.items()):
        for mop in history.mops:
            uid = mop.uid
            if uid in (reader, old) or obj not in mop.external_writes:
                continue
            later = position[uid] > position[old]
            own = (
                mop.process == history[reader].process
                and mop.inv > history[reader].resp
            )
            if kind == ("own-future" if later and own else
                        "future" if later else "stale"):
                candidates.append((reader, obj, uid))
    if not candidates:
        return None
    return rewire_read(history, *candidates[seed % len(candidates)])


class TestAgreementWithBatchChecker:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("condition", ["m-sc", "m-lin"])
    def test_corrupted_histories(self, seed, condition):
        shape = HistoryShape(
            n_processes=3, n_objects=2, n_mops=9, query_fraction=0.4
        )
        h = random_serial_history(shape, seed=seed)
        h = stretch_history(h, seed=seed)
        if seed % 3 == 0:
            h = shift_process(h, h.processes[0], 11.0)
        h = corrupt_history(h, seed=seed) or h
        monitor = feed_history(h, condition)
        assert monitor.consistent == batch_holds(h, condition), (
            seed, condition,
        )

    @pytest.mark.parametrize("condition", ["m-sc", "m-lin"])
    def test_stream_verdict_is_the_batch_verdict(self, condition):
        """The tier-1 agreement property: after ``flush()`` the monitor
        is consistent iff the batch checker holds under the same
        ``~ww`` — over random, stale-, future- and own-future-read
        streams, the last being the shape whose cycle closes through
        the reader's own process order."""
        checked = {"clean": 0, "stale": 0, "future": 0, "own-future": 0}
        violated = dict(checked)
        for seed in range(150):
            shape = HistoryShape(
                n_processes=2 + seed % 3,
                n_objects=1 + seed % 2,
                n_mops=8 + seed % 5,
                query_fraction=0.5,
            )
            clean = random_serial_history(shape, seed=seed)
            chain = ww_chain_of(clean)
            clean = stretch_history(clean, seed=seed)
            if seed % 4 == 0:
                clean = shift_process(clean, clean.processes[0], 7.0)
            for kind in checked:
                h = clean
                if kind != "clean":
                    h = rewired(clean, chain, kind, seed)
                    if h is None:
                        continue
                holds = batch_holds(h, condition, chain)
                monitor = feed_history(h, condition, chain)
                assert monitor.consistent == holds, (seed, kind)
                pairs = list(zip(chain, chain[1:]))
                for refutation in monitor.violations:
                    assert accepts(h, condition, refutation, pairs, chain), (
                        seed, kind, refutation,
                    )
                checked[kind] += 1
                violated[kind] += not holds
        assert sum(checked.values()) >= 500  # x 2 conditions >= 1000
        assert min(checked.values()) >= 50
        assert all(violated[kind] for kind in checked if kind != "clean")
        assert violated["clean"] < checked["clean"] / 2

    @pytest.mark.parametrize("seed", range(6))
    def test_clean_histories_pass_both(self, seed):
        h = random_serial_history(
            HistoryShape(n_mops=10), seed=seed + 400
        )
        assert feed_history(h, "m-sc").consistent
        assert feed_history(h, "m-lin").consistent


class TestProtocolStreams:
    @pytest.mark.parametrize("seed", range(5))
    def test_msc_runs_clean(self, seed):
        from repro.protocols import msc_cluster
        from repro.workloads import random_workloads

        cluster = msc_cluster(3, ["x", "y"], seed=seed)
        result = cluster.run(
            random_workloads(3, ["x", "y"], 5, seed=seed + 2)
        )
        assert verify_stream(result, condition="m-sc").consistent

    @pytest.mark.parametrize("seed", range(5))
    def test_mlin_runs_clean_even_for_mlin_condition(self, seed):
        from repro.protocols import mlin_cluster
        from repro.workloads import random_workloads

        cluster = mlin_cluster(3, ["x", "y"], seed=seed)
        result = cluster.run(
            random_workloads(3, ["x", "y"], 5, seed=seed + 2)
        )
        assert verify_stream(result, condition="m-lin").consistent

    def test_msc_stale_scenario_flagged_under_mlin(self):
        from repro.workloads import figure5_scenario

        outcome = figure5_scenario()
        verifier = verify_stream(outcome.result, condition="m-lin")
        assert not verifier.consistent
        assert verify_stream(outcome.result, condition="m-sc").consistent
