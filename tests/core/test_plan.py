"""Unit tests for the forward legality scan.

Which path a check takes (the verdict's ``certificate``, the
``check.scan`` span's ``chain`` and whether ``check.closure`` follows
it) and its refusals, the chain a certificate hands the checker, the
forward legality scan (given, found and object-partitioned chains
alike), the windowed scan's refusal contract, and the
:class:`~repro.core.plan.Timeline` kernel against the definitions it
answers.  Corpus-scale verdict fidelity lives in
``tests/core/test_plan_crossval.py``; the streaming counterpart,
:class:`~repro.core.monitor.LiveMonitor` with a ``window``, is tested
in ``tests/core/test_monitor.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.static import (
    certify_chain,
    certify_history,
    certify_partitioned_history,
)
from repro.core import check_condition
from repro.core.operation import INIT_UID
from repro.core.plan import INIT_POS, Timeline, run_scan
from repro.errors import (
    CertificationRefused,
    InvalidCertificate,
    PlanRefused,
    WindowExceeded,
)
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.workloads import (
    HistoryShape,
    random_partitioned_history,
    random_serial_history,
)


def serial(n_mops=40, seed=3, **kwargs):
    shape = HistoryShape(n_mops=n_mops, **kwargs)
    history = random_serial_history(shape, seed=seed)
    chain = [m.uid for m in history.mops if m.is_update]
    return history, chain


def partitioned(n_mops=60, seed=3, n_processes=3):
    shape = HistoryShape(
        n_processes=n_processes, n_objects=2, n_mops=n_mops
    )
    return random_partitioned_history(shape, seed=seed)


def popcount_rw_cover(history, closure):
    """The ~rw cover over ``closure``'s writer chains, ranked by row
    popcount: a node of a closed strict order precedes only nodes
    with fewer successors.  Per read ``a`` from ``b`` the pair goes to
    the first writer after ``b`` other than ``a`` — the reference the
    scan's :meth:`Timeline.next_writer` cover is compared against."""
    from repro.core.index import HistoryIndex

    index = HistoryIndex.of(history)
    rows = index.closure_rows(closure).succ
    rank = {uid: -row.bit_count() for uid, row in zip(history.uids, rows)}
    pairs = set()
    for (a_uid, obj), b_uid in index.proper_reads():
        later = [
            c for c in index.writer_timelines.get(obj, ())
            if c != a_uid and rank[c] > rank[b_uid]
        ]
        if later:
            pairs.add((a_uid, min(later, key=rank.__getitem__)))
    return pairs


def traced(history, condition, **kwargs):
    """The verdict and the names of the check's spans."""
    tracer = Tracer()
    install_tracer(tracer)
    try:
        verdict = check_condition(history, condition, **kwargs)
    finally:
        uninstall_tracer()
    return verdict, {r["name"]: r for r in tracer.records()}


class TestPlanner:
    """Which path a check takes, read off its verdict and spans."""

    def test_full_without_certificate_is_closure(self):
        # Without a certificate the scan finds its own update chain.
        # ~H is closed, for the OO test, only when that chain is not
        # the total update order of D 4.9.
        history, chain = serial()
        verdict, spans = traced(history, "m-sc")
        assert verdict.certificate is None
        assert spans["check.scan"]["attrs"]["chain"] is None
        assert "check.closure" in spans and "check.constraints" in spans
        ww = tuple(zip(chain, chain[1:]))
        verdict, spans = traced(history, "m-sc", extra_pairs=ww)
        assert verdict.certificate is None
        assert verdict.method_used == "constrained" and verdict.holds
        assert spans["check.scan"]["attrs"]["chain"] is None
        assert "check.closure" not in spans
        assert "check.constraints" not in spans

    def test_full_with_chain_certificate_is_scan(self):
        history, chain = serial()
        ww = tuple(zip(chain, chain[1:]))
        cert = certify_chain(history, chain)
        assert cert.chain_for(history, ww) == tuple(chain)
        verdict, spans = traced(
            history, "m-sc", extra_pairs=ww, certificate=cert
        )
        assert verdict.certificate == "total-update-order"
        assert spans["check.scan"]["attrs"]["chain"] == len(chain)
        assert "check.closure" not in spans
        assert "check.constraints" not in spans
        uncertified = check_condition(history, "m-sc", extra_pairs=ww)
        assert uncertified.witness == verdict.witness

    def test_windowed_requires_chain_certificate(self):
        history = partitioned()
        cert = certify_partitioned_history(history)
        with pytest.raises(PlanRefused, match="chain"):
            check_condition(history, "m-sc", window=16, certificate=cert)
        with pytest.raises(PlanRefused):
            check_condition(history, "m-sc", window=16)

    def test_windowed_plan_carries_window(self):
        history, chain = serial(n_mops=80, seed=5)
        ww = tuple(zip(chain, chain[1:]))
        cert = certify_chain(history, chain)
        verdict, spans = traced(
            history, "m-sc", window=len(history.mops), extra_pairs=ww,
            certificate=cert,
        )
        assert verdict.holds and "check.scan" in spans
        with pytest.raises(WindowExceeded):
            check_condition(
                history, "m-sc", window=1, extra_pairs=ww, certificate=cert
            )

    def test_partitioned_certificate_scans_the_process_chains(self):
        history = partitioned(n_processes=3)
        cert = certify_partitioned_history(history)
        # Every update, process by process in pid order, each
        # process's in issue order.
        by_process = sorted(
            (m.process, m.inv, m.uid) for m in history.mops if m.is_update
        )
        assert cert.chain_for(history) == tuple(
            uid for _p, _t, uid in by_process
        )
        for condition in ("m-sc", "m-norm"):
            verdict, spans = traced(history, condition, certificate=cert)
            assert verdict.certificate == "object-partitioned"
            assert spans["check.scan"]["attrs"]["chain"] == len(by_process)
            assert "check.closure" not in spans
            assert "check.constraints" not in spans

    def test_partitioned_mlin_and_extra_pairs_take_the_closure(self):
        # ~t and extra_pairs order m-operations across the partitions:
        # a reader's mark would leave its own segment of the
        # certificate's chain.  The scan finds its own chain instead,
        # and the certificate (OO holds) spares it the closure.
        history = partitioned()
        cert = certify_partitioned_history(history)
        for condition, extra in (("m-lin", ()), ("m-sc", ((1, 2),))):
            verdict, spans = traced(
                history, condition, certificate=cert, extra_pairs=extra
            )
            assert verdict.certificate == "object-partitioned"
            assert spans["check.scan"]["attrs"]["chain"] is None
            assert "check.closure" not in spans
            assert "check.constraints" not in spans
            uncertified = check_condition(
                history, condition, extra_pairs=extra
            )
            assert (uncertified.holds, uncertified.witness) == (
                verdict.holds, verdict.witness
            )

    @pytest.mark.parametrize("window", [0, -3, True, 2.5, "3"])
    def test_window_must_be_a_positive_int(self, window):
        history, chain = serial()
        cert = certify_chain(history, chain)
        ww = tuple(zip(chain, chain[1:]))
        with pytest.raises(ValueError, match="window"):
            check_condition(
                history, "m-sc", window=window, extra_pairs=ww,
                certificate=cert,
            )


class TestScan:
    def test_scan_matches_closure_verdict_and_witness(self):
        history, chain = serial(n_mops=60)
        ww = tuple(zip(chain, chain[1:]))
        cert = certify_chain(history, chain)
        for condition in ("m-sc", "m-lin", "m-norm"):
            fast = check_condition(
                history,
                condition,
                method="constrained",
                extra_pairs=ww,
                certificate=cert,
            )
            slow = check_condition(
                history, condition, method="constrained", extra_pairs=ww
            )
            assert fast.holds == slow.holds
            assert fast.witness == slow.witness

    def test_scan_detects_illegal_read(self):
        # Two updates of x in chain order, a reader holding the stale
        # value while the newer writer is ordered between them.
        from repro.core import History, make_mop, read, write

        history = History.from_mops(
            [
                make_mop(1, 0, [write("x", 1)]),
                make_mop(2, 0, [write("x", 2)]),
                make_mop(3, 1, [read("x", 1)]),
            ],
            reads_from={(3, "x"): 1},
        )
        result = run_scan(
            history, "m-sc", (1, 2), extra_pairs=((1, 2),)
        )
        # The reader's mark does not cover writer 2 here, so the
        # history is legal; force the interleaving via extra pairs.
        result = run_scan(
            history,
            "m-sc",
            (1, 2),
            extra_pairs=((1, 2), (2, 3)),
        )
        assert result.refutation.kind == "illegal"

    def test_scan_rw_pairs_match_index(self):
        # ScanResult.rw is the linear-size cover of D 4.11, not the
        # pair set itself: contained in it, and generating all of it.
        from repro.core.index import HistoryIndex

        history, chain = serial(n_mops=50, seed=9)
        ww = tuple(zip(chain, chain[1:]))
        result = run_scan(history, "m-sc", tuple(chain), extra_pairs=ww)
        index = HistoryIndex.of(history)
        base = index.base_relation("m-sc", ww)
        closure = base.transitive_closure()
        full = set(index.rw_pairs_under(closure))
        cover = set(result.rw)
        assert cover <= full
        assert cover == popcount_rw_cover(history, closure)
        assert len(result.rw) <= len(index.proper_reads()) < len(full)
        extended = base.copy()
        for pair in cover:
            extended.add(*pair)
        generated = extended.transitive_closure()
        assert all(pair in generated for pair in full)

    def test_scan_finds_its_own_chain(self):
        # Without a chain the updates' Kahn pop order is the chain: the
        # ~ww-ordered history is found WW and scans exactly as the
        # given chain does; without ~ww the found order is not total.
        history, chain = serial(n_mops=50, seed=9)
        ww = tuple(zip(chain, chain[1:]))
        given = run_scan(history, "m-sc", tuple(chain), extra_pairs=ww)
        found = run_scan(history, "m-sc", extra_pairs=ww)
        assert found.ww and not given.ww
        assert (found.rw, found.witness) == (given.rw, given.witness)
        assert not run_scan(history, "m-sc").ww


class TestWindowedScan:
    def test_window_none_equals_full(self):
        history, chain = serial(n_mops=50, seed=4)
        ww = tuple(zip(chain, chain[1:]))
        full = run_scan(history, "m-sc", tuple(chain), extra_pairs=ww)
        windowed = run_scan(
            history, "m-sc", tuple(chain), extra_pairs=ww, window=None
        )
        assert (full.refutation, full.witness) == (
            windowed.refutation,
            windowed.witness,
        )

    def test_tiny_window_refuses_not_misanswers(self):
        history, chain = serial(n_mops=80, seed=5)
        ww = tuple(zip(chain, chain[1:]))
        with pytest.raises(WindowExceeded):
            run_scan(
                history, "m-sc", tuple(chain), extra_pairs=ww, window=1
            )

    def test_safe_window_matches_full(self):
        history, chain = serial(n_mops=80, seed=5)
        ww = tuple(zip(chain, chain[1:]))
        full = run_scan(history, "m-sc", tuple(chain), extra_pairs=ww)
        windowed = run_scan(
            history,
            "m-sc",
            tuple(chain),
            extra_pairs=ww,
            window=len(history.mops),
        )
        assert full.refutation == windowed.refutation


class TestPartitioned:
    def test_certified_default_matches_monolithic(self):
        history = partitioned(n_mops=90, seed=11)
        cert = certify_partitioned_history(history)
        for condition in ("m-sc", "m-norm", "m-lin"):
            certified = check_condition(
                history, condition, method="constrained", certificate=cert
            )
            mono = check_condition(
                history, condition, method="constrained"
            )
            assert certified.holds == mono.holds
            assert certified.witness == mono.witness
            assert certified.certificate == "object-partitioned"

    def test_scan_over_process_chains_covers_rw(self):
        # One scan over the concatenated chains yields the whole
        # history's ~rw cover: at most one pair per read.
        from repro.core.index import HistoryIndex

        history = partitioned(n_mops=60, seed=2)
        chain = certify_partitioned_history(history).chain_for(history)
        result = run_scan(history, "m-sc", chain)
        assert result.holds
        index = HistoryIndex.of(history)
        closure = index.base_relation("m-sc").transitive_closure()
        assert set(result.rw) == popcount_rw_cover(history, closure)
        assert set(result.rw) <= set(index.rw_pairs_under(closure))
        assert len(result.rw) <= len(index.proper_reads())

    def test_cross_process_access_fails_the_audit(self):
        # The certificate is re-audited before its chain is used: a
        # shared object never reaches the scan.
        history, _chain = serial()
        cert = certify_partitioned_history(partitioned())
        with pytest.raises(InvalidCertificate, match="accessed by"):
            check_condition(history, "m-sc", certificate=cert)


class TestCertifyHistory:
    def test_strongest_rule_first(self):
        history, chain = serial(n_mops=30, seed=1, n_processes=1)
        assert certify_history(history).rule == "single-updater"
        part = partitioned()
        assert certify_history(part).rule == "object-partitioned"

    def test_refuses_shared_multi_writer(self):
        history, _chain = serial(n_mops=30, seed=1)
        with pytest.raises(CertificationRefused):
            certify_history(history)


class TestTimeline:
    """The kernel both Theorem-7 checkers ask, against brute-force
    readings of D 4.6 and D 4.11 over random update chains."""

    OBJECTS = ("x", "y", "z")

    def random_timeline(self, rng):
        """A timeline and its chain as ``(uid, writes)`` per position."""
        timeline = Timeline(INIT_UID)
        chain = []
        for uid in range(1, rng.randint(1, 14)):
            writes = tuple(o for o in self.OBJECTS if rng.random() < 0.45)
            assert timeline.place(uid, writes) == len(chain)
            chain.append((uid, writes))
        return timeline, chain

    @staticmethod
    def writers_after(chain, reader, obj, b_pos, mark):
        """Positions ``p`` of writers ``c != reader`` of ``obj`` with
        ``b_pos < p <= mark``."""
        return [
            p for p, (uid, writes) in enumerate(chain)
            if uid != reader and obj in writes and b_pos < p <= mark
        ]

    def queries(self, rng, chain):
        """``(reader, obj, b_pos, mark)``: INIT reads, reads from a
        writer of ``obj``, and readers that wrote ``obj`` themselves."""
        n = len(chain)
        for _ in range(40):
            obj = rng.choice(self.OBJECTS)
            writers = [p for p, (_u, w) in enumerate(chain) if obj in w]
            b_pos = rng.choice([INIT_POS] + writers)
            mark = rng.randint(INIT_POS, n - 1)
            reader = rng.choice(
                [chain[p][0] for p in writers] + [n + 1]
            )
            yield reader, obj, b_pos, mark

    def test_questions_match_the_definitions(self):
        rng = random.Random(11)
        own_write_below_mark = init_reads = answered = 0
        for _ in range(300):
            timeline, chain = self.random_timeline(rng)
            for reader, obj, b_pos, mark in self.queries(rng, chain):
                later = self.writers_after(chain, reader, obj, b_pos, mark)
                expected = chain[max(later)][0] if later else None
                assert timeline.overwriter(reader, obj, b_pos, mark) == (
                    expected
                ), (chain, reader, obj, b_pos, mark)
                after = self.writers_after(
                    chain, reader, obj, b_pos, len(chain)
                )
                expected = chain[min(after)][0] if after else None
                assert timeline.next_writer(reader, obj, b_pos) == expected
                own = [
                    p for p, (uid, w) in enumerate(chain)
                    if uid == reader and obj in w
                ]
                own_write_below_mark += bool(own) and own[0] <= mark
                init_reads += b_pos == INIT_POS
                answered += 1
        assert answered == 300 * 40
        assert own_write_below_mark > 500 and init_reads > 1000

    def test_positions_and_uids(self):
        rng = random.Random(5)
        for _ in range(50):
            timeline, chain = self.random_timeline(rng)
            assert timeline.position(INIT_UID) == INIT_POS
            for p, (uid, writes) in enumerate(chain):
                assert uid in timeline and timeline.position(uid) == p
                assert timeline.uid_at(p) == uid
            assert timeline.position(len(chain) + 1) is None
            assert timeline.retained == sum(len(w) for _u, w in chain)

    def test_a_read_behind_the_sealed_head_is_refused(self):
        rng = random.Random(7)
        refused = answered = 0
        for _ in range(300):
            timeline, chain = self.random_timeline(rng)
            floor = rng.randint(1, len(chain) + 1)
            heads = {}
            for obj in self.OBJECTS:
                below = [
                    p for p, (_u, w) in enumerate(chain)
                    if obj in w and p < floor
                ]
                if len(below) > 1:
                    heads[obj] = below[-1]
            dropped = timeline.seal(floor)
            assert dropped == sum(
                sum(1 for p, (_u, w) in enumerate(chain)
                    if obj in w and p < head)
                for obj, head in heads.items()
            )
            for reader, obj, b_pos, mark in self.queries(rng, chain):
                if obj in heads and b_pos < heads[obj]:
                    with pytest.raises(WindowExceeded):
                        timeline.next_writer(reader, obj, b_pos)
                    if b_pos < mark:
                        with pytest.raises(WindowExceeded):
                            timeline.overwriter(reader, obj, b_pos, mark)
                    refused += 1
                    continue
                later = self.writers_after(chain, reader, obj, b_pos, mark)
                expected = chain[max(later)][0] if later else None
                assert timeline.overwriter(reader, obj, b_pos, mark) == (
                    expected
                )
                answered += 1
        assert refused > 500 and answered > 500
