"""Unit tests for the forward legality scan.

Which path a check takes (the verdict's ``certificate``, the
``check.scan`` span's ``chain`` and whether ``check.closure`` follows
it) and its refusals, the chain a certificate hands the checker, the
forward legality scan (given, found and object-partitioned chains
alike), the windowed scan's refusal contract, and its streaming
counterpart, :class:`LiveMonitor` with a ``window``.  Corpus-scale
verdict fidelity lives in ``tests/core/test_plan_crossval.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.static import (
    certify_chain,
    certify_history,
    certify_partitioned_history,
)
from repro.core import LiveMonitor, check_condition
from repro.core.plan import run_scan
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
from tests.core.test_index import observe


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
    with fewer successors."""
    from repro.core.index import HistoryIndex, rw_cover_pairs

    index = HistoryIndex.of(history)
    rows = index.closure_rows(closure).succ
    rank = {uid: -row.bit_count() for uid, row in zip(history.uids, rows)}
    return set(
        rw_cover_pairs(index.proper_reads(), index.writer_timelines, rank)
    )


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


class TestWindowedIndex:
    """:class:`LiveMonitor` with a ``window`` (the class keeps the
    name of the ``WindowedIndex`` whose contract this is)."""

    observe = staticmethod(observe)

    def feed(self, index, history):
        for mop in history.mops:
            if mop.is_update:
                index.announce(mop.uid, list(mop.external_writes))
            self.observe(
                index,
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
        index = LiveMonitor(window=16)
        self.feed(index, history)
        assert index.audit() is None
        assert index.consistent
        assert not index.pending
        assert index.epochs > 0

    def test_memory_stays_bounded(self):
        history, _chain = serial(n_mops=200, seed=7, n_objects=2)
        index = LiveMonitor(window=10)
        self.feed(index, history)
        # Per object the timeline keeps at most the sealed head plus
        # the live window of writer positions.
        assert index.retained <= 2 * (10 + 2)
        assert index.sealed > 0

    def test_window_one_rejected(self):
        with pytest.raises(ValueError):
            LiveMonitor(window=0)

    def test_stale_read_behind_seal_counts_refusal(self):
        # Two x writers, then enough y traffic that the seal discards
        # x's older position; a reader whose mark advanced on y then
        # reads x from the *pruned* older writer — undecidable.
        index = LiveMonitor(window=2)
        index.announce(1, ["x"])
        self.observe(index, 1, 0, {}, True)
        index.announce(2, ["x"])
        self.observe(index, 2, 0, {"x": 1}, True)
        for uid in range(3, 9):
            index.announce(uid, ["y"])
            self.observe(index, uid, 1, {}, True)
        self.observe(index, 10, 2, {"y": 8}, False)
        self.observe(index, 11, 2, {"x": 1}, False)
        assert index.window_refusals >= 1
        assert index.audit() is None  # refusal, never a verdict

    def test_illegal_triple_detected_within_window(self):
        index = LiveMonitor(window=32)
        index.announce(1, ["x"])
        self.observe(index, 1, 0, {}, True)
        index.announce(2, ["x"])
        self.observe(index, 2, 0, {"x": 1}, True)
        # Reader saw writer 2 (via y-less mark: its own process read
        # of 2) yet reads x from 1: illegal D 4.6 triple.
        self.observe(index, 3, 1, {"x": 2}, False)
        self.observe(index, 4, 1, {"x": 1}, False)
        violation = index.audit()
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
