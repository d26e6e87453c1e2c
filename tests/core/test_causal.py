"""Unit tests for m-causal consistency, the per-view row of the
condition table, and for m-causal serializability, which coincides
with m-SC in this model (``docs/paper_notes.md``)."""

import pytest

from repro.core import (
    INIT_UID,
    HistoryIndex,
    check_condition,
    is_legal_sequence,
    is_m_causally_consistent,
    is_m_sequentially_consistent,
)
from tests.conftest import simple_history, view_history


def update_order(h, witness):
    """An m-SC witness projected onto the updates: the one update
    order m-causal serializability asks for."""
    return [u for u in witness if u != INIT_UID and h[u].is_update]


@pytest.fixture
def concurrent_writes_split_reads():
    """The classic causal-but-not-SC history.

    P0 and P1 blind-write x concurrently; P2 reads (1 then 2), P3
    reads (2 then 1).  Causal consistency lets each reader order the
    concurrent writes its own way; sequential consistency demands one
    shared order — impossible.
    """
    return simple_history(
        [
            (1, 0, "w x 1"),
            (2, 1, "w x 2"),
            (3, 2, "r x 1"),
            (4, 2, "r x 2"),
            (5, 3, "r x 2"),
            (6, 3, "r x 1"),
        ]
    )


@pytest.fixture
def causality_violation():
    """P0 writes 1 then 2 (process order); P1 reads 2 then 1."""
    return simple_history(
        [
            (1, 0, "w x 1"),
            (2, 0, "w x 2"),
            (3, 1, "r x 2"),
            (4, 1, "r x 1"),
        ]
    )


class TestCausalOrder:
    def test_contains_process_and_reads_from(self):
        h = simple_history(
            [(1, 0, "w x 1"), (2, 0, "w y 2"), (3, 1, "r x 1")]
        )
        co = HistoryIndex.of(h).closure("m-causal")
        assert (1, 2) in co  # process order
        assert (1, 3) in co  # reads-from

    def test_transitivity(self):
        # P1 reads P0's write then writes y; P2 reads y: the chain
        # makes P0's write causally precede P2's read.
        h = simple_history(
            [
                (1, 0, "w x 1"),
                (2, 1, "r x 1"),
                (3, 1, "w y 2"),
                (4, 2, "r y 2"),
            ]
        )
        co = HistoryIndex.of(h).closure("m-causal")
        assert (1, 4) in co


class TestMCausalConsistency:
    def test_serial_history_is_causal(self):
        h = simple_history(
            [(1, 0, "w x 1"), (2, 1, "r x 1"), (3, 1, "w x 2")]
        )
        assert is_m_causally_consistent(h)

    def test_split_reads_causal_but_not_sc(
        self, concurrent_writes_split_reads
    ):
        h = concurrent_writes_split_reads
        assert is_m_causally_consistent(h)
        assert not is_m_sequentially_consistent(h, method="exact")

    def test_causality_violation_detected(self, causality_violation):
        # One writer orders every update (WW-constraint), so the
        # verdict is m-SC's: an illegal read in P1's view.
        verdict = check_condition(causality_violation, "m-causal")
        assert not verdict.holds
        reader, writer, overwriter = verdict.refutation.triple
        assert (reader, writer, overwriter) == (4, 1, 2)
        assert causality_violation[reader].process == 1

    def test_transitive_causality_violation(self):
        # P0: w(x)1 then w(x)2.  P1 reads x=2 and writes y=5; P2 reads
        # y=5 (so causally after w(x)2) and THEN reads x=1: violation
        # carried through the middleman.
        h = simple_history(
            [
                (1, 0, "w x 1"),
                (2, 0, "w x 2"),
                (3, 1, "r x 2"),
                (4, 1, "w y 5"),
                (5, 2, "r y 5"),
                (6, 2, "r x 1"),
            ]
        )
        verdict = check_condition(h, "m-causal")
        assert not verdict.holds
        assert h[verdict.refutation.triple[0]].process == 2

    def test_inadmissible_view_names_its_process(self):
        # Concurrent writes, so no constraint: the order is acyclic and
        # legal, but P2 reads x=1, then x=2, then x=1 again, which no
        # order of its view explains.
        h = simple_history(
            [
                (1, 0, "w x 1"),
                (2, 1, "w x 2"),
                (3, 2, "r x 1"),
                (4, 2, "r x 2"),
                (5, 2, "r x 1"),
            ]
        )
        for method in ("auto", "exact"):
            verdict = check_condition(h, "m-causal", method=method)
            assert not verdict.holds and verdict.method_used == "exact"
            ref = verdict.refutation
            assert (ref.kind, ref.process) == ("search", 2)
            assert "P2's view" in str(ref)

    def test_multi_object_torn_update_not_causal(self):
        # Atomicity of m-operations still applies: observing half an
        # m-assign violates even causal consistency.
        h = simple_history(
            [(1, 0, "w x 1, w y 1"), (2, 1, "r x 1, r y 0")]
        )
        assert not is_m_causally_consistent(h)


class TestMCausalSerializability:
    def test_sc_implies_causally_serializable(self):
        h = simple_history(
            [(1, 0, "w x 1"), (2, 1, "r x 1"), (3, 2, "w x 2")]
        )
        assert is_m_sequentially_consistent(h, method="exact")
        assert is_m_causally_consistent(h)

    def test_split_reads_not_causally_serializable(
        self, concurrent_writes_split_reads
    ):
        # The readers disagree on the update order, so no *single*
        # update serialization works: m-causal but not m-SC.
        h = concurrent_writes_split_reads
        assert is_m_causally_consistent(h)
        assert not is_m_sequentially_consistent(h)

    def test_cross_object_split_reads(self):
        """Two concurrent single-object writes, observed in opposite
        orders by two readers via *separate* queries.

        P2 sees x written but not y; P3 sees y written but not x --
        incompatible with any single update order (each forces one of
        ``u1 < u2`` / ``u2 < u1`` through the non-decreasing query
        positions), so causal serializability fails along with m-SC,
        while plain causal consistency tolerates the disagreement.
        """
        h = simple_history(
            [
                (1, 0, "w x 1"),
                (2, 1, "w y 1"),
                (3, 2, "r x 1"),
                (4, 2, "r y 0"),
                (5, 3, "r y 1"),
                (6, 3, "r x 0"),
            ]
        )
        assert is_m_causally_consistent(h)
        assert not is_m_sequentially_consistent(h, method="exact")
        assert not is_m_sequentially_consistent(h)

    def test_equivalence_with_m_sequential_consistency(self):
        """In this model the two conditions coincide (module doc).

        Queries write nothing, so the per-process insertions into the
        shared update order always merge into one global legal
        sequence and vice versa: every m-SC witness, cut down to one
        process's view, is a legal sequential history of that view.
        Asserted over randomized instances, including corrupted
        (inconsistent) ones.
        """
        from repro.workloads import (
            HistoryShape,
            corrupt_history,
            random_serial_history,
        )

        checked = 0
        for seed in range(25):
            shape = HistoryShape(
                n_processes=3, n_objects=2, n_mops=7, query_fraction=0.5
            )
            h = random_serial_history(shape, seed=seed)
            h = corrupt_history(h, seed=seed) or h
            exact = check_condition(h, "m-sc", method="exact")
            verdict = check_condition(h, "m-sc")
            assert exact.holds == verdict.holds, seed
            for proc in h.processes if verdict.holds else ():
                view = view_history(h, proc)
                assert is_legal_sequence(
                    view, [u for u in verdict.witness if u in view.uids]
                ), (seed, proc)
            checked += 1
        assert checked == 25


    def test_hierarchy_on_random_histories(self):
        from repro.workloads import (
            HistoryShape,
            corrupt_history,
            random_serial_history,
        )

        for seed in range(10):
            shape = HistoryShape(
                n_processes=3, n_objects=2, n_mops=7, query_fraction=0.4
            )
            h = random_serial_history(shape, seed=seed)
            h = corrupt_history(h, seed=seed) or h
            msc = is_m_sequentially_consistent(h, method="exact")
            ccon = is_m_causally_consistent(h, method="exact")
            if msc:
                assert ccon, seed

    def test_bad_update_prefix_does_not_poison_a_good_one(self):
        """Whether the queries insert depends on the whole update
        order: 1-before-2 strands m4 (it reads x from 2 and y from
        init), 2-before-1 admits it.  A failure memo keyed on the
        scheduled set and last writers — equal for both prefixes —
        once reported this history as not serializable."""
        h = simple_history(
            [
                (1, 0, "w y 1"),
                (2, 1, "w x 1"),
                (3, 2, "r x 1,r y 1,w z 1"),
                (4, 3, "r x 1,r y 0"),
            ]
        )
        assert is_m_sequentially_consistent(h, method="exact")
        verdict = check_condition(h, "m-sc")
        assert verdict.holds
        assert update_order(h, verdict.witness) == [2, 1, 3]

    def test_update_order_witness_returned(self):
        h = simple_history(
            [(1, 0, "w x 1"), (2, 1, "r x 1"), (3, 2, "w x 2")]
        )
        verdict = check_condition(h, "m-sc")
        assert verdict.holds
        assert set(update_order(h, verdict.witness)) == {1, 3}


def test_constrained_m_causal_verdict_is_m_sc_verdict():
    """Where m-SC's order is OO/WW-constrained (certified or tested),
    every view is too and shares its reads, so by Theorem 7 the
    m-causal verdict is m-SC's in every field but the condition: same
    method, certificate, witness and refutation."""
    from dataclasses import replace

    from tools.verdict_corpus import checks

    compared = 0
    for label, history, condition, kwargs in checks():
        if condition != "m-sc":
            continue
        try:
            msc = check_condition(history, "m-sc", **kwargs)
        except Exception:  # a refused path: no verdict
            continue
        if msc.method_used != "constrained":
            continue
        refutation = msc.refutation and replace(
            msc.refutation, condition="m-causal"
        )
        expected = replace(msc, condition="m-causal", refutation=refutation)
        assert check_condition(history, "m-causal", **kwargs) == expected, label
        compared += 1
    assert compared > 1000
