"""Unit tests for histories (Section 2.2)."""

from collections import Counter

import pytest

from repro.core import (
    CONDITIONS,
    INIT_UID,
    History,
    Operation,
    check_condition,
    make_mop,
    write,
)
from repro.core.serialize import history_from_dict, history_to_dict
from repro.errors import (
    MalformedHistoryError,
    MalformedOperationError,
    ReadsFromError,
)
from repro.protocols.recorder import HistoryRecorder, OpRecord
from tests.conftest import simple_history


class TestConstruction:
    def test_initial_mop_materialised(self):
        h = simple_history([(1, 0, "w x 5")])
        assert h.init.uid == INIT_UID
        assert h.init.external_writes == {"x": 0}

    def test_initial_values_override(self):
        h = simple_history([(1, 0, "r x 9")], initial_values={"x": 9})
        assert h.init.external_writes == {"x": 9}
        assert h.writer_of(1, "x") == INIT_UID

    def test_duplicate_uid_rejected(self):
        a = make_mop(1, 0, [write("x", 1)])
        b = make_mop(1, 1, [write("x", 2)])
        with pytest.raises(MalformedHistoryError):
            History.from_mops([a, b])

    def test_reserved_uid_rejected(self):
        a = make_mop(INIT_UID, 0, [write("x", 1)])
        with pytest.raises(MalformedHistoryError):
            History.from_mops([a])

    def test_objects_and_processes(self):
        h = simple_history([(1, 0, "w x 1"), (2, 3, "w y 2")])
        assert h.objects == {"x", "y"}
        assert h.processes == (0, 3)
        assert len(h) == 2

    def test_getitem_and_contains(self):
        h = simple_history([(1, 0, "w x 1")])
        assert h[1].name == "m1"
        assert 1 in h and 99 not in h
        with pytest.raises(MalformedHistoryError):
            h[99]


class TestReadsFromDerivation:
    def test_unique_values_derive(self):
        h = simple_history([(1, 0, "w x 5"), (2, 1, "r x 5")])
        assert h.writer_of(2, "x") == 1

    def test_read_of_initial_value(self):
        h = simple_history([(1, 0, "r x 0")])
        assert h.writer_of(1, "x") == INIT_UID

    def test_unmatched_read_rejected(self):
        with pytest.raises(ReadsFromError):
            simple_history([(1, 0, "r x 42")])

    def test_ambiguous_value_needs_explicit_map(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w x 5"), (3, 2, "r x 5")]
        with pytest.raises(ReadsFromError):
            simple_history(specs)
        h = simple_history(specs, reads_from={(3, "x"): 2})
        assert h.writer_of(3, "x") == 2

    def test_explicit_map_partial_completion(self):
        specs = [
            (1, 0, "w x 5"),
            (2, 1, "w x 5"),
            (3, 2, "r x 5, r y 0"),
        ]
        h = simple_history(specs, reads_from={(3, "x"): 1})
        assert h.writer_of(3, "x") == 1
        assert h.writer_of(3, "y") == INIT_UID

    def test_explicit_map_value_mismatch_rejected(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w x 6"), (3, 2, "r x 5")]
        with pytest.raises(MalformedHistoryError):
            simple_history(specs, reads_from={(3, "x"): 2})

    def test_explicit_map_nonexistent_read_rejected(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w y 6")]
        with pytest.raises(MalformedHistoryError):
            simple_history(specs, reads_from={(2, "x"): 1})

    def test_rfobjects(self):
        h = simple_history(
            [(1, 0, "w x 5, w y 6"), (2, 1, "r x 5, r y 6, r z 0")]
        )
        assert h.rfobjects(2, 1) == {"x", "y"}
        assert h.rfobjects(2, INIT_UID) == {"z"}
        assert h.rfobjects(1, 2) == frozenset()

    def test_reads_from_pairs(self):
        h = simple_history([(1, 0, "w x 5"), (2, 1, "r x 5")])
        assert (1, 2) in h.reads_from_pairs()


class TestWellFormedness:
    def test_overlapping_same_process_rejected(self):
        a = make_mop(1, 0, [write("x", 1)], inv=0.0, resp=2.0)
        b = make_mop(2, 0, [write("x", 2)], inv=1.0, resp=3.0)
        with pytest.raises(MalformedHistoryError):
            History.from_mops([a, b])

    def test_sequential_same_process_ok(self):
        a = make_mop(1, 0, [write("x", 1)], inv=0.0, resp=1.0)
        b = make_mop(2, 0, [write("x", 2)], inv=2.0, resp=3.0)
        h = History.from_mops([a, b])
        assert [m.uid for m in h.subhistory(0)] == [1, 2]

    def test_overlapping_distinct_processes_ok(self):
        a = make_mop(1, 0, [write("x", 1)], inv=0.0, resp=2.0)
        b = make_mop(2, 1, [write("x", 2)], inv=1.0, resp=3.0)
        History.from_mops([a, b])  # no exception

    def test_missing_process_rejected(self):
        a = make_mop(1, 0, [write("x", 1)])
        bad = a.__class__(uid=2, process=None, ops=(write("x", 2),))
        with pytest.raises(MalformedHistoryError):
            History.from_mops([a, bad])

    def test_subhistory_ordering_by_time(self):
        # Listed out of order; timestamps must win.
        b = make_mop(2, 0, [write("x", 2)], inv=2.0, resp=3.0)
        a = make_mop(1, 0, [write("x", 1)], inv=0.0, resp=1.0)
        h = History.from_mops([b, a])
        assert [m.uid for m in h.subhistory(0)] == [1, 2]

    def test_is_timed(self):
        assert simple_history([(1, 0, "w x 1", 0.0, 1.0)]).is_timed
        assert not simple_history([(1, 0, "w x 1")]).is_timed


#: Two processes, an internal read, a query and a read-modify-write.
COST_SPECS = [
    (1, 0, "w x 1, w y 1", 0.0, 1.0),
    (2, 1, "r x 1, r y 1, w z 2, r z 2", 0.5, 2.0),
    (3, 0, "r x 1, r y 1, r z 2", 3.0, 4.0),
]
COST_MAP = {(2, "x"): 1, (2, "y"): 1, (3, "x"): 1, (3, "y"): 1, (3, "z"): 2}


def count_op_walks(monkeypatch):
    """Count, per operation, the reads of its ``kind``: every walk of
    an m-operation's ops reads each op's kind once (a check that does
    not read it needs neither the kind nor any other field)."""
    reads = Counter()
    slot = Operation.__dict__["kind"]

    def kind(op):
        reads[id(op)] += 1
        return slot.__get__(op)

    monkeypatch.setattr(Operation, "kind", property(kind, slot.__set__))
    return reads


def walks_per_op(history, reads):
    return [reads[id(op)] for mop in history.all_mops for op in mop.ops]


class TestConstructionCost:
    """Every construction path walks each m-operation's ops exactly
    once, the walk that validates internal reads and derives the
    external views; completion, validation, ``objects`` and a check
    read only those views.  Counted, not timed."""

    def test_views_are_computed_once_per_mop(self, monkeypatch):
        for reads_from in (None, COST_MAP, {(3, "z"): 2}):
            reads = count_op_walks(monkeypatch)
            h = simple_history(COST_SPECS, reads_from=reads_from)
            assert h.reads_from_map == COST_MAP
            assert h.objects == {"x", "y", "z"}
            assert walks_per_op(h, reads) == [1] * 12

    def test_a_loaded_document_is_walked_once(self, monkeypatch):
        for document in (
            history_to_dict(simple_history(COST_SPECS)),
            {"mops": history_to_dict(simple_history(COST_SPECS))["mops"]},
        ):
            reads = count_op_walks(monkeypatch)
            h = history_from_dict(document)
            assert h.reads_from_map == COST_MAP
            assert walks_per_op(h, reads) == [1] * 12

    def test_a_recorded_run_is_walked_once(self, monkeypatch):
        recorder = HistoryRecorder()
        for mop in simple_history(COST_SPECS).mops:
            recorder.complete(
                OpRecord(
                    uid=mop.uid, process=mop.process, name="p",
                    inv=mop.inv, resp=mop.resp, ops=mop.ops,
                    reads_from={
                        obj: w for (r, obj), w in COST_MAP.items()
                        if r == mop.uid
                    },
                    result=None, is_update=mop.is_update,
                )
            )
        reads = count_op_walks(monkeypatch)
        h = recorder.build_history({"x": 0, "y": 0, "z": 0})
        assert h.reads_from_map == COST_MAP
        assert walks_per_op(h, reads) == [1] * 12

    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    def test_a_check_walks_no_ops(self, monkeypatch, condition):
        h = simple_history(COST_SPECS)
        reads = count_op_walks(monkeypatch)
        assert check_condition(h, condition).holds
        assert sum(reads.values()) == 0


class TestRaiseOrder:
    """Which error wins when several apply is part of the contract
    (differentially pinned against the pre-refactor constructor)."""

    def test_earlier_mops_missing_writer_beats_later_mops_bad_reads(self):
        with pytest.raises(ReadsFromError, match="m1 reads 'x'=7 but no"):
            simple_history([(1, 0, "r x 7"), (2, 1, "r y 1, r y 2")])
        with pytest.raises(MalformedOperationError, match="disagree"):
            simple_history([(1, 0, "r y 1, r y 2"), (2, 1, "r x 7")])

    def test_completion_errors_beat_duplicate_uids(self):
        with pytest.raises(ReadsFromError, match="no m-operation writes"):
            simple_history([(1, 0, "w x 1"), (1, 1, "r x 7")])

    def test_duplicate_uids_beat_reads_from_validation(self):
        with pytest.raises(MalformedHistoryError, match="duplicate"):
            simple_history(
                [(1, 0, "w x 1"), (1, 1, "w x 2")], reads_from={(9, "x"): 1}
            )

    def test_ambiguity_remedy_names_the_map_that_was_passed(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w x 5"), (3, 2, "r x 5, r y 0")]
        with pytest.raises(ReadsFromError, match="pass an explicit"):
            simple_history(specs)
        with pytest.raises(ReadsFromError, match="supply a complete"):
            simple_history(specs, reads_from={(3, "y"): 0})

    def test_value_mismatch_message(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w x 6"), (3, 2, "r x 5")]
        with pytest.raises(
            MalformedHistoryError,
            match="m3 reads 'x'=5 but its reads-from writer m2 wrote 6",
        ):
            simple_history(specs, reads_from={(3, "x"): 2})


class TestEquivalence:
    def test_equivalent_to_self(self):
        h = simple_history([(1, 0, "w x 1", 0.0, 1.0), (2, 1, "r x 1", 0.5, 2.0)])
        assert h.equivalent_to(h)

    def test_retimed_history_equivalent(self):
        h1 = simple_history(
            [(1, 0, "w x 1", 0.0, 1.0), (2, 1, "r x 1", 0.5, 2.0)]
        )
        h2 = simple_history(
            [(1, 0, "w x 1", 5.0, 6.0), (2, 1, "r x 1", 0.5, 2.0)]
        )
        assert h1.equivalent_to(h2)

    def test_different_process_order_not_equivalent(self):
        h1 = simple_history(
            [(1, 0, "w x 1", 0.0, 1.0), (2, 0, "w x 2", 2.0, 3.0)]
        )
        h2 = simple_history(
            [(1, 0, "w x 1", 2.0, 3.0), (2, 0, "w x 2", 0.0, 1.0)]
        )
        assert not h1.equivalent_to(h2)

    def test_different_reads_from_not_equivalent(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w x 5"), (3, 2, "r x 5")]
        h1 = simple_history(specs, reads_from={(3, "x"): 1})
        h2 = simple_history(specs, reads_from={(3, "x"): 2})
        assert not h1.equivalent_to(h2)

    def test_different_mop_sets_not_equivalent(self):
        h1 = simple_history([(1, 0, "w x 1")])
        h2 = simple_history([(2, 0, "w x 1")])
        assert not h1.equivalent_to(h2)


class TestRendering:
    def test_pretty_contains_processes(self):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "r x 1")])
        text = h.pretty()
        assert "P0" in text and "P1" in text
        assert "w(x)1" in text

    def test_repr(self):
        h = simple_history([(1, 0, "w x 1")])
        assert "1 m-operations" in repr(h)
