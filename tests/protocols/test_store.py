"""Unit tests for the versioned store and program execution (S12)."""

import pytest

from repro.errors import ProtocolError
from repro.objects import dcas, read_reg, transfer, write_reg
from repro.protocols import MProgram, VersionedStore


@pytest.fixture
def store():
    return VersionedStore({"x": 0, "y": 0, "z": 0})


class TestVersionTracking:
    def test_initial_versions_zero(self, store):
        assert store.ts_vector() == (0, 0, 0)
        assert store.writer_of("x") == 0  # INIT_UID

    def test_write_bumps_version_once(self, store):
        # P 5.17: exactly +1 per written object per m-operation,
        # regardless of how many write operations hit it.
        prog = MProgram(
            "double-write",
            lambda v: (v.write("x", 1), v.write("x", 2)),
            may_write=True,
        )
        store.execute(prog, mop_uid=5)
        assert store.version_of("x") == 1
        assert store.value_of("x") == 2
        assert store.writer_of("x") == 5

    def test_reads_do_not_bump(self, store):
        store.execute(read_reg("x"), mop_uid=5)
        assert store.ts_vector() == (0, 0, 0)

    def test_ts_vector_canonical_order(self, store):
        store.execute(write_reg("z", 9), mop_uid=1)
        assert store.objects == ("x", "y", "z")
        assert store.ts_vector() == (0, 0, 1)


class TestExecutionRecord:
    def test_start_finish_ts(self, store):
        # P 5.28: ts(start)[x] = ts(finish)[x] - 1 for written x;
        # P 5.27: equal for unwritten.
        record = store.execute(write_reg("x", 3), mop_uid=1)
        assert record.start_ts == {"x": 0, "y": 0, "z": 0}
        assert record.finish_ts == {"x": 1, "y": 0, "z": 0}

    def test_reads_from_capture(self, store):
        store.execute(write_reg("x", 3), mop_uid=1)
        record = store.execute(read_reg("x"), mop_uid=2)
        assert record.reads_from == {"x": 1}
        assert record.read_versions == {"x": 1}
        assert record.result == 3

    def test_internal_read_not_captured(self, store):
        prog = MProgram(
            "w-then-r",
            lambda v: (v.write("x", 7), v.read("x"))[1],
            may_write=True,
        )
        record = store.execute(prog, mop_uid=1)
        assert record.result == 7
        assert record.reads_from == {}  # the read is internal

    def test_read_before_write_is_external(self, store):
        prog = MProgram(
            "r-then-w",
            lambda v: (v.read("x"), v.write("x", 7))[0],
            may_write=True,
        )
        record = store.execute(prog, mop_uid=1)
        assert record.reads_from == {"x": 0}
        assert record.wobjects == {"x"}

    def test_ops_sequence_recorded(self, store):
        record = store.execute(transfer("x", "y", 5), mop_uid=1)
        assert [str(op) for op in record.ops] == ["r(x)0", "r(y)0"]
        assert record.result is False  # insufficient funds

    def test_conditional_write_path(self):
        store = VersionedStore({"x": 10, "y": 0})
        record = store.execute(transfer("x", "y", 5), mop_uid=1)
        assert record.result is True
        assert record.wobjects == {"x", "y"}
        assert store.value_of("x") == 5 and store.value_of("y") == 5


class TestViewEnforcement:
    def test_query_cannot_write(self, store):
        bogus = MProgram("bad", lambda v: v.write("x", 1), may_write=False)
        with pytest.raises(ProtocolError):
            store.execute(bogus, mop_uid=1)

    def test_unknown_object_rejected(self, store):
        bogus = MProgram("bad", lambda v: v.read("nope"), may_write=False)
        with pytest.raises(ProtocolError):
            store.execute(bogus, mop_uid=1)

    def test_static_objects_enforced(self, store):
        bogus = MProgram(
            "bad",
            lambda v: v.read("y"),
            may_write=False,
            static_objects=frozenset(["x"]),
        )
        with pytest.raises(ProtocolError):
            store.execute(bogus, mop_uid=1)

    def test_failed_dcas_writes_nothing(self, store):
        record = store.execute(
            dcas("x", "y", 99, 99, 1, 1), mop_uid=1
        )
        assert record.result is False
        assert record.wobjects == frozenset()
        assert store.ts_vector() == (0, 0, 0)


class TestExportImport:
    def test_export_full(self, store):
        store.execute(write_reg("x", 3), mop_uid=1)
        snapshot = store.export()
        assert snapshot["x"] == (3, 1, 1)
        assert snapshot["y"] == (0, 0, 0)

    def test_export_restricted(self, store):
        snapshot = store.export(frozenset(["x"]))
        assert set(snapshot) == {"x"}

    def test_roundtrip(self, store):
        store.execute(write_reg("x", 3), mop_uid=7)
        clone = VersionedStore.from_export(store.export())
        assert clone.value_of("x") == 3
        assert clone.version_of("x") == 1
        assert clone.writer_of("x") == 7

    def test_lex_ts_restriction(self, store):
        store.execute(write_reg("y", 1), mop_uid=1)
        assert store.lex_ts() == (0, 1, 0)
        assert store.lex_ts(frozenset(["y"])) == (1,)
        assert store.lex_ts(frozenset(["x", "z"])) == (0, 0)

    @pytest.mark.parametrize(
        "refused",
        [
            lambda store: store.apply_writes({"a": 5, "b": 1}, 3),
            # Covers every object, so only the unknown name is wrong.
            lambda store: store.install(
                {"a": (5, 1, 3), "b": (1, 1, 3), "c": (0, 0, 0)}
            ),
        ],
        ids=["apply_writes", "install"],
    )
    def test_a_refused_write_changes_nothing(self, refused):
        store = VersionedStore({"a": 0, "c": 0})
        before = store.export()
        with pytest.raises(ProtocolError, match="unknown shared object 'b'"):
            refused(store)
        assert store.export() == before
        assert store._at == 0
