"""The one applying view a replica reuses for every delivered update.

``VersionedStore.apply`` binds a single non-observing view to each
program instead of allocating one per update; these tests pin that
reuse to the behaviour of a fresh view per run.
"""

import pytest

from repro.errors import ProtocolError
from repro.objects import write_reg
from repro.protocols import MProgram, VersionedStore
from repro.runtime import execute
from tests.conftest import chaos_spec


@pytest.fixture
def store():
    return VersionedStore({"x": 0, "y": 0, "z": 0})


def test_apply_after_reset_writes_into_the_rebuilt_replica(store):
    store.apply(write_reg("x", 1), 1)
    store.reset()
    assert store.value_of("x") == 0 and store.ts_vector() == (0, 0, 0)
    store.apply(write_reg("x", 2), 2)
    assert store.value_of("x") == 2
    assert store.version_of("x") == 1 and store.writer_of("x") == 2
    assert store.export()["x"] == (2, 1, 2)


def test_a_raising_program_leaves_only_its_own_writes_unversioned(store):
    def write_then_fail(view):
        view.write("x", 7)
        raise RuntimeError("half-way")

    store.apply(write_reg("z", 1), 1)
    with pytest.raises(RuntimeError, match="half-way"):
        store.apply(MProgram("fails", write_then_fail, may_write=True), 2)
    # Its write stays, unversioned; the next program starts with an
    # empty write set, so only what it writes is versioned.
    assert store.value_of("x") == 7 and store.version_of("x") == 0
    store.apply(write_reg("y", 3), 3)
    assert store.ts_vector() == (0, 1, 1)
    assert store.writer_of("x") == 0 and store.writer_of("y") == 3


def _error(run, program):
    with pytest.raises(ProtocolError) as raised:
        run(program, 1)
    return str(raised.value)


@pytest.mark.parametrize(
    "program",
    [
        # unknown object before static_objects
        MProgram(
            "a", lambda v: v.read("nope"), may_write=False,
            static_objects=frozenset(["x"]),
        ),
        # static_objects before may_write
        MProgram(
            "b", lambda v: v.write("y", 1), may_write=False,
            static_objects=frozenset(["x"]),
        ),
        MProgram("c", lambda v: v.write("x", 1), may_write=False),
        MProgram("d", lambda v: v.write("nope", 1), may_write=True),
    ],
    ids=["unknown", "outside-static", "query-writes", "unknown-write"],
)
def test_apply_refuses_exactly_as_execute_does(program):
    applied = _error(VersionedStore({"x": 0, "y": 0}).apply, program)
    executed = _error(VersionedStore({"x": 0, "y": 0}).execute, program)
    assert applied == executed


def test_refusal_messages_keep_their_precedence(store):
    outside = frozenset(["x"])
    assert "unknown shared object 'nope'" in _error(
        store.apply,
        MProgram("a", lambda v: v.write("nope", 1), False, outside),
    )
    assert "outside its declared static_objects" in _error(
        store.apply,
        MProgram("b", lambda v: v.write("y", 1), False, outside),
    )
    assert "declared may_write=False" in _error(
        store.apply, MProgram("c", lambda v: v.write("x", 1), False)
    )


@pytest.mark.parametrize("recovery", ["replay", "snapshot"])
def test_crash_restart_run_rebuilds_through_the_applying_view(recovery):
    artifact = execute(chaos_spec("msc", 0, recovery=recovery))
    assert artifact.ok, artifact.summary()
    assert artifact.chaos.crashes and artifact.chaos.restarts
    assert artifact.completed == artifact.expected
