"""Property-based tests: the store realises the P 5.x timestamp laws.

Section 5's correctness proofs hinge on properties of the per-object
version vector; hypothesis drives random program sequences through a
:class:`VersionedStore` and asserts the laws hold of every execution
record:

* P 5.16/P 5.27: ``ts(start)[x] == ts(finish)[x]`` for unwritten x;
* P 5.17/P 5.28: ``ts(start)[x] == ts(finish)[x] - 1`` for written x;
* monotonicity (P 5.10/P 5.18): the store's vector never decreases;
* D 5.1: the recorded reads-from writer of x is exactly the
  m-operation whose finish version of x equals the reader's start
  version — the operational reads-from used by the recorder;
* apply/execute equivalence: a replica driven by the record-free
  ``apply`` (action A2 at a non-issuer) ends in the same state, and
  rejects the same programs, as one driven by ``execute``;
* the replica image: whatever was done to a store between two exports,
  a full ``export()`` is the per-object definition, the reply that
  carries it is priced as the walk prices a plain copy, and snapshots
  already handed out do not move.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.objects import (
    casn,
    dcas,
    fetch_add,
    m_assign,
    m_read,
    read_reg,
    swap_objects,
    transfer,
    write_reg,
)
from repro.protocols import MProgram, VersionedStore
from repro.protocols.mlin import QUERY_RESP
from repro.sim.network import MAX_SIZE_DEPTH, Message
from tests.sim.test_estimate_size import nested, reference_size

OBJECTS = ("x", "y", "z")


@st.composite
def programs(draw):
    kind = draw(
        st.sampled_from(
            [
                "read", "write", "m_read", "m_assign", "dcas", "faa",
                "swap", "casn", "transfer",
            ]
        )
    )
    obj = draw(st.sampled_from(OBJECTS))
    other = draw(st.sampled_from(OBJECTS))
    value = draw(st.integers(0, 5))
    if kind == "read":
        return read_reg(obj)
    if kind == "write":
        return write_reg(obj, value)
    if kind == "m_read":
        return m_read(sorted({obj, other}))
    if kind == "m_assign":
        return m_assign({obj: value, other: value + 1})
    if kind == "dcas":
        if obj == other:
            return write_reg(obj, value)
        return dcas(obj, other, value, value, value + 1, value + 2)
    if kind == "faa":
        return fetch_add(obj, value)
    if kind == "casn":
        # Expected values are small, so some succeed and some fail
        # after reading only a prefix of their objects.
        return casn(
            [
                (o, draw(st.integers(0, 2)), value)
                for o in sorted({obj, other})
            ]
        )
    if kind == "transfer":
        if obj == other:
            return read_reg(obj)
        return transfer(obj, other, value)
    return (
        swap_objects(obj, other) if obj != other else read_reg(obj)
    )


@given(st.lists(programs(), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_version_vector_laws(progs):
    store = VersionedStore({obj: 0 for obj in OBJECTS})
    finish_version_writer = {
        (obj, 0): 0 for obj in OBJECTS
    }  # (obj, version) -> writer uid
    previous_vector = store.ts_vector()
    for uid, prog in enumerate(progs, start=1):
        record = store.execute(prog, uid)
        # P 5.27 / P 5.28.
        for obj in OBJECTS:
            if obj in record.wobjects:
                assert record.start_ts[obj] == record.finish_ts[obj] - 1
                finish_version_writer[(obj, record.finish_ts[obj])] = uid
            else:
                assert record.start_ts[obj] == record.finish_ts[obj]
        # Monotonicity of the store's vector.
        assert store.ts_vector() >= previous_vector
        previous_vector = store.ts_vector()
        # D 5.1: reads-from via version equality.
        for obj, version in record.read_versions.items():
            assert record.reads_from[obj] == finish_version_writer[
                (obj, version)
            ]


@given(st.lists(programs(), min_size=1, max_size=15), st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_execution_is_deterministic(progs, _salt):
    """Identical program sequences yield identical stores and records."""
    a = VersionedStore({obj: 0 for obj in OBJECTS})
    b = VersionedStore({obj: 0 for obj in OBJECTS})
    for uid, prog in enumerate(progs, start=1):
        ra = a.execute(prog, uid)
        rb = b.execute(prog, uid)
        assert ra.ops == rb.ops
        assert ra.result == rb.result
    assert a.export() == b.export()


@given(st.lists(programs(), min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_export_roundtrip_preserves_state(progs):
    store = VersionedStore({obj: 0 for obj in OBJECTS})
    for uid, prog in enumerate(progs, start=1):
        store.execute(prog, uid)
    clone = VersionedStore.from_export(store.export())
    assert clone.export() == store.export()
    assert clone.ts_vector() == store.ts_vector()


@given(st.lists(programs(), min_size=1, max_size=25))
@settings(max_examples=100, deadline=None)
def test_apply_and_execute_drive_replicas_to_the_same_state(progs):
    applied = VersionedStore({obj: 0 for obj in OBJECTS})
    executed = VersionedStore({obj: 0 for obj in OBJECTS})
    for uid, prog in enumerate(progs, start=1):
        assert applied.apply(prog, uid) is None
        executed.execute(prog, uid)
        assert applied.export() == executed.export()
    assert applied.ts_vector() == executed.ts_vector()


def _bad_programs():
    def stray(view):
        view.write("x", 1)
        return view.read("y")

    def unknown(view):
        view.write("x", 1)
        return view.read("nope")

    return [
        MProgram("liar", lambda view: view.write("x", 1), may_write=False),
        MProgram(
            "stray", stray, may_write=True, static_objects=frozenset("x")
        ),
        MProgram("unknown-read", unknown, may_write=True),
        MProgram(
            "unknown-write",
            lambda view: view.write("nope", 1),
            may_write=True,
        ),
    ]


@pytest.mark.parametrize(
    "program", _bad_programs(), ids=lambda program: program.name
)
def test_apply_and_execute_reject_the_same_programs(program):
    applied = VersionedStore({obj: 0 for obj in OBJECTS})
    executed = VersionedStore({obj: 0 for obj in OBJECTS})
    with pytest.raises(ProtocolError) as via_apply:
        applied.apply(program, 1)
    with pytest.raises(ProtocolError) as via_execute:
        executed.execute(program, 1)
    assert str(via_apply.value) == str(via_execute.value)
    # The access checks live in one place, so even the half-run
    # program leaves both replicas in the same state.
    assert applied.export() == executed.export()


# ----------------------------------------------------------------------
# The replica image
# ----------------------------------------------------------------------

#: Written values beyond the workloads' ints: every leaf rule of the
#: estimator, containers, and one nested past the depth cap.
odd_values = st.one_of(
    st.integers(-3, 2**70),
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 9), max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
    st.just(nested(MAX_SIZE_DEPTH + 2)),
)
subsets = st.sets(st.sampled_from(OBJECTS)).map(frozenset)
steps = st.one_of(
    st.tuples(st.sampled_from(["execute", "apply"]), programs()),
    st.tuples(st.just("raise"), st.sampled_from(_bad_programs())),
    st.tuples(
        st.just("apply_writes"),
        st.dictionaries(st.sampled_from(OBJECTS), odd_values, max_size=3),
    ),
    st.tuples(st.just("reset"), st.none()),
    # Crash and reinstall a snapshot taken earlier, as the single
    # server does with its durable image.
    st.tuples(st.just("install"), st.integers(0, 50)),
    st.tuples(st.just("export"), st.none()),
    st.tuples(st.just("export"), subsets),
)


def by_definition(store, objects=None):
    names = OBJECTS if objects is None else sorted(objects)
    return {
        obj: (store.value_of(obj), store.version_of(obj), store.writer_of(obj))
        for obj in names
    }


def check_export(store, objects, uid):
    """One (A4) reply: right content, right price, nothing shared."""
    priced = None
    if objects is None:
        snapshot, snapshot_size, ts, ts_size = store.export_priced()
        priced = {"snapshot": snapshot_size, "ts": ts_size}
        assert store.export() == snapshot and store.lex_ts() == ts
    else:
        snapshot = store.export(objects)
        ts = store.lex_ts(objects)
    assert snapshot == by_definition(store, objects)
    assert list(snapshot) == list(by_definition(store, objects))
    names = OBJECTS if objects is None else sorted(objects)
    assert ts == tuple(store.version_of(obj) for obj in names)
    assert type(snapshot) is dict
    reply = {"uid": uid, "attempt": 0, "snapshot": snapshot, "ts": ts}
    assert Message(QUERY_RESP, reply, priced).size == reference_size(reply)
    return snapshot


@given(st.lists(steps, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_exports_are_the_definition_and_priced_as_the_walk(script):
    store = VersionedStore({obj: 0 for obj in OBJECTS})
    handed_out = []  # (snapshot, deep copy at hand-out time)
    for uid, (step, arg) in enumerate(script, start=1):
        if step in ("execute", "apply"):
            try:
                getattr(store, step)(arg, uid)
            except TypeError:
                pass  # arithmetic on an odd value: also a half-run program
        elif step == "raise":
            with pytest.raises(ProtocolError):
                store.apply(arg, uid)
        elif step == "apply_writes":
            store.apply_writes(arg, uid)
        elif step == "reset":
            store.reset()
        elif step == "install":
            full = [snap for snap, _copy in handed_out if len(snap) == 3]
            if full:
                durable = full[arg % len(full)]
                store.reset()
                store.install(durable)
                assert store.export() == durable
        else:
            snapshot = check_export(store, arg, uid)
            handed_out.append((snapshot, copy.deepcopy(snapshot)))
            if arg is None:
                clone = VersionedStore.from_export(snapshot)
                assert check_export(clone, None, uid) == snapshot
                adopter = VersionedStore({obj: -1 for obj in OBJECTS})
                adopter.install(snapshot)
                assert check_export(adopter, None, uid) == snapshot
    check_export(store, None, 0)
    for snapshot, kept in handed_out:
        assert snapshot == kept


def test_a_write_after_a_full_export_does_not_show_in_it():
    # A full A4 reply is the image's own cell dict, shared until a
    # write: the write rebuilds the dict instead of changing it.
    store = VersionedStore({obj: 0 for obj in OBJECTS})
    before = by_definition(store)
    first = store.export_priced()[0]
    assert store.export_priced()[0] is first
    store.execute(write_reg("x", 1), 1)
    store.apply_writes({"y": 2}, 2)
    later = store.export_priced()[0]
    assert first == before and later == by_definition(store) != before
    store.apply(write_reg("x", 3), 3)
    assert store.export_priced()[0] == by_definition(store) != later


def test_image_exists_only_once_a_full_export_was_asked_for():
    store = VersionedStore({obj: 0 for obj in OBJECTS})
    store.execute(write_reg("x", 1), 1)
    store.apply_writes({"y": 2}, 2)
    store.export(frozenset("x"))
    store.lex_ts()
    assert store._image is None
    store.export()
    assert store._image is not None
    donor = VersionedStore.from_export(store.export())
    for drop in (store.reset, lambda: store.install(donor.export())):
        store.export()
        drop()
        assert store._image is None


def test_server_durable_image_survives_later_commits_and_a_restart():
    from repro.protocols import server_cluster

    cluster = server_cluster(2, OBJECTS, fault_tolerant=True)
    server = cluster.processes[0]
    server._server_execute(1, write_reg("x", 4))
    first = server._durable_store
    first_copy = dict(first)
    server._server_execute(2, m_assign({"y": 1, "z": 2}))
    durable = server._durable_store
    assert first == first_copy != durable
    server.store.apply(write_reg("x", 9), 3)  # executed, never committed
    server.crash()
    server.recover()
    assert server.store.export() == durable == by_definition(server.store)
    server._server_execute(4, fetch_add("x", 1))
    assert server._durable_store == by_definition(server.store)
    assert server._durable_store["x"] == (5, 2, 4)
