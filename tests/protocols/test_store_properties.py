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
  rejects the same programs, as one driven by ``execute``.
"""

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
