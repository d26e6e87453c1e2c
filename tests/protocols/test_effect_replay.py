"""In-step replicas share one state per update position (``StateLog``).

Under one total update order, a replica that applied the same first k
updates holds the same objects as every other: the first store to
apply update k+1 runs its body and publishes the result, and every
other store in step adopts it.  Two preconditions make that sound, and
are pinned first over every program factory in :mod:`repro.objects`
and every program :mod:`repro.workloads` builds:

* a body is deterministic in the values it reads — on two stores that
  hold equal but distinct objects it returns the same result, performs
  the same operations and writes the same values;
* a body leaves every value it read unchanged.

Then the log itself: a store handed an equal but not identical value
(``1.0`` or ``True`` for ``1``, a freshly built tuple) or a different
one leaves step and runs the body; a blind write is adopted by every
store in step; a store whose next position was dropped runs the body,
to the same state; and in a clean run an update's body runs once to
publish it, at its issuer whenever the issuer applies it first.
"""

import copy
import inspect
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.objects as objects
from repro.objects import RegisterQueue, RegisterStack, fetch_add, write_reg
from repro.protocols import MProgram, VersionedStore
from repro.protocols.msc import msc_cluster
from repro.runtime.registry import workload_registry
from repro.protocols.store import StateLog
from repro.workloads import random_workloads
from repro.workloads.generator import WorkloadMix
from repro.workloads.scenarios import scenario_workloads

QUEUE = RegisterQueue("q", 2)
STACK = RegisterStack("s", 2)
REGISTERS = ("x", "y", "z")
OBJECTS = REGISTERS + tuple(QUEUE.registers) + tuple(STACK.registers)

#: values a register may hold: small ints (cached by CPython) and ints
#: that a fresh copy really duplicates.
VALUES = st.integers(-3, 6) | st.integers(10**3, 10**20)
#: a structure's cursors hold only what its own operations leave.
CURSORS = (QUEUE.head, QUEUE.tail, STACK.top)
STATES = st.fixed_dictionaries(
    {},
    optional={
        obj: st.integers(0, 2) if obj in CURSORS else VALUES
        for obj in OBJECTS
    },
)


def fresh(value):
    """An equal copy of ``value`` that is a distinct object where the
    interpreter allows it (small ints and one-char strings are shared)."""
    if type(value) is int:
        return int(str(value))
    if type(value) is str:
        return "".join(list(value))
    if type(value) is tuple:
        return tuple([fresh(item) for item in value])
    return copy.deepcopy(value)


def test_fresh_copies_are_equal_and_distinct():
    for value in (10**6, "ab", (10**6, "ab"), ()):
        twin = fresh(value)
        assert twin == value
        assert twin is not value or value == ()


FACTORIES = {
    "read_reg": st.builds(objects.read_reg, st.sampled_from(REGISTERS)),
    "write_reg": st.builds(
        objects.write_reg, st.sampled_from(REGISTERS), VALUES
    ),
    "dcas": st.builds(
        objects.dcas, st.just("x"), st.just("y"), VALUES, VALUES, VALUES,
        VALUES,
    ),
    "casn": st.builds(
        objects.casn,
        st.lists(
            st.tuples(st.sampled_from(REGISTERS), VALUES, VALUES),
            min_size=1,
            max_size=3,
            unique_by=lambda triple: triple[0],
        ),
    ),
    "m_assign": st.builds(
        objects.m_assign,
        st.dictionaries(st.sampled_from(REGISTERS), VALUES, min_size=1),
    ),
    "m_read": st.builds(
        objects.m_read, st.sets(st.sampled_from(REGISTERS), min_size=1)
    ),
    "transfer": st.builds(
        objects.transfer, st.just("x"), st.just("z"), st.integers(1, 5)
    ),
    "balance_total": st.builds(
        objects.balance_total,
        st.sets(st.sampled_from(REGISTERS), min_size=1),
    ),
    "sum_of": st.builds(objects.sum_of, st.just("y"), st.just("z")),
    "swap_objects": st.builds(
        objects.swap_objects, st.just("x"), st.just("y")
    ),
    "fetch_add": st.builds(
        objects.fetch_add, st.sampled_from(REGISTERS), st.integers(-5, 5)
    ),
    "compare_and_swap": st.builds(
        objects.compare_and_swap, st.sampled_from(REGISTERS), VALUES, VALUES
    ),
    "RegisterQueue.enqueue": st.builds(QUEUE.enqueue, VALUES),
    "RegisterQueue.dequeue": st.just(QUEUE.dequeue()),
    "RegisterQueue.size": st.just(QUEUE.size()),
    "RegisterStack.push": st.builds(STACK.push, VALUES),
    "RegisterStack.pop": st.just(STACK.pop()),
    "RegisterStack.peek": st.just(STACK.peek()),
}


def test_every_factory_in_repro_objects_is_covered():
    factories = set()
    for name in objects.__all__:
        member = getattr(objects, name)
        if inspect.isclass(member):
            factories.update(
                f"{name}.{method}"
                for method, _ in inspect.getmembers(member, inspect.isfunction)
                if not method.startswith("_")
            )
        elif callable(member):
            factories.add(name)
    assert factories == set(FACTORIES)


def _store(values):
    initial = dict.fromkeys(OBJECTS, 0)
    initial.update(values)
    return VersionedStore(initial)


def _twin(store):
    """A store equal to ``store`` whose every value is a fresh copy."""
    return VersionedStore.from_export(
        {
            obj: (fresh(value), version, writer)
            for obj, (value, version, writer) in store.export().items()
        }
    )


def assert_deterministic_and_read_only(store, program, uid):
    """Run ``program`` on ``store`` and on a twin of fresh copies."""
    twin = _twin(store)
    held = {obj: store.value_of(obj) for obj in store.objects}
    copies = copy.deepcopy(held)
    ran = store.execute(program, uid)
    again = twin.execute(program, uid)
    # repr, not ==: 1, 1.0 and True are equal but are not the same run.
    assert repr(ran.result) == repr(again.result)
    assert repr(ran.ops) == repr(again.ops)
    assert ran.wobjects == again.wobjects
    assert repr(store.export()) == repr(twin.export())
    for obj in ran.reads_from:
        assert held[obj] == copies[obj], f"{program.name} mutated {obj}"


@given(
    STATES,
    st.lists(st.one_of(*FACTORIES.values()), min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_object_bodies_are_deterministic_and_read_only(values, programs):
    store = _store(values)
    for uid, program in enumerate(programs, start=1):
        assert_deterministic_and_read_only(store, program, uid)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("zipf_s", [0.0, 1.5])
def test_workload_bodies_are_deterministic_and_read_only(seed, zipf_s):
    names = [f"x{i}" for i in range(6)]
    mix = WorkloadMix(
        read=1, write=1, m_read=1, m_assign=1, dcas=1, transfer=1,
        audit=1, sum=1,
    )
    workloads = random_workloads(
        4, names, 20, mix=mix, seed=seed, zipf_s=zipf_s
    )
    store = VersionedStore({obj: 10**4 for obj in names})
    uid = 0
    for programs in zip(*workloads):
        for program in programs:
            uid += 1
            assert_deterministic_and_read_only(store, program, uid)


def test_scenario_bodies_are_deterministic_and_read_only():
    store = VersionedStore({"x": 0, "y": 0})
    programs = [p for programs in scenario_workloads(3) for p in programs]
    for uid, program in enumerate(programs, start=1):
        assert_deterministic_and_read_only(store, program, uid)


# ----------------------------------------------------------------------
# The state log
# ----------------------------------------------------------------------


def counted(program):
    """``program`` with a body that counts its runs."""
    runs = Counter()

    def body(view):
        runs["body"] += 1
        return program.body(view)

    return (
        MProgram(
            program.name, body, program.may_write, program.static_objects
        ),
        runs,
    )


def replicas(count, initial):
    """``count`` stores sharing one log, as a cluster's are."""
    log = StateLog(initial)
    return [VersionedStore(initial, log) for _ in range(count)], log


def swap_value(store, obj, value):
    """Replace ``obj``'s value, keeping its version and writer."""
    snapshot = store.export()
    _old, version, writer = snapshot[obj]
    snapshot[obj] = (value, version, writer)
    store.install(snapshot)


def state(store):
    return repr(store.export())


def test_replicas_holding_the_same_objects_replay():
    stores, log = replicas(4, {"x": 1, "y": 0})
    program, runs = counted(fetch_add("x", 10**6))
    for store in stores:
        store.apply(program, 7)
    assert runs["body"] == 1
    assert len({state(store) for store in stores}) == 1
    assert stores[0].writer_of("x") == 7 and stores[3].version_of("x") == 1
    # Every store holds the one published state, and nobody holds the
    # initial one any more: the log keeps position 1 alone.
    assert all(store._at == 1 for store in stores)
    assert all(store._values is stores[0]._values for store in stores)
    assert (log.base, log.uids) == (1, [7])


@pytest.mark.parametrize(
    "initial, twin",
    [(1, 1.0), (1, True), ((10**6, "ab"), fresh((10**6, "ab")))],
    ids=["float", "bool", "tuple"],
)
def test_an_equal_but_distinct_value_runs_the_body(initial, twin):
    def body(view):
        held = view.read("x")
        view.write("y", (type(held).__name__, held))

    program, runs = counted(MProgram("tag", body, may_write=True))
    stores, _log = replicas(4, {"x": initial, "y": 0})
    swap_value(stores[2], "x", twin)
    assert stores[2].value_of("x") == initial and stores[2]._at is None
    expected = VersionedStore({"x": initial, "y": 0})
    swap_value(expected, "x", twin)
    expected.apply(program, 7)
    runs.clear()
    for store in stores:
        store.apply(program, 7)
    # The publisher and the store handed the twin ran it; two adopted.
    assert runs["body"] == 2
    assert stores[2].value_of("y")[1] is twin
    assert state(stores[2]) == state(expected)
    assert state(stores[0]) == state(stores[1]) == state(stores[3])


def test_a_different_value_runs_the_body_to_its_own_state():
    stores, _log = replicas(3, {"x": 5, "y": 0})
    program, runs = counted(objects.transfer("x", "y", 4))
    swap_value(stores[1], "x", 3)  # too poor: this run writes nothing
    for store in stores:
        store.apply(program, 7)
    assert runs["body"] == 2
    assert stores[1].export() == {"x": (3, 0, 0), "y": (0, 0, 0)}
    assert stores[0].export() == stores[2].export() == {
        "x": (1, 1, 7),
        "y": (4, 1, 7),
    }


def test_a_blind_write_replays_everywhere():
    stores, _log = replicas(4, {"x": 0, "y": 0})
    swap_value(stores[2], "y", 1.0)
    program, runs = counted(write_reg("x", 10**6))
    for store in stores:
        store.apply(program, 7)
    # Adopted by the two stores in step; the one out of step runs it.
    assert runs["body"] == 2
    assert [store._at for store in stores] == [1, 1, None, 1]
    assert all(store.export()["x"] == (10**6, 1, 7) for store in stores)


def test_an_evicted_record_runs_the_body_to_the_same_state():
    program, runs = counted(fetch_add("x", 10**6))
    stores, log = replicas(2, {"x": 10**7})
    stores[1].reset()  # holds nothing: position 1 outlives only store 0
    stores[0].apply(program, 7)
    published = state(stores[0])
    stores[0].apply(fetch_add("x", 1), 8)
    assert log.base == 2
    stores[1].apply(program, 7)
    assert runs["body"] == 2 and stores[1]._at is None
    assert state(stores[1]) == published


def test_an_apply_past_the_expected_ones_runs_the_body():
    # A recovery replay re-applies updates whose position is gone.
    program, runs = counted(fetch_add("x", 10**6))
    stores, log = replicas(2, {"x": 10**7})
    for store in stores:
        store.apply(program, 7)
        store.apply(fetch_add("x", 1), 8)
    assert runs["body"] == 1 and log.base == 2
    stores[1].reset()
    stores[1].apply(program, 7)
    assert runs["body"] == 2 and stores[1]._at is None
    assert stores[1].export()["x"] == (10**7 + 10**6, 1, 7)


def test_a_reset_store_adopts_the_positions_still_held():
    program, runs = counted(fetch_add("x", 10**6))
    stores, _log = replicas(2, {"x": 10**7})
    for store in stores:
        store.apply(program, 7)
    stores[1].reset()
    stores[1].apply(program, 7)
    assert runs["body"] == 1 and stores[1]._at == 1
    assert state(stores[1]) == state(stores[0])


def test_another_program_under_the_same_uid_runs_its_own_body():
    stores, _log = replicas(3, {"x": 0})
    stores[0].apply(write_reg("x", 1), 7)
    stores[1].apply(write_reg("x", 2), 7)
    assert stores[1].value_of("x") == 2 and stores[1]._at is None


def test_a_standalone_store_keeps_no_record():
    store = VersionedStore({"x": 0})
    other = VersionedStore({"x": 0})
    for uid in (1, 2, 3):
        store.apply(fetch_add("x", 1), uid)
    # Its own log holds the position it is at, and no other store's.
    assert store._at == 3 and other._at == 0
    assert (store._log.base, store._log.uids) == (3, [3])
    assert other._log is not store._log


def test_replay_marks_the_replica_image_stale():
    stores, _log = replicas(2, {"x": 0, "y": 0})
    stores[1].export()  # the image now exists
    programs = [write_reg("y", 10**6), write_reg("x", 10**6)]
    stores[0].apply(programs[0], 7)
    stores[0].apply(programs[1], 8)
    stores[1].apply_run(programs, [7, 8])
    assert stores[1]._at == 2
    assert stores[1].export() == {"x": (10**6, 1, 8), "y": (10**6, 1, 7)}


def counted_cluster_run(monkeypatch, n, workloads, **kwargs):
    """Run msc with every body counted: ``(result, cluster, executes,
    body runs per program, body runs inside apply per program,
    positions each program's issuer published in its execute)``."""
    executes = Counter()
    inside_apply = Counter()
    published = Counter()
    execute = VersionedStore.execute
    apply = VersionedStore.apply

    def counted_execute(store, program, mop_uid):
        executes["calls"] += 1
        log = store._log
        end = log.base + len(log.uids)
        record = execute(store, program, mop_uid)
        published[program] += log.base + len(log.uids) - end
        return record

    def counted_apply(store, program, mop_uid):
        before = sum(runs["body"] for runs in tallies.values())
        apply(store, program, mop_uid)
        after = sum(runs["body"] for runs in tallies.values())
        inside_apply[program] += after - before

    monkeypatch.setattr(VersionedStore, "execute", counted_execute)
    monkeypatch.setattr(VersionedStore, "apply", counted_apply)
    tallies = {}
    programs = []
    for row in workloads:
        programs.append([])
        for program in row:
            program, runs = counted(program)
            tallies[program] = runs
            programs[-1].append(program)
    cluster = msc_cluster(n, **kwargs)
    result = cluster.run(programs)
    return result, cluster, executes["calls"], tallies, inside_apply, published


def test_a_clean_msc_run_runs_each_update_body_once_inside_apply(
    monkeypatch,
):
    # Counted, not timed: an update's body runs once to publish it
    # (inside an apply, or at its issuer's execute) and once more
    # where its issuer observes a position another store published.
    n = 8
    names = [f"x{i}" for i in range(4)]
    result, cluster, executes, tallies, inside_apply, published = (
        counted_cluster_run(
            monkeypatch, n, random_workloads(n, names, 6, seed=1),
            objects=names, seed=1,
        )
    )
    updates = sum(record.is_update for record in result.recorder.records)
    assert updates > 0
    assert executes == len(result.recorder.records)
    # Each update is published exactly once, by one apply's body run
    # or by its issuer's; no query publishes, and no apply runs a body
    # it does not publish.
    once = [inside_apply[program] + published[program] for program in tallies]
    assert once.count(1) == updates and set(once) == {0, 1}
    assert max(inside_apply.values()) == 1
    # Every store ends in step at the last position: one per update.
    log = cluster.state_log
    assert {proc.store._at for proc in cluster.processes} == {updates}
    assert log.base + len(log.uids) - 1 == updates


def test_an_issuer_that_applies_first_publishes_its_own_update(monkeypatch):
    # deep-verify's shape, small: few replicas on a hotspot, where an
    # issuer often lands its own update before anyone else.  Its
    # observing run publishes the position, so fewer updates than not
    # run their body a second time.
    n, names = 8, [f"x{i}" for i in range(32)]
    workloads = workload_registry()["hotspot"].builder(n, names, 40, 1)
    result, _cluster, executes, tallies, _inside, _published = counted_cluster_run(
        monkeypatch, n, workloads, objects=names, seed=1
    )
    updates = sum(record.is_update for record in result.recorder.records)
    extra = sum(runs["body"] for runs in tallies.values()) - executes
    assert 0 < extra < updates
