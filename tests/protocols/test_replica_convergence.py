"""Replicas converge, and only the issuer of an m-operation records it.

Action A2 has every process apply every atomically-broadcast update;
the store's apply path (one call per landed stretch,
``VersionedStore.apply_run``) builds, and after a crash rebuilds, all
replicas but the issuer's.  These tests pin what that path must
deliver — n equal stores once the run has settled, clean or after
crash + recovery, each in step at the last update position of a clean
run — and, structurally (call counts and positions, no wall clock),
that execution records are built once per m-operation rather than once
per delivery, and that the cluster's state log keeps nothing below its
slowest in-step store.
"""

from collections import Counter

import pytest

from repro.abcast import FailoverSequencer
from repro.protocols import VersionedStore
from repro.runtime.registry import protocol_registry, workload_registry
from repro.sim import Network, UniformLatency
from repro.sim.faults import CrashEvent, FaultInjector, FaultPlan

OBJECTS = tuple(f"x{i}" for i in range(8))


def zipfian(n, ops, seed):
    return workload_registry()["zipfian"].builder(n, OBJECTS, ops, seed)


@pytest.fixture
def store_calls(monkeypatch):
    """Count ``VersionedStore.execute`` / ``apply`` calls."""
    calls = Counter()

    def counted(name):
        original = getattr(VersionedStore, name)

        def method(self, program, mop_uid):
            calls[name] += 1
            return original(self, program, mop_uid)

        return method

    for name in ("execute", "apply"):
        monkeypatch.setattr(VersionedStore, name, counted(name))
    return calls


def assert_log_holds_nothing_below_its_slowest_store(cluster):
    log = cluster.state_log
    held = [
        proc.store._at for proc in cluster.processes if proc.store._held
    ]
    assert log.base == min(held) if held else not log.uids
    assert all(log.holders[position - log.base] for position in held)


def assert_converged(cluster):
    exports = [proc.store.export() for proc in cluster.processes]
    assert all(export == exports[0] for export in exports[1:])
    # Not vacuous: the run really wrote something.
    assert any(version for _v, version, _w in exports[0].values())


@pytest.mark.parametrize("protocol", ["msc", "mlin", "aggregate"])
def test_clean_run_converges(protocol):
    n = 6
    cluster = protocol_registry()[protocol].factory(n, OBJECTS, seed=4)
    result = cluster.run(zipfian(n, 12, seed=5), settle=5.0)
    assert_converged(cluster)
    updates = sum(rec.is_update for rec in result.recorder.records)
    assert {proc.store._at for proc in cluster.processes} == {updates}
    assert_log_holds_nothing_below_its_slowest_store(cluster)


def test_records_are_built_once_per_mop_not_once_per_delivery(
    store_calls, monkeypatch
):
    # Every replica but an update's issuer steps over the update's
    # position without observing it: n - 1 steps per update, counted
    # over each store's moves through the cluster's state log.
    n = 20
    cluster = protocol_registry()["msc"].factory(n, OBJECTS, seed=2)
    pid_of = {id(proc.store): proc.pid for proc in cluster.processes}
    steps = []
    adopt = VersionedStore._adopt

    def counted_adopt(store, index):
        log = store._log
        for uid in log.uids[store._at + 1 - log.base : index + 1]:
            steps.append((pid_of[id(store)], uid))
        adopt(store, index)

    monkeypatch.setattr(VersionedStore, "_adopt", counted_adopt)
    result = cluster.run(zipfian(n, 6, seed=3), settle=5.0)
    records = result.recorder.records
    updates = sum(rec.is_update for rec in records)
    assert len(records) == n * 6 and 0 < updates < len(records)
    issuer = {rec.uid: rec.process for rec in records}
    assert sum(issuer[uid] != pid for pid, uid in steps) == updates * (n - 1)
    assert store_calls["execute"] == len(records)
    assert_converged(cluster)


@pytest.mark.parametrize("recovery", ["replay", "snapshot"])
@pytest.mark.parametrize("protocol", ["msc", "mlin", "aggregate"])
def test_crash_and_recovery_converges(protocol, recovery, store_calls):
    """P2 crashes mid-run with answered updates behind it, then rejoins.

    Replay recovery re-delivers P2's own, already-answered updates;
    they rebuild the replica through ``apply`` like anyone else's, so
    even with a crash every m-operation is still observed exactly once.
    """
    n, seed = 4, 7
    plan = FaultPlan(
        seed=seed,
        drop_prob=0.05,
        crashes=(CrashEvent(pid=2, at=9.0, restart_after=6.0),),
    )
    cluster = protocol_registry()[protocol].factory(
        n,
        OBJECTS,
        seed=seed,
        fault_tolerant=True,
        recovery=recovery,
        abcast_factory=FailoverSequencer,
        network_factory=lambda sim, size: Network(
            sim,
            size,
            latency=UniformLatency(0.5, 1.5),
            seed=seed + 1,
            reliable=True,
        ),
    )
    injector = FaultInjector(plan).install(cluster)
    result = cluster.run(zipfian(n, 10, seed=seed), settle=5.0)
    assert [pid for _t, pid in injector.restarted] == [2]
    crash_time = injector.crashed[0][0]
    assert any(
        rec.process == 2 and rec.is_update and rec.resp < crash_time
        for rec in result.recorder.records
    )
    assert len(result.recorder.records) == n * 10
    assert store_calls["execute"] == len(result.recorder.records)
    assert_converged(cluster)
    assert_log_holds_nothing_below_its_slowest_store(cluster)
