"""Coarse performance guards.

These are regression tripwires, not benchmarks: generous bounds that
only fail if an algorithmic regression (e.g. losing the bitmask
closure or a pruning) makes something super-polynomially slower.
Wall-clock limits are 10x+ above current costs to stay robust on slow
machines.
"""

import time

import pytest

from repro.core import HistoryIndex, check_m_sequential_consistency
from repro.core.monitor import verify_stream
from repro.protocols import msc_cluster
from repro.workloads import HistoryShape, random_serial_history, random_workloads
from tests.conftest import twins, ww_chain

pytestmark = pytest.mark.perf


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_constrained_checker_on_300_mops_under_5s():
    shape = HistoryShape(
        n_processes=5, n_objects=4, n_mops=300, query_fraction=0.4
    )
    h = random_serial_history(shape, seed=3)
    updates = [m.uid for m in h.mops if m.is_update]
    ww = list(zip(updates, updates[1:]))
    verdict, seconds = timed(
        lambda: check_m_sequential_consistency(
            h, method="constrained", extra_pairs=ww
        )
    )
    assert verdict.holds
    assert seconds < 5.0


def test_constrained_checker_on_1000_mops_under_15s():
    # Impractical before the shared HistoryIndex layer (the O(n^2)
    # order construction alone dominated); now ~1 s, so guard the
    # whole pipeline — cover-edge orders, cached closure, constraint
    # tests, legality scan, witness — at 10x headroom.
    shape = HistoryShape(
        n_processes=5, n_objects=4, n_mops=1000, query_fraction=0.4
    )
    h = random_serial_history(shape, seed=3)
    updates = [m.uid for m in h.mops if m.is_update]
    ww = list(zip(updates, updates[1:]))
    verdict, seconds = timed(
        lambda: check_m_sequential_consistency(
            h, method="constrained", extra_pairs=ww
        )
    )
    assert verdict.holds
    assert seconds < 15.0


def test_constrained_checker_on_cyclic_1000_mops_under_5s():
    # A read from the future makes the ~ww-extended order cyclic.  The
    # closure is one pass over the strongly connected components
    # whatever the verdict; the Warshall fixpoint it replaced took
    # 1.3 s at 2400 m-operations to answer "cycle".
    shape = HistoryShape(
        n_processes=5, n_objects=4, n_mops=1000, query_fraction=0.4
    )
    valid = random_serial_history(shape, seed=3)
    h = twins(valid)["future"]
    ww = ww_chain(valid)
    verdict, seconds = timed(
        lambda: check_m_sequential_consistency(
            h, method="constrained", extra_pairs=ww
        )
    )
    assert not verdict.holds
    assert not HistoryIndex.of(h).closure("m-sc", ww).is_acyclic()
    assert seconds < 5.0


def test_exact_checker_on_easy_100_mops_under_5s():
    shape = HistoryShape(
        n_processes=5, n_objects=3, n_mops=100, query_fraction=0.4
    )
    h = random_serial_history(shape, seed=4)
    verdict, seconds = timed(
        lambda: check_m_sequential_consistency(h, method="exact")
    )
    assert verdict.holds
    assert seconds < 5.0


def test_transitive_closure_300_nodes_under_2s():
    from repro.core import Relation

    n = 300
    rel = Relation(range(n), [(i, i + 1) for i in range(n - 1)])
    closure, seconds = timed(rel.transitive_closure)
    assert (0, n - 1) in closure
    assert seconds < 2.0


def test_simulation_500_mops_under_10s():
    def run():
        cluster = msc_cluster(8, ["x", "y", "z"], seed=5)
        return cluster.run(
            random_workloads(8, ["x", "y", "z"], 60, seed=6)
        )

    result, seconds = timed(run)
    assert len(result.history) == 480
    assert seconds < 10.0
    # And the monitor keeps up.
    verifier, monitor_seconds = timed(
        lambda: verify_stream(result, condition="m-sc")
    )
    assert verifier.consistent
    assert monitor_seconds < 2.0


def test_certified_partitioned_check_is_one_scan_and_no_closure():
    # Structural, no wall clock: an object-partitioned history with
    # its certificate takes the linear scan over the process chains —
    # the quadratic closure (2.3 s and 368 MiB at 30k m-ops) is never
    # built on the default path.
    from repro.analysis.static import certify_partitioned_history
    from repro.obs import Tracer, install_tracer, uninstall_tracer
    from repro.workloads import random_partitioned_history

    shape = HistoryShape(n_processes=8, n_objects=4, n_mops=10_000)
    history = random_partitioned_history(shape, seed=1)
    tracer = Tracer()
    install_tracer(tracer)
    try:
        verdict = check_m_sequential_consistency(
            history, certificate=certify_partitioned_history(history)
        )
    finally:
        uninstall_tracer()
    assert verdict.holds and len(verdict.witness) == 10_001
    spans = {record["name"] for record in tracer.records()}
    assert "check.scan" in spans
    assert "check.closure" not in spans
    assert HistoryIndex.of(history)._bases == {}


def test_delivered_update_reaches_the_replica_in_four_frames(monkeypatch):
    # Structural, no wall clock: the per-delivery cost of a clean run
    # is the Python frames between the event loop and the replica.
    # Network._deliver -> SequencerAbcast.handle -> Cluster._deliver ->
    # _apply_update_delivery -> store.apply.
    import sys

    from repro.protocols.store import VersionedStore
    from repro.sim.kernel import Simulator

    paths = set()
    apply = VersionedStore.apply

    def tapped_apply(store, program, uid):
        frame, between = sys._getframe(1), []
        while frame.f_code is not Simulator.run.__code__:
            between.append(frame.f_code.co_name)
            frame = frame.f_back
        paths.add(tuple(reversed(between)))
        return apply(store, program, uid)

    monkeypatch.setattr(VersionedStore, "apply", tapped_apply)
    cluster = msc_cluster(4, ["x", "y"], seed=5)
    cluster.run(random_workloads(4, ["x", "y"], 10, seed=6))
    assert paths and all(len(path) <= 4 for path in paths), paths
    # ... and a clean run's abcast retains no delivered entry.
    assert not hasattr(cluster.abcast, "_plog")


def test_faulty_run_is_verified_once_under_its_policy(monkeypatch):
    # Structural, no wall clock: a fault run gets one batch verdict,
    # the one its VerifyPolicy asks for (at 395fb53 it got that plus a
    # verify_stream replay and an uncertified check_condition, neither
    # of which the policy reached).
    import repro.core as core
    import repro.core.consistency as consistency
    import repro.core.monitor as monitor
    from repro.runtime import VerifyPolicy, execute
    from tests.conftest import chaos_spec

    calls = []

    def counted(name, fn):
        def wrapper(subject, condition, **kwargs):
            calls.append((name, condition))
            return fn(subject, condition, **kwargs)

        return wrapper

    check = counted("check_condition", consistency.check_condition)
    stream = counted("verify_stream", monitor.verify_stream)
    for module in (core, consistency):
        monkeypatch.setattr(module, "check_condition", check)
    for module in (core, monitor):
        monkeypatch.setattr(module, "verify_stream", stream)

    def run(protocol, seed, **fields):
        del calls[:]
        return execute(chaos_spec(protocol, seed, ops=10, **fields))

    artifact = run("msc", 1, partition=True)
    assert artifact.ok, artifact.summary()
    assert calls == [("check_condition", "m-sc")]

    artifact = run(
        "mlin", 1, partition=True, verify=VerifyPolicy(condition="m-sc")
    )
    assert artifact.ok, artifact.summary()
    assert calls == [("check_condition", "m-sc")]

    # Verification off: no checker runs, but the in-run audits and the
    # abcast total-order check are not verification — split-brain
    # seed 3 still trips an audit, seed 4 still diverges the logs.
    off = VerifyPolicy(enabled=False)
    artifact = run("msc", 1, partition=True, verify=off)
    assert artifact.ok and artifact.verdicts == [] and calls == []
    assert [event for _t, event, _p, _v in artifact.chaos.audits] == [
        "partition", "heal", "final",
    ]
    for seed, prefix in ((3, "incremental audit: "), (4, "abcast: ")):
        artifact = run(
            "msc", seed, partition=True, quorum_aware=False, verify=off
        )
        assert calls == [] and not artifact.ok
        assert artifact.violations[0].startswith(prefix), artifact.summary()


def test_witness_costs_at_most_5x_the_bare_verdict_at_4000_mops():
    # The deep-verify shape (msc hotspot n=8 x 32 x 500): with the
    # whole D 4.11 pair set the witness cost ~70x the scan's verdict;
    # from the ~rw cover it is a second Kahn pass (~1.3x).  A ratio of
    # the scan's span to the rest of it once its nested witness span
    # is taken out, not a wall-clock bound, so a slow host moves both
    # sides.
    from repro.analysis.static import certify_run
    from repro.obs import Tracer, install_tracer, uninstall_tracer

    objects = [f"x{i}" for i in range(32)]
    result = msc_cluster(8, objects, seed=1).run(
        random_workloads(8, objects, 500, seed=2, zipf_s=1.5)
    )
    history = result.history
    assert len(history) == 4000
    certificate = certify_run(result)

    def scan_and_witness():
        tracer = Tracer()
        install_tracer(tracer)
        try:
            verdict = check_m_sequential_consistency(
                history,
                extra_pairs=result.ww_pairs(),
                certificate=certificate,
            )
        finally:
            uninstall_tracer()
        assert verdict.holds and verdict.witness is not None
        spans = {r["name"]: r for r in tracer.records()}
        scan, witness = spans["check.scan"], spans["check.witness"]
        assert witness["parent"] == scan["id"]
        return scan["dur"], witness["dur"]

    runs = [scan_and_witness() for _ in range(5)]
    with_witness = min(scan for scan, _witness in runs)
    bare = min(scan - witness for scan, witness in runs)
    assert with_witness < 5.0 * bare

