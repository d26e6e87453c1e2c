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
    assert HistoryIndex.of(history)._d.bases == {}


def test_exact_checks_close_generators_never_closures(monkeypatch):
    # Structural, no wall clock: exact m-SC and m-causal on a recorded
    # history without ~ww close only sparse generators — ~H's cover
    # edges plus the ~rw pairs the fixpoint adds — never a closed
    # relation (688,984 edges at 1,200 m-ops, where 5,327 generate
    # it), and the search reads its predecessor rows off the cached
    # closure instead of walking Relation.pairs.
    import repro.core.relations as relations
    from repro.core import (
        Relation,
        check_condition,
        extended_relation,
        rw_pairs,
    )
    from repro.runtime import RunSpec, VerifyPolicy, execute

    spec = RunSpec(
        protocol="msc", workload="zipfian", n=8,
        objects=tuple(f"x{i}" for i in range(32)), ops=37, seed=1,
        verify=VerifyPolicy(enabled=False),
    )
    history = execute(spec).result.history
    edges, walks = [], []
    reachability, pairs = relations._reachability, Relation.pairs

    def tapped_reachability(rows):
        edges.append(sum(row.bit_count() for row in rows))
        return reachability(rows)

    def tapped_pairs(relation):
        walks.append(len(relation.nodes))
        return pairs(relation)

    with monkeypatch.context() as patch:
        patch.setattr(relations, "_reachability", tapped_reachability)
        patch.setattr(Relation, "pairs", tapped_pairs)
        verdicts = [
            check_condition(history, condition)
            for condition in ("m-sc", "m-causal")
        ]
    assert [(v.holds, v.method_used) for v in verdicts] == [(True, "exact")] * 2
    base = HistoryIndex.of(history).base_relation("m-sc")
    extended = extended_relation(history, base, iterate=True)
    allowed = len(base) + len(rw_pairs(history, extended))
    assert len(history.mops) == 296 and len(edges) > 2 * len(history.processes)
    assert max(edges) <= allowed
    assert walks == []


def test_clean_msc_run_fires_three_events_per_mop():
    # Structural, no wall clock: a clean run's relays land lazily, so
    # an m-operation costs its invocation, and an update adds the
    # request's arrival and the one delivery its client waits for; n
    # more invocations find the workload exhausted.  Queued relays
    # fire one event per replica per update (~2,000 here).
    n = 32
    objects = [f"x{i}" for i in range(8)]
    cluster = msc_cluster(n, objects, seed=3)
    result = cluster.run(random_workloads(n, objects, 4, seed=4))
    mops = len(result.history.mops)
    assert mops == 4 * n
    assert cluster.sim.events_fired <= 3 * mops + n


def test_landing_reaches_the_replica_in_two_frames(monkeypatch):
    # Structural, no wall clock: the cost of landing a run is the
    # Python frames between the landing loop and the replica's store,
    # and the store calls made per run: SequencerAbcast._land_from
    # hands the run to BaseProcess.land_run, which hands each stretch
    # of someone else's updates to the store in one apply_run call
    # (apply is tapped too, so a per-update apply from land_run
    # would count as a call).
    import sys

    from repro.abcast.interface import AtomicBroadcast
    from repro.abcast.sequencer import SequencerAbcast
    from repro.protocols.store import VersionedStore

    paths, lengths, stretches = set(), [], []
    landing = SequencerAbcast._land_from.__code__

    def tap(name, size):
        method = getattr(VersionedStore, name)

        def tapped(store, *args):
            frame, below = sys._getframe(0), []
            while frame.f_code is not landing:
                below.append(frame.f_code.co_name)
                frame = frame.f_back
            if below[1] == "land_run":  # (not apply_run's own applies)
                paths.add(tuple(reversed(below)))
                lengths.append(size(*args))
            return method(store, *args)

        monkeypatch.setattr(VersionedStore, name, tapped)

    tap("apply_run", lambda programs, uids: len(uids))
    tap("apply", lambda program, uid: 1)
    log_run = AtomicBroadcast._log_run

    def tapped_log_run(abcast, pid, records):
        # The run's maximal stretches of other senders' entries.
        others = [sender != pid for sender, _id in records]
        stretches.append(
            sum(other and not (k and others[k - 1])
                for k, other in enumerate(others))
        )
        return log_run(abcast, pid, records)

    monkeypatch.setattr(AtomicBroadcast, "_log_run", tapped_log_run)
    cluster = msc_cluster(4, ["x", "y"], seed=5)
    result = cluster.run(random_workloads(4, ["x", "y"], 10, seed=6))
    updates = sum(rec.is_update for rec in result.recorder.records)
    assert paths and all(len(path) <= 2 for path in paths), paths
    # One call per stretch, not one per update: every update reaches
    # the n - 1 replicas that did not issue it, in fewer calls.
    assert len(lengths) == sum(stretches)
    assert sum(lengths) == updates * 3
    assert len(lengths) < sum(lengths)


def test_clean_msc_run_allocates_no_view_per_replica_per_update(
    monkeypatch,
):
    # Structural, no wall clock: every replica applies every update on
    # its one applying view, so a clean run makes one view per replica
    # and one observing view per m-operation (its issuer's execute),
    # not one per replica per update (~n x updates).
    from repro.protocols import store

    made = []
    view_init = store.ObjectView.__init__

    def counted_init(self, *args, **kwargs):
        made.append(None)
        view_init(self, *args, **kwargs)

    monkeypatch.setattr(store.ObjectView, "__init__", counted_init)
    n = 16
    objects = [f"x{i}" for i in range(8)]
    cluster = msc_cluster(n, objects, seed=3)
    result = cluster.run(random_workloads(n, objects, 6, seed=4))
    mops = len(result.history.mops)
    updates = sum(m.is_update for m in result.history.mops)
    assert updates * n > 2 * (mops + n)
    assert len(made) <= mops + n


@pytest.mark.parametrize(
    "protocol, kind",
    [("msc", "abc-req"), ("server", "srv-exec"), ("local", "gossip"),
     ("aw", "aw-update")],
)
def test_clean_run_never_walks_a_program(monkeypatch, protocol, kind):
    # Structural, no wall clock: a program states its price when it is
    # built and every message carrying one states it, so the size walk
    # never visits a program (it visited each one once per message
    # before).
    from repro.protocols.store import MProgram
    from repro.runtime.registry import get_protocol
    from repro.sim import network

    visits = []
    walk = network._estimate_size

    def counting_walk(value, depth, seen):
        if type(value) is MProgram:
            visits.append(value)
        return walk(value, depth, seen)

    monkeypatch.setattr(network, "_estimate_size", counting_walk)
    n = 8
    objects = [f"x{i}" for i in range(8)]
    workloads = random_workloads(n, objects, 10, seed=4)
    cluster = get_protocol(protocol).factory(n, objects, seed=3)
    cluster.prepare(workloads)  # (no history: local's may be ill-formed)
    cluster.sim.run()
    assert cluster.network.stats.by_kind[kind] > 0
    assert visits == []


def test_clean_mlin_gather_fires_one_reply_event(monkeypatch):
    # Structural, no wall clock: a clean run holds a Fig-6 gather's
    # replies and queues only the one that arrives last, so a query
    # fires one query-resp delivery, not n - 1 (5 here).  Every event
    # of a clean run is posted, and a post makes no EventHandle.
    from repro.protocols import mlin_cluster
    from repro.protocols.mlin import QUERY_RESP
    from repro.sim import kernel, network

    handles = []
    handle_init = kernel.EventHandle.__init__

    def counted_init(self, *args):
        handles.append(None)
        handle_init(self, *args)

    fired = []
    deliver = network.Network._deliver

    def counted_deliver(self, src, dst, message, *rest):
        fired.append(message.kind)
        return deliver(self, src, dst, message, *rest)

    monkeypatch.setattr(kernel.EventHandle, "__init__", counted_init)
    monkeypatch.setattr(network.Network, "_deliver", counted_deliver)
    n = 6
    objects = [f"x{i}" for i in range(8)]
    cluster = mlin_cluster(n, objects, seed=4)
    result = cluster.run(random_workloads(n, objects, 10, seed=5))
    queries = sum(not rec.is_update for rec in result.recorder.records)
    assert queries > n
    assert result.net_stats.by_kind[QUERY_RESP] == queries * (n - 1)
    assert fired.count(QUERY_RESP) == queries
    assert cluster.sim.post(1.0, fired.append, "posted") is None
    assert handles == []


def test_no_relay_every_replica_landed_is_retained():
    # Memory follows the slowest replica, not the run: at every step
    # the core holds exactly the relays some replica has yet to land,
    # one row each, and nothing once the run is over.
    n = 6
    objects = ["x", "y", "z"]
    cluster = msc_cluster(n, objects, seed=7)
    cluster.prepare(random_workloads(n, objects, 12, seed=8))
    abcast = cluster.abcast
    relays = abcast._relays
    columns = (relays.times, relays.frames, relays.bodies, relays.notes)

    def held():
        rows = {len(column) for column in columns}
        assert len(rows) == 1
        return list(range(relays.base, relays.base + rows.pop()))

    sizes = []
    while cluster.sim.step():
        slowest = min(abcast.cursor(pid) for pid in range(n))
        assert held() == list(range(slowest, abcast._next_seq))
        sizes.append(len(held()))
    cluster.finalize()
    assert max(sizes) > 0 and held() == []


def test_relay_bodies_are_read_once_per_position_not_per_replica(
    monkeypatch,
):
    # Counted, no wall clock: a landed run is handed on as a slice of
    # the held rows and read by position, so the reads of relay bodies
    # per landed position do not grow with n.  At a3bdb77 every
    # replica read each body's sender and payload in land_run and its
    # sender and id in _log_run: about 4 more reads per replica.
    from repro.abcast.sequencer import SequencerAbcast

    stamp = SequencerAbcast._stamp
    reads = []

    class Counted(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)

    monkeypatch.setattr(
        SequencerAbcast, "_stamp",
        staticmethod(lambda *args: Counted(stamp(*args))),
    )
    per_position = {}
    for n in (8, 32):
        reads.clear()
        objects = [f"x{i}" for i in range(8)]
        result = msc_cluster(n, objects, seed=7).run(
            random_workloads(n, objects, 6, seed=8)
        )
        assert len(result.ww_sequence) > n
        per_position[n] = len(reads) / len(result.ww_sequence)
    assert per_position[32] <= per_position[8] + 1, per_position


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



def test_uncertified_constrained_checks_close_only_for_oo(monkeypatch):
    # Structural, no wall clock: without a certificate the forward
    # scan finds its own update chain.  A recorded msc history checked
    # with its ~ww pairs is WW along that chain and never closes ~H;
    # an OO-only history (object-partitioned, no two processes'
    # updates ordered) closes it once, for the OO mask test.
    from repro.analysis.static import certify_run
    from repro.core import Relation
    from repro.runtime import RunSpec, VerifyPolicy, execute
    from repro.workloads import random_partitioned_history

    spec = RunSpec(
        protocol="msc", workload="zipfian", n=4,
        objects=tuple(f"x{i}" for i in range(8)), ops=30, seed=1,
        verify=VerifyPolicy(enabled=False),
    )
    run = execute(spec).result
    ww = run.ww_pairs()
    certified = check_m_sequential_consistency(
        run.history, extra_pairs=ww, certificate=certify_run(run)
    )
    partitioned = random_partitioned_history(
        HistoryShape(n_processes=3, n_objects=2, n_mops=60), seed=3
    )
    closures = []
    closure = Relation.transitive_closure

    def tapped_closure(relation):
        closures.append(len(relation.nodes))
        return closure(relation)

    with monkeypatch.context() as patch:
        patch.setattr(Relation, "transitive_closure", tapped_closure)
        recorded = check_m_sequential_consistency(
            run.history, extra_pairs=ww
        )
        assert closures == []
        oo_only = check_m_sequential_consistency(partitioned)
    assert certified.certificate == "total-update-order"
    assert (recorded.holds, recorded.method_used) == (True, "constrained")
    assert recorded.certificate is None
    assert recorded.witness == certified.witness
    assert (oo_only.holds, oo_only.method_used) == (True, "constrained")
    assert closures == [len(partitioned.uids)]
