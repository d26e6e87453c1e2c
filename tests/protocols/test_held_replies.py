"""Held Fig-6 gather replies simulate the same system as queued ones.

On a clean run an A4 reply is sampled, counted and seq-reserved at
send and held by the issuer's gather; only the reply that arrives
last is an event (``repro.protocols.mlin``).  Each case runs twice —
held, and with a tracer installed for the whole run, which keeps
every reply (and relay) a queued ``net.deliver`` event — and the two
runs must agree on the history hash, every ``net.*`` counter, the
``~ww`` sequence, every replica's store and the clock.
"""

import pytest

from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.protocols import mlin_cluster
from repro.runtime.execute import history_hash
from repro.sim import ExponentialLatency, FixedLatency, UniformLatency
from repro.workloads import random_workloads

OBJECTS = ["x", "y", "z", "w"]
OPS = 10


def build(n, seed, latency, **options):
    cluster = mlin_cluster(
        n, OBJECTS, seed=seed, latency=latency or UniformLatency(0.5, 1.5),
        **options,
    )
    cluster.prepare(random_workloads(n, OBJECTS, OPS, seed=seed + 1))
    return cluster


def observed(cluster):
    return (
        cluster.network.stats.snapshot()["counters"],
        cluster.ww_sequence,
        [proc.store.export() for proc in cluster.processes],
        [
            (rec.uid, rec.inv, rec.resp, rec.result)
            for rec in cluster.recorder.records
        ],
        cluster.sim.now,
    )


def traced(drive, cluster):
    tracer = Tracer(capacity=1_000_000)
    install_tracer(tracer)
    try:
        return drive(cluster)
    finally:
        uninstall_tracer()


def finish(cluster):
    cluster.sim.run()
    result = cluster.finalize()
    return history_hash(result.history), observed(cluster)


def held_and_queued(drive, n=5, seed=3, latency=None, **options):
    """``drive`` a held cluster and a traced one; both must agree.
    Returns the two runs' ``events_fired``."""
    held = build(n, seed, latency, **options)
    queued = build(n, seed, latency, **options)
    assert drive(held) == traced(drive, queued)
    return held.sim.events_fired, queued.sim.events_fired


CASES = {
    "uniform": (5, UniformLatency(0.5, 1.5), {}),
    "exponential": (5, ExponentialLatency(1.0, 0.05), {}),
    "relevant-only": (5, None, {"reply_relevant_only": True}),
    # No start jitter or think time and fixed delays: replies, queries
    # and relays reach a process at the same instants, so the arrival
    # order is decided by the kernel seq alone.
    "fixed-ties": (
        4, FixedLatency(1.0), {"start_jitter": 0.0, "think_fn": lambda r: 0.0}
    ),
    "zero-delay-ties": (
        4, FixedLatency(0.0), {"start_jitter": 0.0, "think_fn": lambda r: 0.0}
    ),
    "n2": (2, None, {}),
}


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("case", sorted(CASES))
def test_held_run_equals_queued_run(case, seed):
    n, latency, options = CASES[case]
    held_events, queued_events = held_and_queued(
        finish, n=n, seed=seed, latency=latency, **options
    )
    assert held_events < queued_events  # the held path really ran


def test_single_process_gathers_nothing():
    held_events, queued_events = held_and_queued(finish, n=1)
    assert held_events == queued_events


def test_tracer_installed_mid_run():
    # Replies sent once the tracer is on are queued, and the ones
    # still held are queued at their reserved keys first.
    def drive(cluster):
        cluster.sim.run(until=5.0)
        install_tracer(Tracer(capacity=1_000_000))
        try:
            cluster.sim.run(until=12.0)
        finally:
            uninstall_tracer()
        return finish(cluster)

    held_and_queued(drive)


def test_delay_spike_mid_run():
    # An impaired wire holds nothing: the switch queues what is held,
    # and holding resumes once the spike is over.
    def drive(cluster):
        cluster.sim.run(until=4.0)
        cluster.network.delay_factor = 3.0
        cluster.sim.run(until=9.0)
        cluster.network.delay_factor = 1.0
        return finish(cluster)

    held_events, queued_events = held_and_queued(drive)
    assert held_events < queued_events


@pytest.mark.parametrize("budget", [40, 95, 160])
def test_exhausted_event_budget(budget):
    # Stop both runs at the last key the held run fires within the
    # budget (every held-run event is a queued-run event too): the
    # replies that arrived by then count as delivered, as landed
    # relays do.
    held = build(5, 3, None)
    held.sim.run(max_events=budget)
    stop = held.sim.key
    held.network.land_held()

    def drive(cluster):
        while cluster.sim.key < stop:
            assert cluster.sim.step()
        assert cluster.sim.key == stop
        cluster.network.land_held()
        return observed(cluster)

    queued = build(5, 3, None)
    assert observed(held) == traced(drive, queued)
    assert any(proc._pending is not None for proc in held.processes)

