"""Lazy relay landing simulates the same system as queued delivery.

A clean run's fixed sequencer fans every relay out unqueued and each
replica lands what has reached it whenever it next acts; the queued
path fires one kernel event per replica per relay.  Each case runs
twice — lazily, and on :class:`QueuedNetwork`, whose overridden
``_transmit`` keeps every frame on the queued path — and the two runs
must agree on the artifact bytes, every replica's deliveries (as the
test records them) and store, the ``~ww`` sequence, the ``net.*``
counters and the clock.
"""

import itertools

import pytest

from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.protocols import aggregate_cluster, base, mlin_cluster, msc_cluster
from repro.protocols.base import Cluster
from repro.runtime import LatencySpec, RunSpec, execute
from repro.sim import FixedLatency, Network, UniformLatency
from repro.workloads import random_workloads

LATENCIES = [
    LatencySpec(),
    LatencySpec("fixed", (1.0,)),
    LatencySpec("fixed", (0.0,)),
    LatencySpec("exponential", (1.0, 0.1)),
    LatencySpec("asymmetric", (0.5, 1.0, 1, 2.0)),
]


@pytest.fixture(autouse=True)
def recorded_deliveries(monkeypatch):
    """Record each process's deliveries as ``(sender, id)``, in the
    runs the abcast hands it."""
    land_run = base.BaseProcess.land_run

    def recorded(proc, run, start):
        proc.__dict__.setdefault("delivered", []).extend(
            (entry["sender"], entry["id"]) for entry in run
        )
        land_run(proc, run, start)

    monkeypatch.setattr(base.BaseProcess, "land_run", recorded)


class QueuedNetwork(Network):
    """A network that picks its own deliveries — here, the base's — so
    every relay is queued."""

    def _transmit(self, *args, **kwargs):
        return Network._transmit(self, *args, **kwargs)


def observed(cluster):
    return (
        [proc.__dict__.get("delivered") for proc in cluster.processes],
        cluster.ww_sequence,
        [proc.store.export() for proc in cluster.processes],
        cluster.network.stats.snapshot(),
        cluster.sim.now,
    )


def execute_twice(spec, monkeypatch):
    """``(artifact bytes, observed, events)`` lazily, then queued."""
    runs = []
    for network in (Network, QueuedNetwork):
        clusters = []
        run = Cluster.run

        def captured(self, *args, **kwargs):
            clusters.append(self)
            return run(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Cluster, "run", captured)
            patch.setattr(base, "Network", network)
            artifact = execute(spec)
        (cluster,) = clusters
        runs.append(
            (artifact.to_json(), observed(cluster), cluster.sim.events_fired)
        )
    return runs


@pytest.mark.parametrize(
    "protocol, latency, seed",
    [
        pytest.param(protocol, latency, seed, id=f"{protocol}-{i}-{seed}")
        for (protocol, (i, latency), seed) in itertools.product(
            ("msc", "mlin", "aggregate"), enumerate(LATENCIES), range(3)
        )
    ],
)
def test_lazy_run_equals_queued_run(protocol, latency, seed, monkeypatch):
    spec = RunSpec(
        protocol=protocol, n=5, ops=12, seed=seed, latency=latency,
        settle=1.5 if seed == 2 else 0.0,
    )
    (lazy_json, lazy, lazy_events), (queued_json, queued, queued_events) = (
        execute_twice(spec, monkeypatch)
    )
    assert lazy_json == queued_json
    assert lazy == queued
    assert lazy_events < queued_events  # the lazy path really ran


def driven_twice(drive, seed=3, factory=msc_cluster, latency=None, **options):
    """Run ``drive(cluster)`` on a lazy and on a queued cluster."""
    runs = []
    for network in (Network, QueuedNetwork):
        cluster = factory(
            5, ["x", "y", "z"], seed=seed,
            network_factory=lambda sim, n, network=network: network(
                sim, n, latency=latency or UniformLatency(0.5, 1.5),
                seed=seed + 1,
            ),
            **options,
        )
        cluster.prepare(random_workloads(5, ["x", "y", "z"], 12, seed=seed))
        result = drive(cluster)
        runs.append(
            (result.history.mops, result.duration, observed(cluster),
             cluster.sim.events_fired)
        )
    (*lazy, lazy_events), (*queued, queued_events) = runs
    assert lazy == queued
    return lazy_events, queued_events


def drain(cluster):
    cluster.sim.run()
    return cluster.finalize()


@pytest.mark.parametrize("delay", [0.0, 1.0])
@pytest.mark.parametrize(
    "factory", [msc_cluster, mlin_cluster, aggregate_cluster],
    ids=["msc", "mlin", "aggregate"],
)
def test_simultaneous_actions_and_arrivals(factory, delay):
    # No start jitter, no think time, fixed delays: processes act at
    # the very instants relays arrive, so which arrivals a landing
    # point takes is decided by the kernel seq alone.
    lazy_events, queued_events = driven_twice(
        drain, factory=factory, latency=FixedLatency(delay),
        start_jitter=0.0, think_fn=lambda rng: 0.0,
    )
    assert lazy_events < queued_events


def test_prepare_run_finalize_driver():
    lazy_events, queued_events = driven_twice(drain)
    assert lazy_events < queued_events


def test_tracer_installed_mid_run():
    # Relays stamped once the tracer is on are queued, and the ones
    # still held are queued at their reserved keys first.
    def drive(cluster):
        cluster.sim.run(until=6.0)
        tracer = Tracer()
        install_tracer(tracer)
        try:
            cluster.sim.run()
        finally:
            uninstall_tracer()
        assert "net.deliver" in {r["name"] for r in tracer.records()}
        return cluster.finalize()

    driven_twice(drive)


def test_link_cut_mid_run():
    # msc sends nothing between P1 and P2, so the cut loses no frame;
    # it impairs the wire, which queues relays until the heal.
    def drive(cluster):
        cluster.sim.run(until=4.0)
        cluster.network.cut_link(1, 2)
        cluster.sim.run(until=9.0)
        cluster.network.heal_link(1, 2)
        cluster.sim.run()
        return cluster.finalize()

    driven_twice(drive)
