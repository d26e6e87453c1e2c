"""Unit tests for the deterministic heartbeat failure detector.

Pins the ◇P-style contract: silence past the per-pair timeout raises
a suspect event, a late heartbeat raises trust and *widens* the pair's
threshold (so false suspicions die out), crashes pause the observer's
view with a fresh grace window on restart, and the whole suspect/trust
history is a deterministic function of the seed — no RNG is consumed.
"""

import pytest

from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.protocols.base import Cluster
from repro.runtime import execute
from repro.sim import (
    HEARTBEAT_KIND,
    ControlledNetwork,
    HeartbeatDetector,
    Message,
    Network,
    Simulator,
)
from repro.sim.latency import FixedLatency, UniformLatency
from tests.conftest import chaos_spec


def make_detector(n=3, *, latency=None, stop_at=40.0, seed=0, **kwargs):
    sim = Simulator()
    net = Network(sim, n, latency=latency, seed=seed)
    detector = HeartbeatDetector(
        net, should_stop=lambda: sim.now >= stop_at, **kwargs
    )
    # No endpoint handlers: the detector claims its heartbeats on the
    # network, and any other kind arriving would raise there.
    return sim, net, detector


class TestDetector:
    def test_quiet_cluster_never_suspects(self):
        sim, _net, detector = make_detector()
        detector.start()
        sim.run()
        assert detector.events == []
        assert detector.suspicions == 0
        assert all(detector.alive_count(pid) == 3 for pid in range(3))

    def test_silenced_peer_is_suspected_then_trusted_on_heal(self):
        sim, net, detector = make_detector(stop_at=40.0)
        detector.start()
        # Isolate pid 2 at t=5: both remaining observers must suspect
        # it (a *true* suspicion: the link is cut), then trust it
        # again after the heal at t=20.
        sim.schedule(5.0, lambda: net.partition([(0, 1), (2,)]))
        sim.schedule(20.0, net.heal_all)
        sim.run()
        suspects = [e for e in detector.events if e.kind == "suspect"]
        trusts = [e for e in detector.events if e.kind == "trust"]
        assert {(e.observer, e.target) for e in suspects} >= {
            (0, 2), (1, 2), (2, 0), (2, 1)
        }
        assert all(not e.false for e in suspects)
        assert {(e.observer, e.target) for e in trusts} >= {(0, 2), (1, 2)}
        # Steady state after the heal: nobody suspects anybody.
        assert all(detector.suspects(pid) == set() for pid in range(3))

    def test_latency_induced_false_suspicions_adapt_away(self):
        """Heartbeats slower than the initial threshold: the detector
        is wrong, says so in the accounting, and widens the pair's
        timeout until the mistakes stop (◇P accuracy)."""
        sim, _net, detector = make_detector(
            latency=FixedLatency(5.0),
            stop_at=80.0,
            period=1.0,
            timeout=3.5,
            adapt=1.0,
        )
        detector.start()
        sim.run()
        assert detector.false_suspicions > 0
        assert detector.false_suspicions == detector.suspicions
        assert detector.trusts >= detector.false_suspicions
        assert 0 < detector.summary()["false_suspect_rate"] <= 1.0
        # Adaptation converged: every pair ends the run trusted.
        assert all(detector.suspects(pid) == set() for pid in range(3))

    def test_crashed_observer_restarts_with_grace_window(self):
        sim, net, detector = make_detector(stop_at=40.0)
        detector.start()
        sim.schedule(5.0, lambda: net.crash(0))
        sim.schedule(15.0, lambda: net.restore(0))
        sim.run()
        # Peers suspected the crashed pid; after the restart the
        # revenant re-primes its view instead of mass-suspecting the
        # peers for the silence it slept through.
        assert {
            (e.observer, e.target)
            for e in detector.events
            if e.kind == "suspect"
        } >= {(1, 0), (2, 0)}
        assert detector.suspects(0) == set()
        assert all(detector.suspects(pid) == set() for pid in range(3))

    def test_history_is_deterministic(self):
        def run(seed):
            sim, net, detector = make_detector(
                latency=UniformLatency(0.5, 2.5), seed=seed, stop_at=30.0
            )
            detector.start()
            sim.schedule(4.0, lambda: net.partition([(0,), (1, 2)]))
            sim.schedule(18.0, net.heal_all)
            sim.run()
            return detector.events

        assert run(7) == run(7)

    def test_metrics_counters_mirror_events(self):
        sim, net, detector = make_detector(stop_at=30.0)
        detector.start()
        sim.schedule(5.0, lambda: net.partition([(0, 1), (2,)]))
        sim.schedule(18.0, net.heal_all)
        sim.run()
        snapshot = net.stats.registry.snapshot()["counters"]
        assert snapshot.get("detector.suspect") == detector.suspicions
        assert snapshot.get("detector.trust") == detector.trusts

    def test_on_change_hook_sees_every_transition(self):
        seen = []
        sim, net, detector = make_detector(stop_at=30.0)
        detector.on_change = lambda kind, obs, tgt, now: seen.append(
            (kind, obs, tgt)
        )
        detector.start()
        sim.schedule(5.0, lambda: net.partition([(0, 1), (2,)]))
        sim.schedule(18.0, net.heal_all)
        sim.run()
        assert seen == [
            (e.kind, e.observer, e.target) for e in detector.events
        ]

    def test_should_stop_lets_the_simulation_terminate(self):
        sim, _net, detector = make_detector(stop_at=10.0)
        detector.start()
        end = sim.run()
        # Without the stop predicate the beat loop would reschedule
        # forever; with it the queue drains shortly after the cutoff.
        assert 10.0 <= end < 15.0

    def test_constructor_validation(self):
        sim = Simulator()
        net = Network(sim, 3)
        with pytest.raises(SimulationError, match="period"):
            HeartbeatDetector(net, period=0.0)
        with pytest.raises(SimulationError, match="timeout"):
            HeartbeatDetector(net, period=2.0, timeout=1.0)
        with pytest.raises(SimulationError, match="adapt"):
            HeartbeatDetector(net, adapt=-0.5)

    def test_heartbeats_are_unreliable(self):
        """Heartbeat frames must not be retransmitted by the shim —
        a retransmitted heartbeat would defeat its own purpose."""
        sim, net, detector = make_detector()
        # Even on a reliable network the detector opts out per-send.
        net.reliable = True
        detector.start()
        sim.run()
        assert net.stats.retransmitted == 0
        assert net.stats.acked == 0


class TestDetectorOnAControlledNetwork:
    def test_detector_ticks_where_deliveries_are_chosen(self):
        """Heartbeats go out through ``send_to_all(reliable=False)``,
        which an exploring network collects like any other frame (its
        own ``send`` used to lack the keyword)."""
        sim = Simulator()
        net = ControlledNetwork(sim, 3)
        detector = HeartbeatDetector(
            net, should_stop=lambda: sim.now >= 2.0
        )
        detector.start()
        sim.run()
        beats = [(src, dst) for src, dst, msg in net.pool]
        assert {msg.kind for _s, _d, msg in net.pool} == {HEARTBEAT_KIND}
        # Two full rounds: every pid beat every peer, never itself.
        assert sorted(beats) == sorted(
            [(s, d) for s in range(3) for d in range(3) if s != d] * 2
        )
        assert net.stats.by_kind == {HEARTBEAT_KIND: 12}
        while net.pool:
            net.deliver(0)
        sim.run()
        assert net.stats.delivered == 12
        assert detector.events == []


#: ``net_stats["counters"]`` of ``execute(chaos_spec("msc", 1, ops=8,
#: partition=True))``, recorded at 395fb53.
PARENT_PARTITION_COUNTERS = {
    "detector.suspect": 6, "detector.trust": 6,
    "net.acked": 222, "net.deduped": 26, "net.delivered": 691,
    "net.dropped": 44, "net.duplicated": 39, "net.flushed": 20,
    "net.lost_to_crash": 0, "net.lost_to_partition": 99,
    "net.retransmitted": 41, "net.sent": 750,
    "net.sent_by_kind{kind=abc-ack}": 74,
    "net.sent_by_kind{kind=abc-new-seq}": 4,
    "net.sent_by_kind{kind=abc-req}": 20,
    "net.sent_by_kind{kind=abc-seq}": 80,
    "net.sent_by_kind{kind=abc-stable}": 44,
    "net.sent_by_kind{kind=hb}": 528,
    "net.size_by_kind{kind=abc-ack}": 2812,
    "net.size_by_kind{kind=abc-new-seq}": 184,
    "net.size_by_kind{kind=abc-req}": 2031,
    "net.size_by_kind{kind=abc-seq}": 11164,
    "net.size_by_kind{kind=abc-stable}": 1276,
    "net.size_by_kind{kind=hb}": 4224,
    "net.total_size": 21691,
}


def test_counters_cost_no_registry_lookup_per_frame(monkeypatch):
    """Structural guard, no wall clock: while a partition run is
    simulated the only registry lookups are the detector's own (at
    most two per suspect/trust event; 624 lookups at dfa094b, where
    every cold counter write flushed the hot ones), and what the
    registry renders afterwards is unchanged."""
    lookups = []
    during_run = []
    counter = MetricsRegistry.counter
    run = Cluster.run

    def counting_counter(registry, name, **labels):
        lookups.append(name)
        return counter(registry, name, **labels)

    def tapped_run(cluster, *args, **kwargs):
        before = len(lookups)
        try:
            return run(cluster, *args, **kwargs)
        finally:
            during_run.extend(lookups[before:])

    monkeypatch.setattr(MetricsRegistry, "counter", counting_counter)
    monkeypatch.setattr(Cluster, "run", tapped_run)
    artifact = execute(chaos_spec("msc", 1, ops=8, partition=True))
    assert artifact.ok, artifact.summary()
    detector = artifact.chaos.detector
    transitions = detector["suspicions"] + detector["trusts"]
    assert transitions == 12
    assert len(during_run) <= 2 * transitions
    assert all(name.startswith("detector.") for name in during_run)
    assert artifact.net_stats["counters"] == PARENT_PARTITION_COUNTERS
