"""Unit tests for the simulated network and latency models."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import (
    AsymmetricLatency,
    ExponentialLatency,
    FixedLatency,
    Message,
    Network,
    Simulator,
    UniformLatency,
    estimate_size,
)


def make_net(n=2, **kwargs):
    sim = Simulator()
    net = Network(sim, n, **kwargs)
    inboxes = {pid: [] for pid in range(n)}
    for pid in range(n):
        net.register(
            pid, lambda src, msg, pid=pid: inboxes[pid].append((src, msg))
        )
    return sim, net, inboxes


class TestLatencyModels:
    def test_fixed(self):
        rng = random.Random(0)
        model = FixedLatency(2.5)
        assert model.sample(rng, 0, 1) == 2.5
        assert model.mean() == 2.5

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        model = UniformLatency(0.5, 1.5)
        for _ in range(100):
            d = model.sample(rng, 0, 1)
            assert 0.5 <= d <= 1.5
        assert model.mean() == 1.0

    def test_uniform_is_rng_uniform_bit_for_bit(self):
        # Pinned histories depend on it: same draws, same floats.
        model = UniformLatency(0.5, 1.5)
        ours, reference = random.Random(42), random.Random(42)
        assert [model.sample(ours, 0, 1) for _ in range(200)] == [
            reference.uniform(0.5, 1.5) for _ in range(200)
        ]

    def test_exponential_positive(self):
        rng = random.Random(0)
        model = ExponentialLatency(1.0, floor=0.05)
        for _ in range(100):
            assert model.sample(rng, 0, 1) >= 0.05

    def test_asymmetric_slow_node(self):
        rng = random.Random(0)
        model = AsymmetricLatency(
            base=1.0, jitter=0.0, slow_node=2, slow_extra=10.0
        )
        assert model.sample(rng, 0, 1) == 1.0
        assert model.sample(rng, 0, 2) == 11.0
        assert model.sample(rng, 2, 0) == 11.0


class TestDelivery:
    def test_basic_delivery(self):
        sim, net, inboxes = make_net(latency=FixedLatency(1.0))
        net.send(0, 1, Message("ping", 42))
        sim.run()
        assert inboxes[1] == [(0, Message("ping", 42))]
        assert sim.now == 1.0

    def test_self_send_is_asynchronous(self):
        sim, net, inboxes = make_net(latency=FixedLatency(1.0))
        net.send(0, 0, Message("loop"))
        assert inboxes[0] == []  # not synchronous
        sim.run()
        assert len(inboxes[0]) == 1

    def test_send_to_all(self):
        sim, net, inboxes = make_net(n=3, latency=FixedLatency(1.0))
        net.send_to_all(0, Message("bcast"))
        sim.run()
        assert all(len(inboxes[pid]) == 1 for pid in range(3))

    def test_send_to_all_exclude_self(self):
        sim, net, inboxes = make_net(n=3, latency=FixedLatency(1.0))
        net.send_to_all(0, Message("bcast"), include_self=False)
        sim.run()
        assert len(inboxes[0]) == 0
        assert len(inboxes[1]) == len(inboxes[2]) == 1

    def test_reordering_happens_without_fifo(self):
        # With uniform latency, some pair of messages on the same
        # channel arrives out of order.
        sim, net, inboxes = make_net(latency=UniformLatency(0.1, 2.0), seed=1)
        for i in range(50):
            net.send(0, 1, Message("seq", i))
        sim.run()
        received = [msg.payload for _src, msg in inboxes[1]]
        assert len(received) == 50
        assert received != sorted(received)

    def test_fifo_enforced(self):
        sim, net, inboxes = make_net(
            latency=UniformLatency(0.1, 2.0), fifo=True, seed=1
        )
        for i in range(50):
            net.send(0, 1, Message("seq", i))
        sim.run()
        received = [msg.payload for _src, msg in inboxes[1]]
        assert received == sorted(received)

    def test_unknown_pid_rejected(self):
        sim, net, _ = make_net()
        with pytest.raises(SimulationError):
            net.send(0, 7, Message("x"))
        with pytest.raises(SimulationError):
            net.send(-1, 0, Message("x"))

    def test_double_registration_rejected(self):
        sim = Simulator()
        net = Network(sim, 1)
        net.register(0, lambda s, m: None)
        with pytest.raises(SimulationError):
            net.register(0, lambda s, m: None)

    def test_bound_kind_goes_to_its_layer_not_the_endpoint(self):
        sim, net, inboxes = make_net(n=3)
        claimed = []
        net.bind("layer", lambda dst, src, msg: claimed.append((dst, src, msg)))
        ping, plain = Message("layer", 1), Message("other", 2)
        net.send_to_all(0, ping, include_self=False)
        net.send(0, 1, plain)
        sim.run()
        assert sorted(claimed) == [(1, 0, ping), (2, 0, ping)]
        assert inboxes == {0: [], 1: [(0, plain)], 2: []}
        assert net.stats.delivered == 3
        with pytest.raises(SimulationError, match="already bound"):
            net.bind("layer", lambda dst, src, msg: None)

    def test_needs_positive_endpoints(self):
        with pytest.raises(SimulationError):
            Network(Simulator(), 0)


class TestFaultInjection:
    def test_drops(self):
        sim, net, inboxes = make_net(drop_prob=1.0)
        net.send(0, 1, Message("x"))
        sim.run()
        assert inboxes[1] == []
        assert net.stats.dropped == 1

    def test_duplicates(self):
        sim, net, inboxes = make_net(dup_prob=1.0)
        net.send(0, 1, Message("x"))
        sim.run()
        assert len(inboxes[1]) == 2
        assert net.stats.duplicated == 1

    def test_reliable_by_default(self):
        sim, net, inboxes = make_net()
        for _ in range(20):
            net.send(0, 1, Message("x"))
        sim.run()
        assert len(inboxes[1]) == 20


class TestStats:
    def test_counts(self):
        sim, net, _ = make_net(n=3)
        net.send(0, 1, Message("a", {"k": 1}))
        net.send_to_all(0, Message("b"))
        sim.run()
        assert net.stats.sent == 4
        assert net.stats.delivered == 4
        assert net.stats.by_kind == {"a": 1, "b": 3}

    def test_size_estimates(self):
        assert estimate_size(None) == 0
        assert estimate_size(True) == 1
        assert estimate_size(3) == 8
        assert estimate_size("abcd") == 4
        assert estimate_size([1, 2]) == 18
        assert estimate_size({"a": 1}) == 11

    def test_size_by_kind_accumulates(self):
        sim, net, _ = make_net()
        net.send(0, 1, Message("a", "xxxx"))
        net.send(0, 1, Message("a", "yy"))
        sim.run()
        assert net.stats.size_by_kind["a"] == 6
