"""Unit tests for both atomic-broadcast implementations.

Validity, integrity and total order are asserted over adversarial
network conditions (non-FIFO, heavy reordering) for the fixed
sequencer and the decentralised Lamport algorithm alike.
"""

import pytest

from repro.abcast import LamportAbcast, SequencerAbcast
from repro.errors import ProtocolError
from repro.sim import (
    ExponentialLatency,
    FixedLatency,
    Network,
    Simulator,
    UniformLatency,
)

IMPLS = [
    pytest.param(SequencerAbcast, id="sequencer"),
    pytest.param(LamportAbcast, id="lamport"),
]


def build(impl, n=3, latency=None, seed=0):
    sim = Simulator()
    net = Network(sim, n, latency=latency or UniformLatency(0.2, 2.0), seed=seed)
    abc = impl(net)
    delivered = {pid: [] for pid in range(n)}
    # No endpoint handler: the layer claimed its kinds on the network,
    # and a stray message of any other kind would raise there.
    for pid in range(n):
        abc.attach(
            pid, lambda sender, payload, pid=pid: delivered[pid].append(
                (sender, payload)
            )
        )
    return sim, net, abc, delivered


@pytest.mark.parametrize("impl", IMPLS)
class TestProperties:
    def test_single_broadcast_reaches_all(self, impl):
        sim, _net, abc, delivered = build(impl)
        abc.broadcast(0, "hello")
        sim.run()
        for pid in range(3):
            assert delivered[pid] == [(0, "hello")]

    def test_total_order_under_reordering(self, impl):
        sim, _net, abc, delivered = build(
            impl, n=4, latency=ExponentialLatency(1.0), seed=7
        )
        # Everyone broadcasts several messages, interleaved in time.
        for round_no in range(5):
            for pid in range(4):
                sim.schedule(
                    round_no * 0.3 + pid * 0.05,
                    lambda pid=pid, r=round_no: abc.broadcast(
                        pid, f"m{pid}.{r}"
                    ),
                )
        sim.run()
        logs = [delivered[pid] for pid in range(4)]
        assert all(len(log) == 20 for log in logs)
        assert all(log == logs[0] for log in logs)
        assert abc.check_total_order() is None

    def test_validity_every_broadcast_delivered(self, impl):
        sim, _net, abc, delivered = build(impl, seed=3)
        payloads = [f"p{i}" for i in range(10)]
        for i, payload in enumerate(payloads):
            sim.schedule(i * 0.1, lambda p=payload: abc.broadcast(0, p))
        sim.run()
        for pid in range(3):
            received = [p for _s, p in delivered[pid]]
            assert len(received) == 10
            assert set(received) == set(payloads)

    def test_integrity_no_duplicates(self, impl):
        sim, _net, abc, delivered = build(impl, seed=11)
        for i in range(8):
            sim.schedule(i * 0.2, lambda i=i: abc.broadcast(i % 3, i))
        sim.run()
        for pid in range(3):
            payloads = [p for _s, p in delivered[pid]]
            assert len(payloads) == len(set(payloads)) == 8
        assert abc.check_total_order() is None

    def test_sender_attribution(self, impl):
        sim, _net, abc, delivered = build(impl)
        abc.broadcast(2, "from-two")
        sim.run()
        assert delivered[0] == [(2, "from-two")]

    def test_double_attach_rejected(self, impl):
        sim = Simulator()
        net = Network(sim, 2)
        abc = impl(net)
        abc.attach(0, lambda s, p: None)
        with pytest.raises(ProtocolError):
            abc.attach(0, lambda s, p: None)

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds_total_order(self, impl, seed):
        sim, _net, abc, delivered = build(
            impl, n=3, latency=UniformLatency(0.05, 3.0), seed=seed
        )
        for i in range(12):
            sim.schedule(i * 0.15, lambda i=i: abc.broadcast(i % 3, i))
        sim.run()
        assert abc.check_total_order() is None
        assert all(len(delivered[pid]) == 12 for pid in range(3))


class TestSequencerSpecifics:
    def test_non_default_sequencer(self):
        sim = Simulator()
        net = Network(sim, 3, latency=FixedLatency(1.0))
        abc = SequencerAbcast(net, sequencer=2)
        delivered = {pid: [] for pid in range(3)}
        for pid in range(3):
            abc.attach(
                pid,
                lambda s, p, pid=pid: delivered[pid].append(p),
            )
        abc.broadcast(0, "x")
        sim.run()
        assert all(delivered[pid] == ["x"] for pid in range(3))

    def test_sequencer_out_of_range(self):
        net = Network(Simulator(), 2)
        with pytest.raises(ProtocolError):
            SequencerAbcast(net, sequencer=5)

    def test_message_cost_is_n_plus_one(self):
        sim = Simulator()
        net = Network(sim, 4, latency=FixedLatency(1.0))
        abc = SequencerAbcast(net)
        for pid in range(4):
            abc.attach(pid, lambda s, p: None)
        abc.broadcast(1, "x")
        sim.run()
        assert net.stats.sent == 1 + 4  # request + relay to all


class TestLamportSpecifics:
    def test_message_cost_is_quadratic(self):
        sim = Simulator()
        net = Network(sim, 3, latency=FixedLatency(1.0))
        abc = LamportAbcast(net)
        for pid in range(3):
            abc.attach(pid, lambda s, p: None)
        abc.broadcast(0, "x")
        sim.run()
        # n broadcast messages + n*n acknowledgments.
        assert net.stats.sent == 3 + 9

    def test_survives_extreme_reordering(self):
        sim = Simulator()
        net = Network(sim, 3, latency=ExponentialLatency(5.0), seed=13)
        abc = LamportAbcast(net)
        delivered = {pid: [] for pid in range(3)}
        for pid in range(3):
            abc.attach(pid, lambda s, p, pid=pid: delivered[pid].append(p))
        for i in range(10):
            sim.schedule(i * 0.01, lambda i=i: abc.broadcast(i % 3, i))
        sim.run()
        assert abc.check_total_order() is None
        assert all(len(delivered[pid]) == 10 for pid in range(3))
