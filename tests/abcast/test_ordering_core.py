"""Property test of the ordering core alone (``SequencerAbcast``).

The core's whole contract, on a bare :class:`Network` with no protocol
above it: over 100 seeded runs whose transport reorders heavily and
duplicates 15% of its frames, every broadcast is delivered (validity)
exactly once (integrity) in one order everywhere (total order); at any
instant every participant's log is a gap-free prefix ``0..k`` of the
sequence numbers the sequencer stamped; and once the network is quiet
no buffer holds anything and no delivered entry is still alive — the
core retains nothing per delivery.
"""

import gc
import random
import weakref

import pytest

from repro.abcast.sequencer import SEQ, SequencerAbcast
from repro.sim.kernel import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from tests.abcast.deliveries import spy

N = 4
BROADCASTS = 12


class Op:
    """A broadcast payload whose death the test can observe."""

    __slots__ = ("index", "__weakref__")

    def __init__(self, index):
        self.index = index


class TappedCore(SequencerAbcast):
    """The core, plus a record of the number each message id was
    stamped with (read off the relays as they arrive)."""

    def __init__(self, network):
        self.seq_of = {}
        super().__init__(network)

    def handle(self, pid, src, message):
        if message.kind == SEQ:
            entry = message.payload
            assert self.seq_of.setdefault(entry["id"], entry["seq"]) == entry["seq"]
        super().handle(pid, src, message)


def assert_broadcast_properties(abcast, broadcasts):
    """Validity, integrity and total order over the delivery logs."""
    assert abcast.check_total_order() is None
    logs = [abcast.spied[pid] for pid in range(abcast.n)]
    assert all(log == logs[0] for log in logs)
    ids = [msg_id for _sender, msg_id in logs[0]]
    assert sorted(ids) == list(range(broadcasts))


def assert_gap_free_prefixes(abcast):
    for pid in range(abcast.n):
        seqs = [abcast.seq_of[msg_id] for _s, msg_id in abcast.spied[pid]]
        assert seqs == list(range(abcast.cursor(pid)))


@pytest.mark.parametrize("seed", range(100))
def test_core_orders_and_retains_nothing(seed):
    sim = Simulator()
    network = Network(
        sim, N, latency=UniformLatency(0.2, 3.0), seed=seed, dup_prob=0.15
    )
    abcast = TappedCore(network)
    spy(abcast)
    delivered = {pid: [] for pid in range(N)}
    for pid in range(N):
        abcast.attach(
            pid,
            lambda sender, op, pid=pid: delivered[pid].append(op.index),
        )
    alive = []

    def broadcast(sender, index):
        op = Op(index)
        alive.append(weakref.ref(op))
        abcast.broadcast(sender, op)

    rng = random.Random(seed * 7919 + 17)
    for index in range(BROADCASTS):
        sim.schedule(rng.uniform(0.0, 5.0), broadcast, rng.randrange(N), index)
    for at in (1.0, 2.5, 4.0, 6.0):
        sim.schedule(at, assert_gap_free_prefixes, abcast)
    sim.run()

    assert network.stats.duplicated > 0  # the fault knob actually fired
    assert_broadcast_properties(abcast, BROADCASTS)
    assert_gap_free_prefixes(abcast)
    assert all(
        sorted(delivered[pid]) == list(range(BROADCASTS)) for pid in range(N)
    )
    # Quiescence: nothing waits, nothing delivered is kept.
    assert not any(abcast._buffer.values())
    assert not hasattr(abcast, "_plog")
    gc.collect()
    assert not any(ref() is not None for ref in alive)
