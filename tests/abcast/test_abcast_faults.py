"""Abcast robustness properties under adversarial transport.

The satellite property demanded by the robustness issue: both atomic
broadcast implementations deliver the **same total order at every
process** across 100 seeded runs whose transport reorders (wildly
varying latency, non-FIFO) and duplicates frames.  Neither
implementation may double-deliver a duplicated frame or diverge.

A second group covers the failover sequencer's handoff path
deterministically (no probabilistic faults): crash the sequencer
mid-stream, let the ring-order successor take over, and check that
every participant — including the restarted ex-sequencer — converges
on one gap-free order containing every broadcast.
"""

import random

import pytest

from repro.abcast.failover import FailoverSequencer
from repro.abcast.lamport import LamportAbcast
from repro.abcast.sequencer import SequencerAbcast
from repro.sim.kernel import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from tests.abcast.deliveries import spy

N = 3
BROADCASTS = 8


def _wire(abcast, n):
    spy(abcast)
    for pid in range(n):
        abcast.attach(pid, lambda sender, payload: None)


@pytest.mark.parametrize("impl", [SequencerAbcast, LamportAbcast])
@pytest.mark.parametrize("seed", range(50))
def test_total_order_under_reorder_and_duplication(impl, seed):
    """100 seeded runs (50 per implementation): same order everywhere."""
    sim = Simulator()
    # Wide latency spread => heavy reordering; 15% duplicated frames.
    network = Network(
        sim,
        N,
        latency=UniformLatency(0.2, 3.0),
        seed=seed,
        dup_prob=0.15,
    )
    abcast = impl(network)
    _wire(abcast, N)
    rng = random.Random(seed * 7919 + 17)
    for i in range(BROADCASTS):
        sender = rng.randrange(N)
        sim.schedule(
            rng.uniform(0.0, 5.0),
            lambda s=sender, i=i: abcast.broadcast(s, {"op": i}),
        )
    sim.run()
    assert abcast.check_total_order() is None
    logs = [abcast.spied[pid] for pid in range(N)]
    assert logs[0] == logs[1] == logs[2]
    assert len(logs[0]) == BROADCASTS
    assert network.stats.duplicated > 0  # the fault knob actually fired


def test_sequencer_failover_handoff():
    """Crash the sequencer mid-stream; the successor finishes the job."""
    sim = Simulator()
    network = Network(sim, 4, latency=UniformLatency(0.5, 1.5), seed=3)
    abcast = FailoverSequencer(network, failover_delay=2.0)
    _wire(abcast, 4)

    for i in range(4):
        sim.schedule(0.1 * i, lambda s=i, i=i: abcast.broadcast(s % 4, {"op": i}))

    def crash_sequencer():
        network.crash(0)
        abcast.on_crash(0)

    def restart_sequencer():
        network.restore(0)
        abcast.recover(0, cursor=0)

    sim.schedule(1.0, crash_sequencer)
    sim.schedule(8.0, restart_sequencer)
    # More broadcasts after the failover, from every survivor.
    for i in range(4, 8):
        sim.schedule(10.0 + 0.1 * i, lambda s=i, i=i: abcast.broadcast(s % 4, {"op": i}))
    sim.run()

    assert abcast.sequencer == 1  # ring-order successor of pid 0
    assert abcast.epoch == 1
    assert len(abcast.failovers) == 1
    assert abcast.check_total_order() is None
    # Every broadcast survived the handoff: the longest log carries
    # all 8 ids exactly once, and the restarted pid 0 caught up fully.
    ids = [msg_id for _s, msg_id in abcast.spied[1]]
    assert len(ids) == 8 and len(set(ids)) == 8
    assert abcast.spied[0] == abcast.spied[1]


def test_failover_without_fault_tolerance_stays_down():
    """The ordering core: a crash makes broadcast (and a request to
    recover) raise, no election."""
    from repro.errors import SequencerUnavailable

    sim = Simulator()
    network = Network(sim, 3, latency=UniformLatency(0.5, 1.5), seed=0)
    abcast = SequencerAbcast(network)
    _wire(abcast, 3)
    network.crash(0)
    abcast.on_crash(0)
    sim.run()
    assert abcast.sequencer == 0 and abcast.epoch == 0
    with pytest.raises(SequencerUnavailable):
        abcast.broadcast(1, {"op": 0})
    network.restore(0)
    with pytest.raises(SequencerUnavailable):
        abcast.recover(0, cursor=0)
