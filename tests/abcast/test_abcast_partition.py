"""Quorum-aware sequencer behaviour across network partitions.

Deterministic (single-schedule) unit tests of the partition-tolerance
machinery in :class:`FailoverSequencer` + :class:`HeartbeatDetector`:

* majority-side failover with epoch fencing when the sequencer lands
  in the minority;
* minority-side degradation — ``"defer"`` parks requests and replays
  them after the heal, ``"refuse"`` raises
  :class:`~repro.errors.PartitionedError` at the client;
* post-heal reconciliation: the fenced minority re-drives its queued
  operations through the new epoch and every log converges;
* the negative control: with quorum safeguards stripped
  (``quorum_aware=False``) the same schedule split-brains, and
  ``check_total_order()`` catches the divergence.
"""

import pytest

from repro.abcast.failover import FailoverSequencer
from repro.errors import PartitionedError
from repro.sim import HeartbeatDetector, Network, Simulator
from repro.sim.latency import UniformLatency
from tests.abcast.deliveries import spy

N = 4


def make_cluster(seed=0, *, quorum_aware=True, degraded="defer", stop_at=80.0):
    sim = Simulator()
    # The reliable shim matters: queued REQ/NEWSEQ/SEQ frames crossing
    # a healed link are the post-heal reconciliation channel.
    network = Network(
        sim, N, latency=UniformLatency(0.3, 0.9), seed=seed, reliable=True
    )
    abcast = FailoverSequencer(network, failover_delay=2.0)
    detector = HeartbeatDetector(
        network,
        period=1.0,
        timeout=3.5,
        should_stop=lambda: sim.now >= stop_at,
    )
    abcast.bind_detector(
        detector, quorum_aware=quorum_aware, degraded=degraded
    )
    spy(abcast)
    for pid in range(N):
        abcast.attach(pid, lambda sender, payload: None)
    detector.start()
    return sim, network, abcast, detector


def split(network, minority):
    majority = [pid for pid in range(N) if pid not in minority]
    network.partition([tuple(minority), tuple(majority)])


def test_majority_elects_past_a_minority_sequencer():
    """Sequencer isolated: the majority fences it out via a new epoch,
    keeps sequencing, and the heal reconciles the minority's queue."""
    sim, network, abcast, detector = make_cluster(seed=1)
    for i in range(4):
        sim.schedule(0.2 * i, lambda s=i % N, i=i: abcast.broadcast(s, i))
    sim.schedule(5.0, lambda: split(network, [0]))
    # Majority traffic during the split (sequenced by the successor)
    # and one minority request (parked: P0 defers without a quorum).
    for i in range(4, 7):
        sim.schedule(
            14.0 + 0.2 * i, lambda s=1 + i % 3, i=i: abcast.broadcast(s, i)
        )
    sim.schedule(15.0, lambda: abcast.broadcast(0, 7))
    sim.schedule(25.0, network.heal_all)
    sim.run()

    assert abcast.sequencer == 1 and abcast.epoch == 1
    assert len(abcast.failovers) == 1
    assert detector.suspicions > 0
    assert abcast.check_total_order() is None
    logs = [abcast.spied[pid] for pid in range(N)]
    assert logs[0] == logs[1] == logs[2] == logs[3]
    # Every broadcast from both sides of the split was delivered
    # exactly once — the minority's deferred request included.
    ids = [msg_id for _s, msg_id in logs[0]]
    assert len(ids) == 8 and len(set(ids)) == 8


def test_minority_defers_and_replays_after_heal():
    sim, network, abcast, _detector = make_cluster(seed=2)
    sim.schedule(2.0, lambda: split(network, [0]))
    # P0 is both sequencer and minority: its own request cannot reach
    # a quorum, so sequencing defers rather than risking split-brain.
    sim.schedule(14.0, lambda: abcast.broadcast(0, "minority-op"))
    sim.schedule(14.5, lambda: abcast.broadcast(1, "majority-op"))
    sim.schedule(24.0, network.heal_all)
    sim.run()

    reasons = [reason for _t, _pid, reason, _id in abcast.degraded]
    assert "sequence-deferred" in reasons
    assert abcast.check_total_order() is None
    logs = [abcast.spied[pid] for pid in range(N)]
    assert logs[0] == logs[1]
    assert len(logs[0]) == 2  # both ops landed, post-heal


def test_refuse_mode_raises_partitioned_error_at_the_client():
    sim, network, abcast, _detector = make_cluster(
        seed=3, degraded="refuse"
    )
    sim.schedule(2.0, lambda: split(network, [3]))
    # Broadcast well after P3's detector has condemned the other side.
    sim.schedule(14.0, lambda: abcast.broadcast(3, "doomed"))
    with pytest.raises(PartitionedError, match="minority side"):
        sim.run()
    assert any(
        reason == "refused" for _t, _pid, reason, _id in abcast.degraded
    )


def test_election_aborts_without_a_quorum():
    """A lone minority observer must not elect itself a sequencer."""
    sim, network, abcast, _detector = make_cluster(seed=4, stop_at=40.0)
    sim.schedule(2.0, lambda: split(network, [3]))
    sim.run(until=30.0)
    # P3 suspected everyone (including the sequencer) but its view
    # has no majority: the failover is aborted, not attempted.
    assert abcast.epoch == 0
    reasons = [reason for _t, _pid, reason, _id in abcast.degraded]
    assert "election-aborted" in reasons


def test_negative_control_without_quorum_splits_the_brain():
    """Strip the quorum safeguards and run the same isolation schedule
    with traffic on both sides: the epochs race and at least one
    divergence or double-delivery must be caught by the checker."""
    sim, network, abcast, _detector = make_cluster(
        seed=1, quorum_aware=False
    )
    sim.schedule(5.0, lambda: split(network, [0]))
    # Both sides sequence concurrently: P0 (old sequencer) serves its
    # own stream while the majority elects P1 and serves the rest.
    for i in range(6):
        sim.schedule(
            12.0 + 0.3 * i, lambda s=i % N, i=i: abcast.broadcast(s, i)
        )
    sim.schedule(30.0, network.heal_all)
    sim.run(until=60.0)

    assert abcast.epoch >= 1  # the majority did elect
    violation = abcast.check_total_order()
    assert violation is not None
    assert "delivered" in violation
