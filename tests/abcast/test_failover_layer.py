"""Property test of the failover layer alone (``FailoverSequencer``).

The ordering core's properties — validity, integrity, total order,
gap-free prefixes — must survive what this layer exists for: 100
seeded :meth:`FaultPlan.random_partition` schedules (a majority /
minority split that heals, over background drops and duplicates) on a
bare reliable :class:`Network` with the heartbeat detector bound and
no protocol above.

On top of safety, the layer owes liveness: every up, reachable
participant's cursor reaches the sequencer's ``stable`` watermark
within ``K`` x ``detector_timeout`` of the last heal.  The sweep is
deterministic, so the seeds that miss the deadline are listed, not
tolerated: :data:`KNOWN_STRANDED` is ``xfail(strict=True)`` and shrinks
to nothing when abcast gap repair lands (ROADMAP item 1a).
"""

import functools
import random
from types import SimpleNamespace

import pytest

from repro.abcast.failover import FailoverSequencer
from repro.sim import HeartbeatDetector, Network, Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.latency import UniformLatency
from tests.abcast.deliveries import spy
from tests.abcast.test_ordering_core import assert_broadcast_properties

N = 5
BROADCASTS = 30
HORIZON = 40.0
DETECTOR_TIMEOUT = 3.5
#: Catch-up allowance after the last heal, in detector timeouts.
K = 12

#: Seeds on which a participant is still behind ``stable`` at the
#: deadline.  Both sit behind a relay the reliable shim keeps losing
#: (its backoff reaches 32 vt) with the later entries already
#: buffered: nothing in the layer re-fetches a gap it can see.
KNOWN_STRANDED = (2, 16)


def assert_gap_free_prefixes(abcast):
    """Each log is positions ``0..cursor-1``, entry ``i`` stamped ``i``."""
    for pid in range(N):
        retained = abcast.retained_log(pid)
        assert sorted(retained) == list(range(abcast.cursor(pid)))
        assert [
            (retained[seq]["seq"], retained[seq]["id"])
            for seq in sorted(retained)
        ] == [
            (position, msg_id)
            for position, (_s, msg_id) in enumerate(abcast.spied[pid])
        ]


@functools.lru_cache(maxsize=None)
def run_schedule(seed):
    """One seeded partition schedule; returns the layer, its network,
    the deadline and who was behind ``stable`` when it struck.  Run
    once per seed: the safety and the liveness test only read it."""
    sim = Simulator()
    network = Network(
        sim, N, latency=UniformLatency(0.5, 1.5), seed=seed, reliable=True
    )
    abcast = FailoverSequencer(network, failover_delay=4.0)
    plan = FaultPlan.random_partition(seed, N, horizon=HORIZON)
    (split,) = plan.partitions
    deadline = split.at + split.duration + K * DETECTOR_TIMEOUT
    detector = HeartbeatDetector(
        network,
        timeout=DETECTOR_TIMEOUT,
        should_stop=lambda: sim.now >= max(deadline, HORIZON) + 5.0,
    )
    abcast.bind_detector(detector)
    spy(abcast)
    for pid in range(N):
        abcast.attach(pid, lambda sender, payload: None)
    detector.start()
    FaultInjector(plan).install(SimpleNamespace(network=network, sim=sim))
    rng = random.Random(seed * 7919 + 17)
    for index in range(BROADCASTS):
        sim.schedule(
            rng.uniform(0.0, HORIZON),
            abcast.broadcast,
            rng.randrange(N),
            {"op": index},
        )
    for at in (10.0, 20.0, 30.0, 40.0):
        sim.schedule(at, assert_gap_free_prefixes, abcast)
    behind = []

    def at_deadline():
        # Every link is healed and nobody crashed: all are reachable.
        stable = abcast._seq_state[abcast.sequencer].stable
        behind.extend(
            (pid, abcast.cursor(pid), stable)
            for pid in range(N)
            if abcast.cursor(pid) < stable
        )

    sim.schedule(deadline, at_deadline)
    sim.run()
    return abcast, network, deadline, behind


@pytest.mark.parametrize("seed", range(100))
def test_failover_layer_is_safe(seed):
    abcast, network, _deadline, _behind = run_schedule(seed)
    assert network.stats.lost_to_partition > 0  # the split really bit
    assert_broadcast_properties(abcast, BROADCASTS)
    assert_gap_free_prefixes(abcast)
    assert not any(abcast._buffer.values())


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            seed,
            marks=pytest.mark.xfail(
                strict=True,
                reason="behind stable at the deadline: no gap repair "
                "(ROADMAP item 1a)",
            ),
        )
        if seed in KNOWN_STRANDED
        else seed
        for seed in range(100)
    ],
)
def test_failover_layer_catches_up(seed):
    _abcast, _network, deadline, behind = run_schedule(seed)
    assert not behind, f"(pid, cursor, stable) at vt {deadline:.1f}: {behind}"
