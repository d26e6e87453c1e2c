"""Chaos suite: protocols under randomized network-partition schedules.

Every :meth:`FaultPlan.random_partition` plan splits the cluster into
a majority and a minority for a healing window, on top of background
drops/duplicates.  A quorum-aware run passes only when every client
operation completes and the protocol's strongest declared condition
verifies over the recorded history.  The negative control strips the
quorum safeguards (``quorum_aware=False``) on seeds known to overlap
traffic with the split-brain window — every one of those runs must be
*caught* by the checkers, which is the evidence that the quorum
machinery is what makes the positive sweeps pass.

The full sweeps are marked ``chaos`` + ``partition`` (``pytest -m
chaos -k partition``); a bounded smoke subset, the negative control
and the RunSpec replay check run unmarked in tier-1.
"""

import json

import pytest

from repro.runtime import RunSpec, VerifyPolicy, execute
from repro.runtime.spec import FaultSpec, LatencySpec
from tests.conftest import chaos_spec

#: Negative-control seeds whose generated traffic demonstrably spans
#: the split-brain window (with ops=10); quiet seeds (1, 7, 12-14 of
#: the first 16) finish before the partition bites and prove nothing.
#: 4 and 5 diverge the abcast logs, 3 trips a mid-run audit, 11 the
#: final one.
CONTROL_SEEDS = (3, 4, 5, 11)


@pytest.mark.chaos
@pytest.mark.partition
@pytest.mark.parametrize("protocol", ["msc", "mlin"])
@pytest.mark.parametrize("seed", range(12))
def test_partition_sweep_quorum_aware(protocol, seed):
    artifact = execute(chaos_spec(protocol, seed, ops=10, partition=True))
    chaos = artifact.chaos
    assert artifact.ok, artifact.summary()
    assert artifact.completed == artifact.expected
    # The schedule really partitioned the network and healed it.
    assert chaos.plan.partitions
    kinds = [kind for _t, kind, _links in chaos.partitions]
    assert kinds.count("partition") == kinds.count("heal") == 1
    assert chaos.detector["suspicions"] >= 0


@pytest.mark.chaos
@pytest.mark.partition
@pytest.mark.parametrize("seed", range(6))
def test_partition_sweep_aggregate(seed):
    artifact = execute(
        chaos_spec("aggregate", seed, ops=8, partition=True)
    )
    assert artifact.ok, artifact.summary()
    assert artifact.chaos.partitions


def test_partition_chaos_smoke():
    """Tier-1 smoke subset: one seed per degraded mode family."""
    artifact = execute(chaos_spec("msc", 1, ops=8, partition=True))
    assert artifact.ok, artifact.summary()
    assert artifact.completed == artifact.expected
    assert artifact.chaos.partitions
    # Seed 1 isolates the sequencer: the majority must have fenced it.
    assert artifact.chaos.failovers, artifact.summary()


def test_partition_negative_control_split_brain_is_caught():
    """Without quorum gating the same schedules must demonstrably
    fail — a consistency violation, divergent abcast logs or lost
    operations — proving the checkers can see a split-brain."""
    for seed in CONTROL_SEEDS:
        artifact = execute(
            chaos_spec(
                "msc", seed, ops=10, partition=True, quorum_aware=False
            )
        )
        assert not artifact.ok, artifact.summary()
        # Divergent abcast logs are an "abcast: ..." violation.
        assert (
            artifact.violations
            or artifact.failure is not None
            or artifact.completed < artifact.expected
        ), artifact.summary()


def test_partition_refuse_mode_surfaces_at_the_client():
    """degraded='refuse': a minority-side client request is rejected
    loudly instead of parked; the artifact records the abort."""
    # Seed 0 puts a client with pending traffic on the minority side.
    artifact = execute(
        chaos_spec("msc", 0, ops=10, partition=True, degraded="refuse")
    )
    assert not artifact.ok
    assert artifact.failure is not None
    assert "PartitionedError" in artifact.failure
    assert any(
        reason == "refused"
        for _t, _pid, reason, _id in artifact.chaos.degraded
    )


def test_partition_runspec_roundtrips_and_replays_identically():
    """A partition scenario is fully replayable from JSON: the spec
    round-trips bit-for-bit and re-executing it reproduces the exact
    same history hash."""
    spec = RunSpec(
        protocol="msc",
        n=4,
        ops=8,
        seed=7,
        faults=FaultSpec(seed=3, partition=True),
    )
    blob = json.dumps(spec.to_dict(), sort_keys=True)
    restored = RunSpec.from_dict(json.loads(blob))
    assert restored == spec
    assert json.dumps(restored.to_dict(), sort_keys=True) == blob

    first = execute(spec)
    second = execute(restored)
    assert first.ok and second.ok
    assert first.history_hash == second.history_hash


#: The one known schedule (1 of 400 screened mlin partition specs, 0 of
#: 400 msc — ROADMAP item 1) on which a run never finishes.  The hole
#: is in the abcast layer, not in mlin: P2 sat with the old sequencer
#: on the minority side of the cut and misses seq 2-3, which nothing
#: ever re-fetches, so it buffers the whole new epoch behind that gap —
#: its own update (uid 23) included — while heartbeats burn the budget.
MLIN_LIVELOCK = RunSpec(
    protocol="mlin",
    workload="zipfian",
    n=5,
    objects=tuple(f"x{i}" for i in range(8)),
    ops=30,
    seed=16,
    latency=LatencySpec("uniform", (0.5, 1.5)),
    max_events=60_000,
    verify=VerifyPolicy(enabled=False),
    faults=FaultSpec(seed=19, partition=True),
)


@pytest.mark.xfail(
    strict=True,
    reason="abcast gap after a partition is never re-fetched "
    "(ROADMAP item 1a)",
)
def test_mlin_partition_livelock_completes():
    assert execute(MLIN_LIVELOCK).ok


def test_mlin_partition_livelock_ends_in_a_typed_error():
    """Until gap repair lands the run must at least end, inside its
    event budget, in the typed error — at exactly the same point,
    which also holds the delivery path event-for-event to the schedule
    that first exposed it — and the failing layer is named: every
    participant delivered all 58 entries except P2, stuck at cursor 2
    behind the two it never received."""
    artifact = execute(MLIN_LIVELOCK)
    assert artifact.failure == (
        "ProtocolError: run ended with unfinished processes [2] "
        "(event budget 60000 exhausted?)"
    )
    assert (artifact.completed, artifact.expected) == (124, 150)
    assert artifact.chaos.abcast_cursors == {0: 58, 1: 58, 2: 2, 3: 58, 4: 58}
