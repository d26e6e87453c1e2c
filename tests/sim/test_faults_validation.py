"""FaultPlan construction invariants and injector range checks.

A malformed plan must die at construction with a message naming the
offending event — not halfway through a chaos run — and a structurally
valid plan referencing pids the cluster doesn't have must die at
install time.  Also pins the determinism of the seeded partition-plan
generator (the replayability contract behind ``--fault-seed``), and
that shim/detector settings no run can succeed under are refused when
the network or the spec is built, not run into a ``DeliveryTimeout``.
"""

import types

import pytest

from repro.errors import SimulationError
from repro.runtime import FaultSpec, InvalidSpecError
from repro.sim import Network, Simulator
from repro.sim.faults import (
    CrashEvent,
    DelaySpike,
    FaultInjector,
    FaultPlan,
    HealEvent,
    PartitionEvent,
)


class TestCrashValidation:
    def test_overlapping_windows_for_one_pid_rejected(self):
        with pytest.raises(SimulationError, match="overlapping crash"):
            FaultPlan(
                crashes=(
                    CrashEvent(pid=1, at=5.0, restart_after=10.0),
                    CrashEvent(pid=1, at=9.0, restart_after=2.0),
                )
            )

    def test_permanent_crash_blocks_any_later_crash_of_same_pid(self):
        with pytest.raises(SimulationError, match="overlapping crash"):
            FaultPlan(
                crashes=(
                    CrashEvent(pid=0, at=1.0, restart_after=None),
                    CrashEvent(pid=0, at=30.0, restart_after=1.0),
                )
            )

    def test_disjoint_windows_and_distinct_pids_accepted(self):
        FaultPlan(
            crashes=(
                CrashEvent(pid=0, at=1.0, restart_after=2.0),
                CrashEvent(pid=0, at=4.0, restart_after=2.0),
                CrashEvent(pid=1, at=1.5, restart_after=None),
            )
        )

    def test_negative_time_and_bad_restart_rejected(self):
        with pytest.raises(SimulationError, match="negative time"):
            FaultPlan(crashes=(CrashEvent(pid=0, at=-1.0, restart_after=None),))
        with pytest.raises(SimulationError, match="restart_after"):
            FaultPlan(crashes=(CrashEvent(pid=0, at=1.0, restart_after=0.0),))

    def test_probabilities_range_checked(self):
        with pytest.raises(SimulationError, match="drop_prob"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(SimulationError, match="dup_prob"):
            FaultPlan(dup_prob=-0.1)

    def test_malformed_spike_rejected(self):
        with pytest.raises(SimulationError, match="delay spike"):
            FaultPlan(spikes=(DelaySpike(at=0.0, duration=0.0, factor=2.0),))


class TestPartitionValidation:
    def test_partition_needs_links(self):
        with pytest.raises(SimulationError, match="cuts no links"):
            FaultPlan(partitions=(PartitionEvent(at=1.0, links=()),))

    def test_partition_time_and_duration_checked(self):
        link = ((0, 1),)
        with pytest.raises(SimulationError, match="negative time"):
            FaultPlan(partitions=(PartitionEvent(at=-1.0, links=link),))
        with pytest.raises(SimulationError, match="duration"):
            FaultPlan(
                partitions=(
                    PartitionEvent(at=1.0, links=link, duration=0.0),
                )
            )

    @pytest.mark.parametrize(
        "link, message",
        [
            ((0, 0), "self-loop"),
            ((0, -2), "negative pids"),
            ((0, "x"), "non-integer"),
            ((0, 1, 2), "pid pair"),
        ],
    )
    def test_malformed_links_rejected(self, link, message):
        with pytest.raises(SimulationError, match=message):
            FaultPlan(partitions=(PartitionEvent(at=1.0, links=(link,)),))

    def test_heal_validation(self):
        with pytest.raises(SimulationError, match="negative time"):
            FaultPlan(heals=(HealEvent(at=-0.5),))
        with pytest.raises(SimulationError, match="self-loop"):
            FaultPlan(heals=(HealEvent(at=1.0, links=((2, 2),)),))
        # links=None (heal everything) is valid.
        FaultPlan(heals=(HealEvent(at=1.0),))

    def test_split_builder_cuts_every_cross_link(self):
        event = PartitionEvent.split(5.0, [(0,), (1, 2)], duration=3.0)
        assert set(event.links) == {(0, 1), (0, 2)}
        assert event.duration == 3.0

    def test_max_pid_covers_partitions_and_heals(self):
        plan = FaultPlan(
            partitions=(PartitionEvent(at=1.0, links=((0, 5),)),),
            heals=(HealEvent(at=2.0, links=((6, 1),)),),
        )
        assert plan.max_pid() == 6
        assert FaultPlan().max_pid() == -1


class TestRandomPartitionPlan:
    def test_deterministic_per_seed(self):
        assert FaultPlan.random_partition(3, 4) == FaultPlan.random_partition(3, 4)
        assert FaultPlan.random_partition(3, 4) != FaultPlan.random_partition(4, 4)

    def test_needs_a_possible_majority(self):
        with pytest.raises(SimulationError, match="three processes"):
            FaultPlan.random_partition(0, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_shape_one_healing_split_no_crashes(self, seed):
        plan = FaultPlan.random_partition(seed, 4, horizon=40.0)
        assert plan.crashes == ()
        assert len(plan.partitions) == 1
        split = plan.partitions[0]
        assert split.duration is not None  # always heals
        assert split.at + split.duration < 40.0
        assert all(0 <= a < 4 and 0 <= b < 4 for a, b in split.links)


class TestInjectorInstall:
    def _cluster(self, n):
        sim = Simulator()
        net = Network(sim, n)
        for pid in range(n):
            net.register(pid, lambda src, msg: None)
        return types.SimpleNamespace(sim=sim, network=net)

    def test_out_of_range_pid_rejected_at_install(self):
        plan = FaultPlan(
            partitions=(PartitionEvent(at=1.0, links=((0, 5),)),)
        )
        with pytest.raises(SimulationError, match="pid 5"):
            FaultInjector(plan).install(self._cluster(3))

    def test_partition_window_cuts_then_heals(self):
        cluster = self._cluster(3)
        plan = FaultPlan(
            partitions=(
                PartitionEvent.split(2.0, [(0,), (1, 2)], duration=4.0),
            )
        )
        injector = FaultInjector(plan).install(cluster)
        cluster.sim.run(until=3.0)
        assert cluster.network.is_cut(0, 1)
        cluster.sim.run()
        assert cluster.network.cut_links == set()
        assert injector.partitioned == [
            (2.0, "partition", 2), (6.0, "heal", 2)
        ]


#: Constructor keyword -> values outside its range.
BAD_SHIM_SETTINGS = [
    ("drop_prob", 1.5),
    ("dup_prob", -0.1),
    ("ack_timeout", 0.0),
    ("ack_timeout", -1.0),
    ("backoff", 0.0),
    ("max_backoff", 0.5),
    ("max_retries", -1),
    ("retry_jitter", -0.25),
]

#: ``FaultSpec`` field -> values outside its range.
BAD_FAULT_SPEC_SETTINGS = [
    ("ack_timeout", 0.0),
    ("ack_timeout", -1.0),
    ("retry_backoff", 0.0),
    ("retry_jitter", -0.25),
    ("max_retries", -1),
    ("detector_period", 0.0),
    ("detector_timeout", 1.0),  # must exceed the default period 1.0
    ("horizon", 0.0),
    ("failover_delay", -1.0),
    ("ack_timeout", "soon"),
]


class TestShimSettingsValidation:
    @pytest.mark.parametrize(("name", "value"), BAD_SHIM_SETTINGS)
    def test_network_rejects_out_of_range(self, name, value):
        with pytest.raises(SimulationError, match=name):
            Network(Simulator(), 2, reliable=True, **{name: value})

    def test_network_accepts_the_boundaries(self):
        Network(
            Simulator(), 2, drop_prob=1.0, dup_prob=0.0, backoff=1.0,
            max_backoff=1.0, max_retries=0, retry_jitter=0.0,
        )

    @pytest.mark.parametrize(("name", "value"), BAD_FAULT_SPEC_SETTINGS)
    def test_fault_spec_rejects_out_of_range(self, name, value):
        with pytest.raises(InvalidSpecError):
            FaultSpec(**{name: value})
        with pytest.raises(InvalidSpecError):
            FaultSpec.from_dict({name: value})

    def test_fault_spec_accepts_the_boundaries(self):
        FaultSpec(
            failover_delay=0.0, retry_backoff=1.0, retry_jitter=0.0,
            max_retries=0,
        )
