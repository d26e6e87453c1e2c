"""Chaos suite: the Fig-4 (m-SC) protocol under fault schedules.

Every generated :class:`~repro.sim.faults.FaultPlan` carries message
drops (up to 20%), duplicates, at least one crash-restart and at
least one *sequencer* crash (forcing a failover).  Each run is one
``execute`` of a spec with a ``FaultSpec``; it passes only if every
client m-operation completed, the in-run monitor's audits stayed
clean, the abcast logs kept total order and the run's one batch
verdict holds.  (``tests/test_chaos_differential.py`` holds the
streaming replay and the closure checker to that verdict.)

The full 50-schedule sweep is marked ``chaos`` (``make chaos`` /
``pytest -m chaos``); a bounded smoke subset and the negative control
run unmarked in tier-1.
"""

import pytest

from repro.runtime import execute
from tests.conftest import chaos_spec


def _recovery(seed: int) -> str:
    """Alternate recovery strategies across the seed sweep."""
    return "replay" if seed % 2 == 0 else "snapshot"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(50))
def test_msc_survives_fault_schedule(seed):
    artifact = execute(
        chaos_spec("msc", seed, recovery=_recovery(seed))
    )
    chaos = artifact.chaos
    assert artifact.ok, artifact.summary()
    assert artifact.completed == artifact.expected
    # The schedule really exercised the fault machinery.
    assert chaos.plan.drop_prob > 0
    assert chaos.crashes and chaos.restarts, artifact.summary()
    assert chaos.failovers, artifact.summary()


def test_msc_chaos_smoke():
    """Tier-1 smoke subset: both recovery modes, two schedules each."""
    for seed in (0, 1):
        for recovery in ("replay", "snapshot"):
            artifact = execute(
                chaos_spec("msc", seed, recovery=recovery)
            )
            assert artifact.ok, artifact.summary()
            assert artifact.chaos.failovers, artifact.summary()


def test_msc_without_recovery_loses_operations():
    """Negative control: crashes stay down, recovery never runs.

    Every such run must demonstrably fail — lost client operations or
    a checker/transport failure — which is the evidence that the
    recovery machinery is what makes the positive runs pass.
    """
    for seed in range(3):
        artifact = execute(chaos_spec("msc", seed, recover=False))
        assert not artifact.ok, artifact.summary()
        assert (
            artifact.completed < artifact.expected
            or artifact.failure is not None
            or artifact.violations
        ), artifact.summary()
