"""Chaos suite: the aggregate-broadcast protocol under fault schedules.

The aggregate protocol became chaos-eligible when the runtime layer's
capability flags replaced a hardcoded msc/mlin table; this
suite mirrors ``test_chaos_msc.py`` for it.  Aggregate answers queries
through the broadcast too (``abcast_answers_queries``), so recovery
must replay unanswered *queries* as well as updates.
"""

import pytest

from repro.runtime import execute
from tests.conftest import chaos_spec


def _recovery(seed: int) -> str:
    return "replay" if seed % 2 == 0 else "snapshot"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(10))
def test_aggregate_survives_fault_schedule(seed):
    artifact = execute(
        chaos_spec("aggregate", seed, recovery=_recovery(seed))
    )
    chaos = artifact.chaos
    assert artifact.ok, artifact.summary()
    assert artifact.completed == artifact.expected
    assert chaos.plan.drop_prob > 0
    assert chaos.crashes and chaos.restarts, artifact.summary()
    assert chaos.failovers, artifact.summary()


def test_aggregate_chaos_smoke():
    """Tier-1 smoke subset: both recovery modes, two schedules each."""
    for seed in (0, 1):
        for recovery in ("replay", "snapshot"):
            artifact = execute(
                chaos_spec("aggregate", seed, recovery=recovery)
            )
            assert artifact.ok, artifact.summary()
            assert artifact.chaos.failovers, artifact.summary()


def test_aggregate_without_recovery_loses_operations():
    """Negative control: permanent crashes must break the run."""
    for seed in range(3):
        artifact = execute(chaos_spec("aggregate", seed, recover=False))
        assert not artifact.ok, artifact.summary()
        assert (
            artifact.completed < artifact.expected
            or artifact.failure is not None
            or artifact.violations
        ), artifact.summary()
