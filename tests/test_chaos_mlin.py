"""Chaos suite: the Fig-6 (m-linearizable) protocol under faults.

Same pipeline as ``test_chaos_msc.py`` but the verification bar is
higher — every surviving history must be *m-linearizable* — and the
protocol has more fault surface: the query gather phase spans
messages, so crashes mid-gather exercise the attempt-numbered restart
path and the ``query_retry`` timer on top of the shared
crash/recovery and sequencer-failover machinery.
"""

import pytest

from repro.runtime import execute
from tests.conftest import chaos_spec


def _recovery(seed: int) -> str:
    return "replay" if seed % 2 == 0 else "snapshot"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(50))
def test_mlin_survives_fault_schedule(seed):
    artifact = execute(
        chaos_spec("mlin", seed, recovery=_recovery(seed))
    )
    chaos = artifact.chaos
    assert artifact.ok, artifact.summary()
    assert artifact.completed == artifact.expected
    assert chaos.plan.drop_prob > 0
    assert chaos.crashes and chaos.restarts, artifact.summary()
    assert chaos.failovers, artifact.summary()


def test_mlin_chaos_smoke():
    """Tier-1 smoke subset: both recovery modes, two schedules each."""
    for seed in (0, 1):
        for recovery in ("replay", "snapshot"):
            artifact = execute(
                chaos_spec("mlin", seed, recovery=recovery)
            )
            assert artifact.ok, artifact.summary()
            assert artifact.chaos.failovers, artifact.summary()


def test_mlin_without_recovery_loses_operations():
    """Negative control: permanent crashes must break the run."""
    for seed in range(3):
        artifact = execute(chaos_spec("mlin", seed, recover=False))
        assert not artifact.ok, artifact.summary()
        assert (
            artifact.completed < artifact.expected
            or artifact.failure is not None
            or artifact.violations
        ), artifact.summary()
