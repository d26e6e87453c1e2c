"""Chaos suite: the single-server baseline under fault schedules.

The server baseline has no broadcast layer, so there are no sequencer
failovers here; what the sweep exercises instead is the write-ahead
commit log — a restarting server reinstalls its durable image and
answers retried requests from the log without re-executing them — and
the client retry timers that regenerate responses lost to a crash.
"""

import pytest

from repro.runtime import execute
from tests.conftest import chaos_spec


def _recovery(seed: int) -> str:
    return "replay" if seed % 2 == 0 else "snapshot"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(10))
def test_server_survives_fault_schedule(seed):
    artifact = execute(
        chaos_spec("server", seed, recovery=_recovery(seed))
    )
    chaos = artifact.chaos
    assert artifact.ok, artifact.summary()
    assert artifact.completed == artifact.expected
    assert chaos.plan.drop_prob > 0
    assert chaos.crashes and chaos.restarts, artifact.summary()
    # No abcast layer -> no sequencer failovers, ever.
    assert not chaos.failovers


def test_server_chaos_smoke():
    """Tier-1 smoke subset: both recovery modes, two schedules each."""
    for seed in (0, 1):
        for recovery in ("replay", "snapshot"):
            artifact = execute(
                chaos_spec("server", seed, recovery=recovery)
            )
            assert artifact.ok, artifact.summary()


def test_server_without_recovery_loses_operations():
    """Negative control: permanent crashes must break the run."""
    for seed in range(3):
        artifact = execute(chaos_spec("server", seed, recover=False))
        assert not artifact.ok, artifact.summary()
        assert (
            artifact.completed < artifact.expected
            or artifact.failure is not None
            or artifact.violations
        ), artifact.summary()
