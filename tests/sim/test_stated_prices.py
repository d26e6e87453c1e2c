"""A stated price never lies: every message a protocol sends costs what
the reference walk of its payload says.

Relays restate their request's price and Figure 6 replies take the
replica image's prices (see :class:`repro.sim.network.Message`); the
network counts whatever the message says.  Each run below checks every
logical send against ``reference_size`` at the moment it is counted:
every registered protocol clean, the crash-tolerant ones through a
crash and restart under both recovery modes, and msc and mlin across a
partition and its failover.
"""

import pytest

from repro.runtime import RunSpec, execute
from repro.runtime.registry import (
    crash_tolerant_protocols,
    protocol_names,
)
from repro.sim.network import NetworkStats
from tests.conftest import chaos_spec
from tests.sim.test_estimate_size import reference_size


def checked_run(spec):
    """Execute ``spec``; return the kinds sent, every price checked."""
    record = NetworkStats.record_send
    kinds = set()

    def checked(stats, message, count=1):
        assert message.size == reference_size(message.payload), message
        kinds.add(message.kind)
        record(stats, message, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NetworkStats, "record_send", checked)
        artifact = execute(spec)
    assert artifact.ok, artifact.failure
    return kinds


@pytest.mark.parametrize("protocol", protocol_names())
def test_clean_runs_send_only_honest_prices(protocol):
    options = [{}]
    if protocol == "mlin":
        options.append({"reply_relevant_only": True})
    for option in options:
        spec = RunSpec(protocol=protocol, n=4, ops=6, seed=3, options=option)
        assert checked_run(spec)


@pytest.mark.parametrize("recovery", ["replay", "snapshot"])
@pytest.mark.parametrize("protocol", sorted(crash_tolerant_protocols()))
def test_crash_restart_runs_send_only_honest_prices(protocol, recovery):
    kinds = set()
    for seed in (1, 2, 11):
        kinds |= checked_run(
            chaos_spec(protocol, seed, ops=6, recovery=recovery)
        )
    # A peer snapshot carries a full export (the single server keeps
    # its durable image instead).
    if recovery == "snapshot" and protocol != "server":
        assert "snap-resp" in kinds


@pytest.mark.parametrize("protocol", ["msc", "mlin"])
def test_partition_runs_send_only_honest_prices(protocol):
    kinds = set()
    for seed in (1, 3, 5):
        kinds |= checked_run(chaos_spec(protocol, seed, partition=True))
    assert {"abc-seq", "abc-new-seq", "abc-stable"} <= kinds
