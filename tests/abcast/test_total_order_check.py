"""``AtomicBroadcast.check_total_order`` against a position-by-position
walk of the logs, on random logs: agreeing, divergent, duplicated and
offset (snapshot-recovered logs start past position 0, possibly past
every position another log covers).  The logs are landed through the
layer's own delivery step, interleaved at random, and the walk reads
them as the test wrote them."""

import random
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.abcast.interface import AtomicBroadcast
from repro.sim import Network, Simulator


def walk(abcast) -> Optional[str]:
    """The reference: every log entry checked against a map of the
    first entry seen at its global position."""
    reference: Dict[int, Tuple[int, Any]] = {}
    for pid in range(abcast.n):
        log = abcast.delivery_log.get(pid, [])
        base = abcast.delivery_offset.get(pid, 0)
        ids = [msg_id for _sender, msg_id in log]
        if len(ids) != len(set(ids)):
            return f"participant {pid} delivered a message twice"
        for i, entry in enumerate(log):
            position = base + i
            known = reference.setdefault(position, entry)
            if known != entry:
                return (
                    f"participant {pid} delivered {entry} at position "
                    f"{position} but another delivered {known}"
                )
    return None


def random_logs(rng: random.Random, shape: str):
    n = rng.randint(1, 6)
    total = [(rng.randrange(n), i) for i in range(rng.randint(0, 30))]
    logs, offsets = {}, {}
    for pid in range(n):
        start = 0
        if shape == "offset" and total and rng.random() < 0.6:
            start = rng.randrange(len(total) + 1)
        end = rng.randint(start, len(total))
        log = list(total[start:end])
        if shape == "divergent" and log and rng.random() < 0.5:
            log[rng.randrange(len(log))] = (rng.randrange(n), 1000 + pid)
        if shape == "duplicated" and log and rng.random() < 0.3:
            log.insert(rng.randrange(len(log) + 1), rng.choice(log))
        if shape == "offset" and log and rng.random() < 0.2:
            log[-1] = (rng.randrange(n), 2000 + pid)
        logs[pid], offsets[pid] = log, start
    if rng.random() < 0.2:
        del logs[rng.randrange(n)]  # a participant that never attached
    return SimpleNamespace(n=n, delivery_log=logs, delivery_offset=offsets)


def landed(logs, rng: random.Random) -> AtomicBroadcast:
    """A layer that delivered ``logs.delivery_log`` at the offsets
    ``logs.delivery_offset``: runs of one to three entries, the
    participants interleaved at random."""
    abcast = AtomicBroadcast(Network(Simulator(), logs.n))
    left = {}
    for pid, log in logs.delivery_log.items():
        abcast.attach_run(pid, lambda run, start: None)
        abcast._restart_log(pid, logs.delivery_offset[pid])
        left[pid] = [{"sender": s, "id": msg_id} for s, msg_id in log]
    while any(left.values()):
        pid = rng.choice([pid for pid, log in left.items() if log])
        size = rng.randint(1, 3)
        run, left[pid] = left[pid][:size], left[pid][size:]
        abcast._deliver_run(pid, run)
    return abcast


@pytest.mark.parametrize(
    "shape", ["agreeing", "divergent", "duplicated", "offset"]
)
def test_check_total_order_matches_the_walk(shape):
    rng = random.Random(f"total-order-{shape}")
    outcomes = set()
    for _ in range(400):
        abcast = random_logs(rng, shape)
        got = landed(abcast, rng).check_total_order()
        assert got == walk(abcast), (abcast, got)
        outcomes.add(got and ("twice" if "twice" in got else "order"))
    if shape == "agreeing":
        assert outcomes == {None}
    else:
        assert len(outcomes) > 1, outcomes


def test_a_log_starting_past_every_known_position():
    abcast = SimpleNamespace(
        n=3,
        delivery_log={0: [(0, 0), (1, 1)], 1: [(0, 5), (1, 6)], 2: []},
        delivery_offset={0: 0, 1: 5, 2: 0},
    )
    rng = random.Random("past-every-position")
    assert landed(abcast, rng).check_total_order() is None
    abcast.delivery_log[2] = [(0, 0), (1, 1), (0, 2), (0, 3), (1, 4), (0, 9)]
    expected = walk(abcast)
    assert expected is not None and "position 5" in expected
    for _ in range(20):
        assert landed(abcast, rng).check_total_order() == expected
