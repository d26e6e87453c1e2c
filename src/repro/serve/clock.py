"""Wall-clock access for the serving layer, in one place.

The simulation stack must never read the wall clock
(``tests/test_determinism.py`` enforces it over the whole package),
but a network daemon legitimately timestamps requests, measures
latency and sleeps between polls.  Every wall-clock read in
:mod:`repro.serve` goes through this module so the exemption is a
single, auditable surface — nothing else in ``repro.serve`` touches
``time.*`` directly.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Seconds since the epoch (audit timestamps, retention ages)."""
    return time.time()  # wall clock: serving timestamp


def tick() -> float:
    """A monotonic reading for latency measurement."""
    return time.perf_counter()  # wall clock: latency timer


def sleep(seconds: float) -> None:
    """Real sleep, for client polling loops and backoff."""
    time.sleep(seconds)  # wall clock: client poll wait
