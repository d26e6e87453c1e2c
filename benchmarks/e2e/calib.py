"""Host-speed calibration: time in seconds *at reference host speed*.

On a shared box the same code runs 10-60% slower for minutes at a time
while a neighbour is busy — CPU time inflates exactly like wall time,
so neither fresh processes nor medians inside one short run remove it.
What does track it is a fixed reference loop run next to the work: over
400 s in which host speed swung by 60%, raw item times spread 23-26%
(IQR / median over 15 s buckets) and the same times divided by the
loop's spread 5-6%.

So every host-time figure the benchmark reports is scaled by
``host_speed = REFERENCE_S / (the loop's time just now)``: 1.0 on the
host the benchmark was defined on when quiet, 0.6 while that host is
crowded.  The loop is the benchmark's own code (dict, heap, small
objects, attribute access — the program's instruction mix), so no
change to the program can move it, and a gain or regression in the
program shows in full.  Raw seconds and the speed index are printed
and stored next to the scaled values.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: The loop's duration on the defining host when quiet (2.1 GHz VM).
REFERENCE_S = 0.0205
#: A reading older than this is refreshed before the next item.
MAX_AGE_S = 0.4


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference_loop() -> float:
    """One timed run of the fixed reference loop (about 20 ms)."""
    start = time.perf_counter()
    table = {}
    heap: List[tuple] = []
    total = 0
    for i in range(25_000):
        key = (i * 7919) & 4095
        table[key] = _Cell(i, key)
        heapq.heappush(heap, (key, i))
        if i & 3 == 0:
            total += heapq.heappop(heap)[0]
        total += table[key].a
    return time.perf_counter() - start


class HostSpeed:
    """Keeps a fresh reading of the host-speed index."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._read_at = float("-inf")

    def now(self) -> float:
        """The index, re-measured if the last reading has gone stale."""
        if time.perf_counter() - self._read_at > MAX_AGE_S:
            return self.measure()
        return self.readings[-1]

    def measure(self) -> float:
        loop_s = statistics.median(reference_loop() for _ in range(3))
        self.readings.append(REFERENCE_S / loop_s)
        self._read_at = time.perf_counter()
        return self.readings[-1]
