"""Message-latency models for the simulated network (substrate S10).

The paper assumes only that "a message sent is eventually received"
and that "messages can get reordered" — i.e. reliable, non-FIFO,
unbounded-delay channels.  These models give per-message delays; with
any non-degenerate model, two messages on the same channel can arrive
out of order, exercising the protocols' independence from FIFO-ness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import SimulationError


class LatencyModel:
    """Base class: sample a one-way delay for a message.

    Subclasses must be deterministic functions of the supplied RNG so
    that simulations are reproducible from a seed.
    """

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Return the delay for one message from ``src`` to ``dst``."""
        raise NotImplementedError

    def arrivals(
        self, rng: random.Random, src: int, dsts: Sequence[int], now: float
    ) -> List[float]:
        """When a frame sent from ``src`` at ``now`` reaches each pid of
        ``dsts``: one :meth:`sample` per destination, in pid order."""
        delays = [self.sample(rng, src, dst) for dst in dsts]
        if min(delays) < 0:
            raise SimulationError("latency model produced negative delay")
        return [now + delay for delay in delays]

    def mean(self) -> float:
        """The mean one-way delay (used by analysis code)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    delay: float = 1.0

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``.

    With ``high > low`` messages on a channel can reorder, matching the
    paper's channel model.
    """

    low: float = 0.5
    high: float = 1.5

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        # ``rng.uniform(low, high)``, bit for bit, without the wrapper's
        # Python-level call: one sample is drawn per delivered frame.
        return self.low + (self.high - self.low) * rng.random()

    def arrivals(
        self, rng: random.Random, src: int, dsts: Sequence[int], now: float
    ) -> List[float]:
        low, span, draw = self.low, self.high - self.low, rng.random
        if low < 0 or self.high < 0:  # (else no delay is negative)
            return super().arrivals(rng, src, dsts, now)
        return [now + (low + span * draw()) for _ in dsts]

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class ExponentialLatency(LatencyModel):
    """Exponentially distributed delays with the given mean.

    Heavy reordering and occasional stragglers; a good stress model
    for the Fig-6 query phase, whose response time is governed by the
    *maximum* of n reply delays.
    """

    mean_delay: float = 1.0
    floor: float = 0.05

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean_delay)

    def mean(self) -> float:
        return self.floor + self.mean_delay


@dataclass(frozen=True)
class AsymmetricLatency(LatencyModel):
    """Per-destination base delay plus uniform jitter.

    Models a cluster where one replica is far away — useful for
    showing that the Fig-6 query phase waits for the slowest replica
    while Fig-4 queries do not.
    """

    base: float = 0.5
    jitter: float = 0.5
    slow_node: int = 0
    slow_extra: float = 3.0

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        delay = self.base + rng.uniform(0.0, self.jitter)
        if dst == self.slow_node or src == self.slow_node:
            delay += self.slow_extra
        return delay

    def mean(self) -> float:
        return self.base + self.jitter / 2.0
