"""Metrics registry: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments,
created on first use and shared by name thereafter — the structured
replacement for the hand-rolled ``+= 1`` counter fields that used to
live in :class:`~repro.sim.network.NetworkStats`.  Instruments may
carry *labels* (``registry.counter("net.sent", kind="abc-seq")``);
each distinct label set is its own time series, exactly as in the
Prometheus data model this deliberately mirrors (dependency-free).

``registry.snapshot()`` renders everything as one plain dict, which is
what the CLI ``--metrics`` flags and ``RunArtifact.net_stats`` /
``.metrics`` expose — consumers read recorded numbers instead of
poking private attributes of live objects.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (virtual-time latencies and
#: wall-clock checker phases both land comfortably inside).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
)

#: A label set, normalised to a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count.

    Instruments are shared across the serve daemon's handler and
    worker threads, so every read-modify-write happens under the
    instrument's own lock; an unlocked ``+= 1`` drops increments under
    contention (the load/add/store interleaves).
    """

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount


class Gauge:
    """A value that goes up and down; tracks its high-water mark."""

    __slots__ = ("name", "_lock", "_value", "_maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._maximum = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def maximum(self) -> float:
        with self._lock:
            return self._maximum

    def set(self, value: float) -> None:
        with self._lock:
            self._set_locked(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._set_locked(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._set_locked(self._value - amount)

    def _set_locked(self, value: float) -> None:
        self._value = value
        if value > self._maximum:
            self._maximum = value


class Histogram:
    """Fixed-boundary cumulative-bucket histogram.

    ``counts[i]`` counts observations ``<= buckets[i]``; one implicit
    overflow bucket counts the rest.  Bucket boundaries are fixed at
    construction so merging and snapshotting stay trivial.
    """

    __slots__ = (
        "name",
        "buckets",
        "_lock",
        "_counts",
        "_overflow",
        "_count",
        "_total",
    )

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        ordered = tuple(buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing: "
                f"{buckets!r}"
            )
        self.name = name
        self.buckets = ordered
        self._lock = threading.Lock()
        self._counts = [0] * len(ordered)
        self._overflow = 0
        self._count = 0
        self._total = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._overflow += 1

    @property
    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    @property
    def overflow(self) -> int:
        with self._lock:
            return self._overflow

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def state(self) -> Dict[str, Any]:
        """count/total/mean/counts/overflow as one coherent snapshot."""
        with self._lock:
            return {
                "count": self._count,
                "total": self._total,
                "mean": self._total / self._count if self._count else 0.0,
                "counts": list(self._counts),
                "overflow": self._overflow,
            }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot on demand.

    The registry lock guards only the instrument *maps* (get-or-create
    races would otherwise mint two counters for one series and lose
    one of them); each instrument serializes its own state.  Lock
    ordering is registry -> instrument, never the reverse.
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = Counter(_series_name(name, key[1]))
                self._counters[key] = counter
            return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = Gauge(_series_name(name, key[1]))
                self._gauges[key] = gauge
            return gauge

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(_series_name(name, key[1]), buckets)
                self._histograms[key] = histogram
            return histogram

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def by_label(self, name: str, label: str) -> Dict[str, int]:
        """``label``-value -> count over every series of counter ``name``.

        E.g. ``registry.by_label("net.sent_by_kind", "kind")`` returns
        per-kind send counts as a plain dict.
        """
        with self._lock:
            series = list(self._counters.items())
        out: Dict[str, int] = {}
        for (base, labels), counter in series:
            if base == name:
                values = dict(labels)
                if label in values:
                    out[values[label]] = counter.value
        return out

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything, as one plain nested dict (JSON-safe)."""
        with self._lock:
            counter_list = list(self._counters.values())
            gauge_list = list(self._gauges.values())
            histogram_list = list(self._histograms.values())
        counters = {c.name: c.value for c in counter_list}
        gauges = {
            g.name: {"value": g.value, "max": g.maximum}
            for g in gauge_list
        }
        histograms = {}
        for h in histogram_list:
            state = h.state()
            histograms[h.name] = {
                "count": state["count"],
                "total": state["total"],
                "mean": state["mean"],
                "buckets": {
                    str(bound): cumulative
                    for bound, cumulative in zip(
                        h.buckets, _cumulative(state["counts"])
                    )
                },
                "overflow": state["overflow"],
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def _cumulative(counts: Iterable[int]) -> List[int]:
    total = 0
    out: List[int] = []
    for count in counts:
        total += count
        out.append(total)
    return out
