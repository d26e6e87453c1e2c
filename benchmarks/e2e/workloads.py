"""The six fixed workloads, as frozen settings plus a spec generator.

All inputs derive from ``--seed``: item ``i`` uses seed ``seed + i``,
and the program under test only ever sees the generated ``RunSpec``s,
history files or HTTP submissions.  Every simulated run uses
``LatencySpec("uniform", (0.5, 1.5))`` — with instant delivery the
simulated-time metrics would be meaningless.

Shapes (n, objects, ops) are the ones the issue fixed; item counts are
sized so one cycle over a workload's item set takes 3-5 s on a 2-core
box, which keeps 4 + 22 x 6 harness runs inside the harness's time
cap even while a busy neighbour halves the host's speed.  ``--seconds`` adds whole cycles, never partial ones, so the
exact metrics always cover the full item set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.runtime import FaultSpec, LatencySpec, RunSpec, VerifyPolicy

LATENCY = LatencySpec("uniform", (0.5, 1.5))

#: ``(item id, spec)`` pairs for ``count`` items from ``seed``.
SpecBuilder = Callable[[int, int], List[Tuple[str, RunSpec]]]


def _objects(count: int) -> Tuple[str, ...]:
    return tuple(f"x{i}" for i in range(count))


def _sim_specs(
    protocol: str, workload: str, n: int, objects: int, ops: int, **extra
) -> SpecBuilder:
    def build(seed: int, count: int) -> List[Tuple[str, RunSpec]]:
        return [
            (
                f"{protocol}-s{i}",
                RunSpec(
                    protocol=protocol, workload=workload, n=n,
                    objects=_objects(objects), ops=ops, seed=seed + i,
                    latency=LATENCY, **extra,
                ),
            )
            for i in range(count)
        ]

    return build


def _chaos_specs(seed: int, count: int) -> List[Tuple[str, RunSpec]]:
    """``count`` partition fault seeds for msc and mlin each, in fault
    seed order (a prefix of a longer list is that list's start)."""
    return [
        (
            f"{protocol}-f{f}",
            RunSpec(
                protocol=protocol, workload="zipfian", n=5,
                objects=_objects(8), ops=30, seed=seed, latency=LATENCY,
                faults=FaultSpec(seed=seed + f, partition=True),
            ),
        )
        for f in range(count)
        for protocol in ("msc", "mlin")
    ]


def _serve_specs(seed: int, count: int) -> List[Tuple[str, RunSpec]]:
    """Small alternating msc/mlin specs — one per HTTP submission."""
    return [
        (
            f"spec-{seed + i}",
            RunSpec(
                protocol=("msc", "mlin")[i % 2], workload="zipfian", n=6,
                objects=_objects(8), ops=20, seed=seed + i, latency=LATENCY,
            ),
        )
        for i in range(count)
    ]


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        kind: which pass driver runs it (``sim``: ``execute`` per
            item; ``offline``: load + check a history file per item;
            ``serve``: HTTP submissions to a daemon subprocess).
        passes: fresh child processes per measured run.
        count: argument to ``specs`` at full scale (``smoke_count``
            under ``--smoke``); for ``serve`` it is the pool size.
        why: one line for ``BENCHMARK.json`` (reason + input size).
        screened: set-up dry-runs each candidate spec (verification
            off, tight event budget) and skips the ones that do not
            complete, so that no timed item fails.  Only partition
            chaos needs it: about 1 in 400 mlin partition runs
            livelocks until the event budget is spent (e.g. cluster
            seed 16, fault seed 19) — a robustness finding for ROADMAP
            item 4, not something a host-time benchmark may trip over.
    """

    name: str
    kind: str
    passes: int
    count: int
    smoke_count: int
    specs: SpecBuilder
    why: str
    screened: bool = False


#: Submissions per serve-mix cycle, and the share drawn from the pool.
SERVE_SUBMISSIONS = 400
SERVE_SMOKE_SUBMISSIONS = 40
SERVE_HIT_SHARE = 0.8
SERVE_CLIENTS = 2

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "fanout-msc", "sim", 3, 5, 1,
        _sim_specs("msc", "zipfian", 150, 64, 4),
        "msc zipfian n=150x64 obj x4 ops, 600 m-ops/item: wide atomic-"
        "broadcast fan-out, >=90% of wall in cluster.run, ~3% verify",
    ),
    Workload(
        "query-mlin", "sim", 3, 4, 1,
        _sim_specs("mlin", "zipfian", 16, 32, 50),
        "mlin zipfian n=16x32 obj x50 ops, 800 m-ops/item: Fig 6 "
        "queries gather replies from all n, unicast request/response "
        "with large payloads plus store timestamp work",
    ),
    Workload(
        "deep-verify", "sim", 3, 2, 1,
        _sim_specs("msc", "hotspot", 8, 32, 500),
        "msc hotspot n=8x32 obj x500 ops, 4000 m-ops/item: few "
        "replicas, long skewed history, >=60% of wall in the certified "
        "check_condition scan path",
    ),
    Workload(
        "offline-check", "offline", 2, 2, 1,
        _sim_specs(
            "msc", "zipfian", 8, 32, 300,
            verify=VerifyPolicy(enabled=False),
        ),
        "2 recorded msc n=8x32x300 histories (2400 m-ops) + a stale-"
        "read and a future-read corrupt twin each, JSON load + "
        "uncertified check: closure path and violated verdicts",
    ),
    Workload(
        "partition-chaos", "sim", 3, 8, 1,
        _chaos_specs,
        "msc+mlin zipfian n=5x8 obj x30 ops under FaultSpec(partition) "
        "for 8 fault seeds each, 150 m-ops/item: faults, detector, "
        "reliable shim, failover/degradation, in-run audits",
        screened=True,
    ),
    Workload(
        "serve-mix", "serve", 2, 50, 8,
        _serve_specs,
        "repro serve --workers 2 subprocess, 2 connections, 400 "
        "submissions/cycle of msc|mlin n=6x8x20 (120 m-ops): 80% from a "
        "warmed 50-spec pool (cache hits), 20% never-seen (executed)",
    ),
)


def get(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; expected one of "
        f"{[w.name for w in WORKLOADS]}"
    )
