"""Load generator for the serving daemon → ``BENCH_serve.json``.

``python -m benchmarks.bench_serve`` boots an in-process
:class:`~repro.serve.ServeDaemon` on an ephemeral loopback port (or
targets a running daemon via ``--url``), then drives it with N
concurrent clients submitting a mixed spec workload — every
registered protocol across several seeds, drawn by per-client seeded
RNGs so repeats are guaranteed and the artifact store earns real hits.

Two profiles land as rows in the artifact:

* ``quick`` — 8 clients x 6 s; the CI ``serve-load`` smoke/gate row;
* ``full``  — 8 clients x 30 s; the acceptance-criteria load test
  (skipped under ``--quick``).

Each row records sustained throughput (``specs_per_sec``), latency
percentiles over every completed submission (``p50_s``/``p99_s``),
and the daemon-reported ``cache_hit_rate``.  ``tools/bench_gate.py``
gates these rows (>2x p50 regression or >2x throughput collapse vs.
the committed baseline) alongside the checker rows.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime import RunSpec, protocol_names
from repro.serve import ServeClient, ServeConfig, ServeDaemon

#: (profile, clients, duration_s).
PROFILES = [
    ("quick", 8, 6.0),
    ("full", 8, 30.0),
]

#: Seeds per protocol in the mixed pool; with ~10 protocols this
#: yields ~40 distinct specs, so an 8-client run resubmits each spec
#: many times over — the steady-state, cache-friendly traffic shape
#: the daemon is built for.
POOL_SEEDS = range(4)


def build_spec_pool() -> List[RunSpec]:
    """One small spec per (protocol, seed) — the mixed workload."""
    pool = []
    for name in protocol_names():
        for seed in POOL_SEEDS:
            pool.append(RunSpec(protocol=name, ops=3, seed=seed))
    return pool


class ClientWorker(threading.Thread):
    """One load-generating client: submit, wait, record, repeat."""

    def __init__(
        self,
        index: int,
        url: str,
        pool: List[RunSpec],
        deadline: float,
    ) -> None:
        super().__init__(name=f"bench-serve-client-{index}", daemon=True)
        self.rng = random.Random(1000 + index)
        self.client = ServeClient(url, timeout=60.0)
        self.pool = pool
        self.deadline = deadline
        self.latencies: List[float] = []
        self.outcomes: Dict[str, int] = {}
        self.errors = 0

    def run(self) -> None:
        while time.perf_counter() < self.deadline:
            spec = self.rng.choice(self.pool)
            started = time.perf_counter()
            try:
                result = self.client.submit_and_wait(spec, timeout=60.0)
            except Exception:
                self.errors += 1
                continue
            self.latencies.append(time.perf_counter() - started)
            status = result["status"]
            self.outcomes[status] = self.outcomes.get(status, 0) + 1


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(
        len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def run_profile(
    profile: str,
    clients: int,
    duration: float,
    url: str,
    metrics_client: ServeClient,
) -> Dict[str, Any]:
    pool = build_spec_pool()
    deadline = time.perf_counter() + duration
    workers = [
        ClientWorker(index, url, pool, deadline)
        for index in range(clients)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=duration + 120.0)
    elapsed = time.perf_counter() - started

    latencies: List[float] = []
    outcomes: Dict[str, int] = {}
    errors = 0
    for worker in workers:
        latencies.extend(worker.latencies)
        errors += worker.errors
        for status, count in sorted(worker.outcomes.items()):
            outcomes[status] = outcomes.get(status, 0) + count
    metrics = metrics_client.metrics()
    cache = metrics["serve"]["cache"]
    row = {
        "profile": profile,
        "clients": clients,
        "duration_s": round(elapsed, 2),
        "completed": len(latencies),
        "errors": errors,
        "specs_per_sec": round(len(latencies) / elapsed, 2),
        "p50_s": round(_percentile(latencies, 0.50), 5),
        "p99_s": round(_percentile(latencies, 0.99), 5),
        "mean_s": round(statistics.fmean(latencies), 5)
        if latencies
        else 0.0,
        "cache_hit_rate": round(cache["hit_rate"], 4),
        "outcomes": outcomes,
    }
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_serve", description=__doc__
    )
    parser.add_argument(
        "out",
        nargs="?",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_serve.json"
        ),
        help="artifact destination (default: repo-root BENCH_serve.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the quick profile (8 clients x 6 s) — the CI row",
    )
    parser.add_argument(
        "--url",
        help="target a running daemon instead of booting one in-process",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="daemon worker threads for the in-process daemon",
    )
    args = parser.parse_args(argv)

    profiles: List[Tuple[str, int, float]] = [
        row for row in PROFILES if not (args.quick and row[0] != "quick")
    ]

    results = []
    for profile, clients, duration in profiles:
        # A fresh daemon (and store) per profile keeps rows
        # independent: each one warms its own cache from zero.
        daemon: Optional[ServeDaemon] = None
        if args.url:
            url = args.url
        else:
            store = tempfile.mkdtemp(prefix="bench-serve-")
            daemon = ServeDaemon(
                ServeConfig(
                    port=0, store_dir=store, workers=args.workers
                )
            )
            daemon.start()
            url = daemon.url
        probe = ServeClient(url, timeout=30.0)
        if not probe.wait_healthy(15.0):
            print(
                f"error: daemon at {url} never became healthy",
                file=sys.stderr,
            )
            return 2
        try:
            row = run_profile(profile, clients, duration, url, probe)
        finally:
            if daemon is not None:
                daemon.stop()
        results.append(row)
        print(
            f"[bench-serve] {profile}: {row['completed']} specs in "
            f"{row['duration_s']}s ({row['specs_per_sec']}/s), "
            f"p50 {row['p50_s'] * 1000:.1f}ms, "
            f"p99 {row['p99_s'] * 1000:.1f}ms, "
            f"cache hit rate {row['cache_hit_rate']:.0%}, "
            f"errors {row['errors']}"
        )
        if row["errors"]:
            print(
                f"error: {row['errors']} client errors during "
                f"{profile}",
                file=sys.stderr,
            )
            return 1
        if row["cache_hit_rate"] <= 0:
            print(
                "error: cache hit rate was 0 on a repeat-heavy mix",
                file=sys.stderr,
            )
            return 1

    artifact = {
        "generated_by": "python -m benchmarks.bench_serve",
        "workload": (
            f"mixed: every registered protocol x seeds "
            f"{POOL_SEEDS.start}..{POOL_SEEDS.stop - 1}, ops=3"
        ),
        "results": results,
    }
    Path(args.out).write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"[bench-serve] artifact -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
