"""Simulator throughput benchmark → BENCH_sim.json.

``python -m benchmarks.bench_sim`` (or ``make bench-sim``) measures the
discrete-event kernel and the full protocol stack end-to-end and writes
the medians to ``BENCH_sim.json`` at the repository root — the sim-side
counterpart of ``bench_checkers`` / ``bench_serve``, gated the same way
by ``tools/bench_gate.py`` (a >2x collapse of a shared row's rate fails
CI).

Three row families:

* **kernel** — a pure :class:`~repro.sim.kernel.Simulator` microbench:
  ``n`` self-rescheduling callbacks all firing at the same virtual
  timestamp, so every instant holds ``n`` ties.  This is the raw
  drain-loop cost with no network or store attached, in
  ``events_per_sec``.
* **protocol rows** (msc / mlin / aggregate) — registry-built clusters
  under ``UniformLatency(0.5, 1.5)`` driven by registry workloads
  (``zipfian`` / ``hotspot`` object skew).  ``deliveries`` is the
  run's ``net.delivered`` and the row's rate is ``deliveries_per_sec``:
  a clean run's relays land lazily, so ``events``
  (``Simulator.events_fired``, kept for the record) counts far fewer
  kernel events than deliveries, and events per second would reward
  firing more of them.  ``history_hash`` pins the produced history
  byte-for-byte: any hot-path refactor must leave it unchanged per
  seed.  The 1000-process zipfian msc row is the headline
  "million-delivery" tier.
* **histgen** — the abstract-history generator at ROADMAP scale (1000
  processes × 10k objects), in m-operations/sec (as ``events_per_sec``).

``allocs_per_delivery`` is measured in a separate untimed pass with
:mod:`tracemalloc` (net live small-object blocks at run end divided by
deliveries — retained per-delivery state such as version-vector
snapshots shows up here, which is exactly what interning is meant to
shrink).  Rows above the alloc size cutoff skip the pass: tracemalloc
slows the run ~4x and the headline row is measured for speed.

The script deliberately runs on *older* checkouts too: the ``zipfian``
registry entry and the ``HistoryShape.distribution`` knob are feature-
detected with uniform/direct fallbacks, so the committed artifact's
before/after comparison (``--previous OLD.json`` annotates shared rows
with ``pre_refactor_<rate>`` and ``speedup``) comes from one script run
on two commits of the code under test.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.execute import history_hash
from repro.runtime.registry import protocol_registry, workload_registry
from repro.sim import Simulator, UniformLatency
from repro.workloads.generator import (
    HistoryShape,
    random_serial_history,
    random_workloads,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: Object-selection skew per named workload family, used as a direct
#: ``random_workloads(zipf_s=...)`` fallback when the registry predates
#: the named entry.  Must match ``repro.runtime.workloads``.
WORKLOAD_SKEW = {"zipfian": 1.0, "hotspot": 1.5, "random": 0.0}

#: Protocol cases: (protocol, workload, n, n_objects, ops, seed, runs).
#: The quick subset is what CI reruns against the committed artifact,
#: so the full profile is a strict superset of it — every quick row
#: keeps a committed baseline to gate against.
QUICK_PROTOCOL_CASES: List[Tuple[str, str, int, int, int, int, int]] = [
    ("msc", "zipfian", 6, 12, 20, 11, 2),
    ("mlin", "zipfian", 6, 12, 20, 11, 2),
    ("aggregate", "zipfian", 6, 12, 20, 11, 2),
]

FULL_PROTOCOL_CASES: List[Tuple[str, str, int, int, int, int, int]] = [
    *QUICK_PROTOCOL_CASES,
    ("msc", "zipfian", 24, 32, 40, 11, 3),
    ("mlin", "zipfian", 24, 32, 40, 11, 3),
    ("aggregate", "zipfian", 24, 32, 40, 11, 2),
    ("msc", "hotspot", 24, 32, 40, 11, 3),
    # The headline tier: 1000 sequencer-ordered replicas, zipf-skewed
    # objects, ~1M deliveries per run.
    ("msc", "zipfian", 1000, 64, 2, 7, 1),
]

#: Kernel microbench cases: (batch_width, n_events, runs).
QUICK_KERNEL_CASES = [(64, 50_000, 2)]
FULL_KERNEL_CASES = [(64, 50_000, 2), (64, 400_000, 3)]

#: Rows at or below this process count also get the (slow,
#: tracemalloc-instrumented) allocation pass.
ALLOC_PASS_MAX_N = 100

#: Abstract-history generator case (full profile only): ROADMAP's
#: "1000 processes × 10k objects" scale-up.
HISTGEN_CASE = {"n": 1000, "objects": 10_000, "mops": 20_000, "seed": 3}


def _workload_builder(name: str) -> Callable:
    """Resolve a named workload, falling back for older checkouts."""
    spec = workload_registry().get(name)
    if spec is not None:
        return spec.builder
    skew = WORKLOAD_SKEW[name]
    return lambda n, objects, ops, seed: random_workloads(
        n, objects, ops, seed=seed, zipf_s=skew
    )


def _build_cluster(protocol: str, n: int, objects: List[str], seed: int):
    factory = protocol_registry()[protocol].factory
    return factory(
        n, objects, seed=seed, latency=UniformLatency(0.5, 1.5)
    )


@contextmanager
def _quiesced_gc():
    """Collect leftovers from prior rows, then pause GC while timing.

    Within one process the earlier (smaller) rows leave cyclic garbage
    behind; without this the collector fires mid-run and the headline
    row pays for its predecessors — the usual benchmarking hygiene,
    applied identically to every sample.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _protocol_sample(
    protocol: str,
    workload: str,
    n: int,
    n_objects: int,
    ops: int,
    seed: int,
) -> Tuple[float, int, int, str]:
    """One fresh cluster run; returns (wall_s, events, deliveries,
    history_hash).

    Construction happens outside the timed region: what is measured is
    ``Cluster.run`` — invocation scheduling, network transmission,
    abcast ordering, store execution, and the drain loop itself.
    """
    objects = [f"x{i}" for i in range(n_objects)]
    cluster = _build_cluster(protocol, n, objects, seed)
    workloads = _workload_builder(workload)(n, objects, ops, seed + 1)
    with _quiesced_gc():
        start = time.perf_counter()
        result = cluster.run(workloads)
        elapsed = time.perf_counter() - start
    return (
        elapsed,
        cluster.sim.events_fired,
        cluster.network.stats.delivered,
        history_hash(result.history),
    )


def _alloc_pass(
    protocol: str,
    workload: str,
    n: int,
    n_objects: int,
    ops: int,
    seed: int,
) -> Tuple[float, float]:
    """Untimed tracemalloc pass; returns (allocs_per_delivery, peak_kb)."""
    objects = [f"x{i}" for i in range(n_objects)]
    cluster = _build_cluster(protocol, n, objects, seed)
    workloads = _workload_builder(workload)(n, objects, ops, seed + 1)
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    cluster.run(workloads)
    after = tracemalloc.take_snapshot()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    live_blocks = sum(
        stat.count_diff
        for stat in after.compare_to(before, "filename")
    )
    deliveries = max(1, cluster.network.stats.delivered)
    return live_blocks / deliveries, peak / 1024.0


def run_protocol_cases(
    cases: Sequence[Tuple[str, str, int, int, int, int, int]],
) -> List[dict]:
    rows: List[dict] = []
    for protocol, workload, n, n_objects, ops, seed, runs in cases:
        samples: List[float] = []
        events = deliveries = 0
        digest = ""
        for _ in range(runs):
            elapsed, events, deliveries, run_digest = _protocol_sample(
                protocol, workload, n, n_objects, ops, seed
            )
            if digest and run_digest != digest:
                raise AssertionError(
                    f"{protocol}/{workload} n={n} seed={seed}: "
                    "history hash changed between identical runs"
                )
            digest = run_digest
            samples.append(elapsed)
        median = statistics.median(samples)
        row = {
            "family": "sim",
            "protocol": protocol,
            "workload": workload,
            "n": n,
            "objects": n_objects,
            "ops": ops,
            "seed": seed,
            "runs": runs,
            "events": events,
            "deliveries": deliveries,
            "median_s": round(median, 4),
            "min_s": round(min(samples), 4),
            "deliveries_per_sec": round(deliveries / median, 1),
            "history_hash": digest,
        }
        if n <= ALLOC_PASS_MAX_N:
            allocs, peak_kb = _alloc_pass(
                protocol, workload, n, n_objects, ops, seed
            )
            row["allocs_per_delivery"] = round(allocs, 3)
            row["alloc_peak_kb"] = round(peak_kb, 1)
        rows.append(row)
        print(
            f"{protocol:<9} {workload:<8} n={n:<5} ops={ops:<3} "
            f"deliveries={deliveries:<8} median={median:.4f}s "
            f"({row['deliveries_per_sec']:.0f} deliveries/s)"
        )
    return rows


def _kernel_sample(batch: int, n_events: int) -> Tuple[float, int]:
    sim = Simulator()

    def make_callback():
        def callback():
            sim.schedule(1.0, callback)

        return callback

    for _ in range(batch):
        sim.schedule(0.0, make_callback())
    with _quiesced_gc():
        start = time.perf_counter()
        sim.run(max_events=n_events)
        elapsed = time.perf_counter() - start
    return elapsed, sim.events_fired


def run_kernel_cases(
    cases: Sequence[Tuple[int, int, int]],
) -> List[dict]:
    rows: List[dict] = []
    for batch, n_events, runs in cases:
        samples = []
        events = 0
        for _ in range(runs):
            elapsed, events = _kernel_sample(batch, n_events)
            samples.append(elapsed)
        median = statistics.median(samples)
        rows.append(
            {
                "family": "sim",
                "protocol": "kernel",
                "workload": "self-schedule",
                "n": batch,
                "objects": 0,
                "ops": n_events,
                "seed": 0,
                "runs": runs,
                "events": events,
                "median_s": round(median, 4),
                "min_s": round(min(samples), 4),
                "events_per_sec": round(events / median, 1),
            }
        )
        print(
            f"kernel    batch={batch:<4} events={events:<8} "
            f"median={median:.4f}s "
            f"({rows[-1]['events_per_sec']:.0f} ev/s)"
        )
    return rows


def run_histgen_case() -> dict:
    """ROADMAP-scale abstract history generation (m-ops/sec)."""
    case = HISTGEN_CASE
    kwargs = {
        "n_processes": case["n"],
        "n_objects": case["objects"],
        "n_mops": case["mops"],
    }
    fields = {f.name for f in dataclasses.fields(HistoryShape)}
    workload = "uniform"
    if "distribution" in fields:  # post-refactor knob
        kwargs["distribution"] = "zipfian"
        workload = "zipfian"
    shape = HistoryShape(**kwargs)
    with _quiesced_gc():
        start = time.perf_counter()
        history = random_serial_history(shape, seed=case["seed"])
        elapsed = time.perf_counter() - start
    mops = len(history.mops)
    row = {
        "family": "sim",
        "protocol": "histgen",
        "workload": workload,
        "n": case["n"],
        "objects": case["objects"],
        "ops": case["mops"],
        "seed": case["seed"],
        "runs": 1,
        "events": mops,
        "median_s": round(elapsed, 4),
        "min_s": round(elapsed, 4),
        "events_per_sec": round(mops / elapsed, 1),
    }
    print(
        f"histgen   {workload:<8} n={case['n']} "
        f"objects={case['objects']} mops={mops} "
        f"median={elapsed:.4f}s ({row['events_per_sec']:.0f} mops/s)"
    )
    return row


def _row_key(row: dict) -> Tuple:
    return (
        row.get("protocol"),
        row.get("workload"),
        row.get("n"),
        row.get("ops"),
    )


def _rate(row: dict) -> str:
    """The rate a row is gated on (see the module notes)."""
    return "deliveries_per_sec" if "deliveries" in row else "events_per_sec"


def annotate_previous(rows: List[dict], previous: dict) -> Optional[dict]:
    """Fold an older artifact's numbers in as the pre-refactor column."""
    old_rows: Dict[Tuple, dict] = {
        _row_key(row): row for row in previous.get("results", [])
    }
    headline = None
    for row in rows:
        old = old_rows.get(_row_key(row))
        rate = _rate(row)
        if old is None or rate not in old:
            continue
        row[f"pre_refactor_{rate}"] = old[rate]
        row["speedup"] = round(row[rate] / old[rate], 2)
        if "history_hash" in old and "history_hash" in row:
            row["history_hash_unchanged"] = (
                old["history_hash"] == row["history_hash"]
            )
        if row.get("n") == 1000 and row.get("protocol") == "msc":
            headline = {
                "row": "msc/zipfian n=1000",
                rate: row[rate],
                f"pre_refactor_{rate}": old[rate],
                "speedup": row["speedup"],
            }
    return headline


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_sim")
    parser.add_argument(
        "out", nargs="?", default=str(OUTPUT),
        help=f"output path (default: {OUTPUT})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset: small rows only, no headline tier",
    )
    parser.add_argument(
        "--previous", default=None,
        help=(
            "older BENCH_sim artifact to fold in as the "
            "pre-refactor before/after column"
        ),
    )
    args = parser.parse_args(argv)
    out = Path(args.out)

    if args.quick:
        kernel_cases: Sequence = QUICK_KERNEL_CASES
        protocol_cases: Sequence = QUICK_PROTOCOL_CASES
    else:
        kernel_cases = FULL_KERNEL_CASES
        protocol_cases = FULL_PROTOCOL_CASES

    rows = run_kernel_cases(kernel_cases)
    rows.extend(run_protocol_cases(protocol_cases))
    if not args.quick:
        rows.append(run_histgen_case())

    payload = {
        "generated_by": "python -m benchmarks.bench_sim"
        + (" --quick" if args.quick else ""),
        "profile": "quick" if args.quick else "full",
        "workload": (
            "registry clusters under UniformLatency(0.5, 1.5); "
            "kernel self-schedule microbench; ROADMAP-scale histgen"
        ),
        "results": rows,
    }
    if args.previous:
        previous = json.loads(Path(args.previous).read_text())
        headline = annotate_previous(rows, previous)
        payload["pre_refactor"] = {
            "description": (
                "rows of the artifact passed as --previous: this "
                "script's output on the code before the change"
            ),
            "source_profile": previous.get("profile", "full"),
            "headline": headline,
        }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
