"""Partition-chaos sweep benchmark → BENCH_chaos.json.

``python -m benchmarks.bench_chaos`` (part of ``make bench-json``)
runs the quorum-aware partition sweep for each partition-tolerant
protocol over a fixed seed range and records, per seed, the
wall-clock runtime of the whole fault-injected run and the failure
detector's accuracy counters — most importantly the **false-suspect
rate**, the fraction of suspicions raised against a process that was
actually up and reachable (pure latency mistakes the ◇P adaptation
has to absorb).  The artifact makes two things visible in one file:

* how expensive partition chaos is (runtime per seed and in total),
  so regressions in the sequencer's partition path show up as a
  wall-clock jump; and
* how *accurate* the detector is under each seeded schedule, so a
  timeout/period retune that trades accuracy for speed is caught.

Every run here must pass — a failing seed aborts the benchmark with
a non-zero exit, because numbers measured on a broken run are noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.runtime import FaultSpec, RunSpec, execute

#: (protocol, seed count, ops per process) for the full artifact.
SWEEPS = [
    ("msc", 10, 10),
    ("mlin", 10, 10),
]

#: CI smoke subset (``--quick``).
QUICK_SWEEPS = [
    ("msc", 3, 8),
]

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def run_sweep(protocol: str, seeds: int, ops: int) -> dict:
    rows: List[dict] = []
    for seed in range(seeds):
        started = time.perf_counter()
        artifact = execute(
            RunSpec(
                protocol=protocol,
                n=4,
                ops=ops,
                seed=seed,
                faults=FaultSpec(seed=seed, partition=True),
            )
        )
        wall = time.perf_counter() - started
        if not artifact.ok:
            raise SystemExit(
                f"benchmark run failed ({protocol}, seed {seed}): "
                f"{artifact.summary()}"
            )
        detector = artifact.chaos.detector
        rows.append(
            {
                "seed": seed,
                "wall_s": round(wall, 4),
                "virtual_duration": round(artifact.duration, 2),
                "suspicions": detector.get("suspicions", 0),
                "false_suspicions": detector.get("false_suspicions", 0),
                "false_suspect_rate": round(
                    detector.get("false_suspect_rate", 0.0), 4
                ),
                "failovers": len(artifact.chaos.failovers),
                "degraded_incidents": len(artifact.chaos.degraded),
            }
        )
    walls = [r["wall_s"] for r in rows]
    rates = [r["false_suspect_rate"] for r in rows]
    return {
        "protocol": protocol,
        "seeds": seeds,
        "ops_per_process": ops,
        "total_wall_s": round(sum(walls), 4),
        "median_wall_s": round(statistics.median(walls), 4),
        "mean_false_suspect_rate": round(
            sum(rates) / len(rates), 4
        ),
        "per_seed": rows,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.bench_chaos")
    parser.add_argument(
        "out",
        nargs="?",
        default=str(OUTPUT),
        help="destination JSON path (default: BENCH_chaos.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: one protocol, fewer seeds",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    sweeps = [
        run_sweep(protocol, seeds, ops)
        for protocol, seeds, ops in (
            QUICK_SWEEPS if args.quick else SWEEPS
        )
    ]
    payload = {
        "generated_by": "python -m benchmarks.bench_chaos",
        "workload": (
            "execute(RunSpec(protocol, n=4, seed=s, faults=FaultSpec("
            "seed=s, partition=True))) — "
            "FaultPlan.random_partition schedules (one healing "
            "majority/minority split per seed plus background "
            "drops/duplicates), quorum-aware degradation enabled"
        ),
        "sweeps": sweeps,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for sweep in sweeps:
        print(
            f"{sweep['protocol']:<6} seeds={sweep['seeds']} "
            f"total={sweep['total_wall_s']:.2f}s "
            f"median={sweep['median_wall_s']:.3f}s "
            f"false-suspect-rate={sweep['mean_false_suspect_rate']}"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
