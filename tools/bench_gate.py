"""Benchmark regression gate over BENCH_* artifacts.

``python tools/bench_gate.py FRESH.json --baseline BASELINE.json``
compares a freshly produced benchmark artifact against its committed
baseline, row by row.  Three row schemas are understood, auto-detected
per row:

* **checker rows** (``BENCH_checkers.json``), keyed by ``(condition,
  n_mops, method)`` — the "method" column names what the row ran
  (the dynamic ``constrained`` checker, or the certified scan as
  ``full``, ``full/partitioned`` or ``windowed``) and is compared as
  an opaque label; the gate fails when a shared
  row's ``median_s`` regresses by more than ``--factor``;
* **serve rows** (``BENCH_serve.json``, rows carrying ``p50_s``),
  keyed by ``(profile, clients)`` — the gate fails when the median
  submission latency (``p50_s``) regresses by more than ``--factor``
  *or* sustained throughput (``specs_per_sec``) collapses below
  ``1/factor`` of the baseline;
* **sim rows** (``BENCH_sim.json``, rows carrying ``events_per_sec``),
  keyed by ``(protocol, workload, n, ops)`` — the gate fails when
  simulation throughput collapses below ``1/factor`` of the baseline
  (throughput-gated rather than wall-clock-gated, so quick-profile
  artifacts with different run counts still compare).

The default factor (2x) absorbs CI machine-class noise while still
catching complexity-class slips.  Rows present in only one artifact
are reported but never fail the gate: new benchmark sizes land before
their baselines do, and retired sizes linger in old baselines.
Sub-millisecond time baselines are skipped outright — at that scale
the medians are dominated by timer and allocator jitter, not by the
code under test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Baseline medians below this are too noisy to gate on.
MIN_GATED_SECONDS = 0.001

Key = Tuple


def _key(row: dict) -> Key:
    if "p50_s" in row:
        return ("serve", str(row.get("profile", "full")),
                int(row.get("clients", 0)))
    if "events_per_sec" in row:
        return ("sim", str(row.get("protocol", "?")),
                str(row.get("workload", "?")),
                int(row.get("n", 0)), int(row.get("ops", 0)))
    return ("check", row["condition"], int(row["n_mops"]), row["method"])


def _rows(artifact: dict) -> Dict[Key, dict]:
    return {_key(row): row for row in artifact.get("results", [])}


def _label(key: Key) -> str:
    return "/".join(str(part) for part in key[1:])


def _gate_time(
    key: Key,
    fresh_row: dict,
    base_row: dict,
    metric: str,
    factor: float,
    failures: List[str],
    notes: List[str],
) -> None:
    base_value = float(base_row[metric])
    fresh_value = float(fresh_row[metric])
    if base_value < MIN_GATED_SECONDS:
        notes.append(
            f"{_label(key)} {metric}: baseline {base_value:.4f}s below "
            f"{MIN_GATED_SECONDS}s noise floor (not gated)"
        )
        return
    ratio = fresh_value / base_value
    line = (
        f"{_label(key)} {metric}: {fresh_value:.4f}s vs baseline "
        f"{base_value:.4f}s ({ratio:.2f}x)"
    )
    (failures if ratio > factor else notes).append(line)


def _gate_throughput(
    key: Key,
    fresh_row: dict,
    base_row: dict,
    factor: float,
    failures: List[str],
    notes: List[str],
) -> None:
    base_rate = float(base_row["specs_per_sec"])
    fresh_rate = float(fresh_row["specs_per_sec"])
    if base_rate <= 0:
        notes.append(
            f"{_label(key)} specs_per_sec: zero baseline (not gated)"
        )
        return
    ratio = base_rate / fresh_rate if fresh_rate else float("inf")
    line = (
        f"{_label(key)} specs_per_sec: {fresh_rate:.1f}/s vs baseline "
        f"{base_rate:.1f}/s ({ratio:.2f}x slower)"
    )
    (failures if ratio > factor else notes).append(line)


def _gate_events_throughput(
    key: Key,
    fresh_row: dict,
    base_row: dict,
    factor: float,
    failures: List[str],
    notes: List[str],
) -> None:
    base_rate = float(base_row["events_per_sec"])
    fresh_rate = float(fresh_row["events_per_sec"])
    if base_rate <= 0:
        notes.append(
            f"{_label(key)} events_per_sec: zero baseline (not gated)"
        )
        return
    ratio = base_rate / fresh_rate if fresh_rate else float("inf")
    line = (
        f"{_label(key)} events_per_sec: {fresh_rate:.1f}/s vs baseline "
        f"{base_rate:.1f}/s ({ratio:.2f}x slower)"
    )
    (failures if ratio > factor else notes).append(line)


def gate(
    fresh: dict, baseline: dict, *, factor: float = 2.0
) -> Tuple[List[str], List[str]]:
    """Compare artifacts; returns (failures, notes)."""
    fresh_rows = _rows(fresh)
    base_rows = _rows(baseline)
    failures: List[str] = []
    notes: List[str] = []
    for key in sorted(base_rows.keys() - fresh_rows.keys()):
        notes.append(f"{_label(key)}: only in baseline (not gated)")
    for key in sorted(fresh_rows.keys() - base_rows.keys()):
        notes.append(f"{_label(key)}: new row, no baseline (not gated)")
    for key in sorted(fresh_rows.keys() & base_rows.keys()):
        fresh_row, base_row = fresh_rows[key], base_rows[key]
        if key[0] == "serve":
            _gate_time(
                key, fresh_row, base_row, "p50_s", factor,
                failures, notes,
            )
            _gate_throughput(
                key, fresh_row, base_row, factor, failures, notes
            )
        elif key[0] == "sim":
            _gate_events_throughput(
                key, fresh_row, base_row, factor, failures, notes
            )
        else:
            _gate_time(
                key, fresh_row, base_row, "median_s", factor,
                failures, notes,
            )
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_gate")
    parser.add_argument("fresh", help="freshly produced artifact JSON")
    parser.add_argument(
        "--baseline",
        default=str(
            Path(__file__).resolve().parent.parent
            / "BENCH_checkers.json"
        ),
        help="committed baseline artifact (default: repo root copy)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated median ratio fresh/baseline",
    )
    args = parser.parse_args(argv)
    try:
        fresh = json.loads(Path(args.fresh).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures, notes = gate(fresh, baseline, factor=args.factor)
    for line in notes:
        print(line)
    for line in failures:
        print(f"REGRESSION {line}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} row(s) failed the {args.factor}x gate "
            "against the committed baseline",
            file=sys.stderr,
        )
        return 1
    print(f"bench gate ok ({len(notes)} row(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
