"""Committed artifacts derived from a run: pins, results, README table.

``python -m benchmarks.e2e --trace --regen`` rewrites, from one real
run on the pinned seed: ``pins.json`` (exact per-item values),
``RESULTS.json`` (the latest numbers), ``BENCHMARK.json`` (from the
declarations in :mod:`benchmarks.e2e.metrics`) and the generated
"where does the time go" table in ``README.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from benchmarks.e2e import ROOT
from benchmarks.e2e import metrics as M
from benchmarks.e2e.workloads import WORKLOADS

HERE = ROOT / "benchmarks" / "e2e"
BEGIN = "<!-- where-does-the-time-go:begin (generated, do not edit) -->"
END = "<!-- where-does-the-time-go:end -->"
#: Layers below this share of every workload are folded into "other".
MIN_SHARE = 0.005


def where_table(document: Dict[str, Any]) -> str:
    """Layer self-time share per workload, from the traced pass."""
    shares: Dict[str, Dict[str, float]] = {}
    for name, summary in document["workloads"].items():
        times = dict(summary.get("self_times", {}))
        total = sum(times.values())
        if total:
            # The item root's own time is the benchmark's loop.
            times["(benchmark loop)"] = times.pop("item", 0.0)
            shares[name] = {k: v / total for k, v in times.items()}
    layers = sorted(
        {
            layer for row in shares.values() for layer, share in row.items()
            if share >= MIN_SHARE
        },
        key=lambda layer: -max(row.get(layer, 0) for row in shares.values()),
    )
    names = list(shares)
    lines = [
        "| layer (span self time) | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in layers:
        cells = [
            f"{shares[n][layer]:.1%}" if shares[n].get(layer) else "-"
            for n in names
        ]
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def regenerate(
    document: Dict[str, Any], summaries: Dict[str, Any], run_seconds: int
) -> None:
    (HERE / "pins.json").write_text(
        json.dumps(
            {name: s["exact_by_item"] for name, s in summaries.items()},
            indent=1, sort_keys=True,
        )
        + "\n",
        "utf-8",
    )
    # BENCHMARK.json may carry names, units and bounds only; what each
    # layer metric is predicted to move is committed here instead.
    predictions = {
        m.name: {"should_move": m.moves, "on": m.on} for m in M.PER_LAYER
    }
    (HERE / "RESULTS.json").write_text(
        json.dumps(
            dict(document, per_layer_predictions=predictions),
            indent=1, sort_keys=True,
        )
        + "\n",
        "utf-8",
    )
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(M.manifest(WORKLOADS, run_seconds), indent=2) + "\n", "utf-8"
    )
    readme = HERE / "README.md"
    text = readme.read_text("utf-8")
    head, rest = text.split(BEGIN, 1)
    _old, tail = rest.split(END, 1)
    readme.write_text(
        f"{head}{BEGIN}\n{where_table(document)}\n{END}{tail}", "utf-8"
    )
