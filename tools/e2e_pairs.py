#!/usr/bin/env python3
"""Alternated parent/change pairs of one ``benchmarks/e2e`` workload.

The measurement every perf PR owes (ROADMAP house rules, the
choosing-metrics guide section 8): check the parent revision out beside
this tree, ``compileall`` both (the shell may export
``PYTHONDONTWRITEBYTECODE``, and a tree without ``.pyc`` files pays
~0.15 s of ``setup_s`` per child process), then run
``benchmarks/e2e/run.py`` — unmodified, each side from its own tree —
``PAIRS`` times per side, alternating which side goes first.  Prints
every run, then per end-to-end metric of ``BENCHMARK.json`` both
medians, both inter-quartile ranges, in how many pairs the change
read better (ties count for neither side) and a verdict by the rule of
that section 8: ``gain`` when the change won at least nine tenths of
the pairs and its median moved the better way by more than the
parent's inter-quartile range, ``worse`` when its median is worse than
the parent's by more than the metric's ``bound`` in ``BENCHMARK.json``
(a fraction of the parent's median), else ``unresolved``.

It ends with one ``--trace 1`` run per side and prints every
``per_layer`` metric counted in ``count``, ``msgs`` or ``vt`` units
whose value differs between the two — or ``all equal``: the check that
a change which claims not to move the simulated system did not.

    make e2e-pairs PARENT=a94fd46 WORKLOAD=fanout-msc SEED=1 PAIRS=10

The parent tree is a ``git archive`` export under ``$TMPDIR`` (removed
afterwards), so the repository's own git state is not touched.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent


def export_parent(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


#: ``per_layer`` units that count what the simulated system did.
COUNTED_UNITS = ("count", "msgs", "vt")


def run_once(
    tree: Path, args: argparse.Namespace, trace: int = 0
) -> Dict[str, object]:
    """One ``run.py`` invocation in ``tree``; its closing JSON line."""
    out = subprocess.run(
        [
            sys.executable,
            "benchmarks/e2e/run.py",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
        ],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: List[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(
    spec: Dict[str, object], parent: List[float], change: List[float]
) -> str:
    """``gain``, ``worse`` or ``unresolved`` for one end-to-end metric
    over alternated pairs (see the module notes)."""
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = statistics.quantiles(
        parent, n=4, method="inclusive"
    )
    moved = sign * (statistics.median(change) - parent_median)
    if wins >= 0.9 * len(parent) and moved > q3 - q1:
        return "gain"
    if -moved > spec["bound"] * abs(parent_median):
        return "worse"
    return "unresolved"


def moved_counts(
    benchmark: Dict[str, object],
    parent: Dict[str, object],
    change: Dict[str, object],
) -> Dict[str, tuple]:
    """Every ``per_layer`` metric in :data:`COUNTED_UNITS` whose value
    differs between two runs: name -> (parent value, change value)."""
    moved = {}
    for spec in benchmark["per_layer"]:
        if spec["unit"] in COUNTED_UNITS:
            name = spec["name"]
            values = tuple(
                run["metrics"].get(name, {}).get("value")
                for run in (parent, change)
            )
            if values[0] != values[1]:
                moved[name] = values
    return moved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    try:
        export_parent(args.parent, scratch)
        trees = {"parent": scratch, "change": REPO}
        for tree in trees.values():
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
                cwd=tree,
                check=True,
            )
        runs: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args)
                runs[side].append(result)
                values = {
                    name: round(metric["value"], 4)
                    for name, metric in result["metrics"].items()
                }
                print(
                    f"pair {pair + 1:2d} {side:6s} correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']} {values}",
                    flush=True,
                )
        traced = {side: run_once(tree, args, trace=1) for side, tree in trees.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(
        f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, parent "
        f"{args.parent}: median [q1, q3], wins = pairs the change read better, "
        "verdict"
    )
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        print(
            f"  {name:24s} parent {quartiles(parent):32s} "
            f"change {quartiles(change):32s} wins {wins} losses {losses} "
            f"({spec['better']} is better, {spec['unit']}) "
            f"{verdict(spec, parent, change)}"
        )
    moved = moved_counts(benchmark, traced["parent"], traced["change"])
    print(
        "\none --trace 1 run per side, per-layer metrics in "
        f"{'/'.join(COUNTED_UNITS)} units:"
    )
    for name, (parent, change) in moved.items():
        print(f"  {name:40s} parent {parent} change {change}")
    print(f"  {len(moved)} differ" if moved else "  all equal")
    ok = all(
        run["correct"] and not run["failed"]
        for side in [*runs.values(), list(traced.values())]
        for run in side
    )
    print("all runs correct, none failed" if ok else "SOME RUNS INCORRECT OR FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
