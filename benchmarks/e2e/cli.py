"""Command line, pass scheduling, aggregation and output.

Two shapes of invocation share one code path:

* ``python -m benchmarks.e2e [--seed N] [--trace] [--smoke]`` runs all
  six workloads (passes interleaved), prints every metric by name with
  its unit and writes one result file;
* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` is the harness contract of ``BENCHMARK.json``: one
  workload, and the last stdout line is one JSON object.

Exit status is 0 only when every item gave its expected verdict, exact
metrics agreed across passes (and with ``pins.json`` on the pinned
seed) and the differential gate passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import ROOT
from benchmarks.e2e import metrics as M
from benchmarks.e2e import report
from benchmarks.e2e.gate import run_gate
from benchmarks.e2e.worker import WORK, run_pass
from benchmarks.e2e.workloads import WORKLOADS, Workload, get

HERE = ROOT / "benchmarks" / "e2e"
PINS = HERE / "pins.json"
#: Pins are recorded for this seed; later claims must also hold on a
#: seed not used while developing (README: hold-out convention).
DEFAULT_SEED = 1
#: The value in BENCHMARK.json; also the default outside the harness.
RUN_SECONDS = 10
#: A child that overruns this is killed with its whole process group.
CHILD_TIMEOUT_S = 170

Result = Dict[str, Any]


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

def _spawn(job: Dict[str, Any]) -> Result:
    """Run one pass in a fresh interpreter and return its result."""
    job = dict(job, spawned_at=time.time())
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(job)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        # Own process group: a timeout takes the serve daemon down too.
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(
            f"{job['workload']} pass exited with {child.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def child_main(payload: str) -> int:
    print(json.dumps(run_pass(json.loads(payload))))
    return 0


def run_set(
    selected: Sequence[Workload],
    seed: int,
    seconds: float,
    *,
    trace: bool,
    measure: bool,
    smoke: bool,
) -> Dict[str, List[Result]]:
    """All passes of ``selected``, interleaved across workloads.

    With ``measure`` every workload gets its untraced passes; with
    ``trace`` one traced pass follows, compared against an untraced
    one for the tracing overhead (``measure=False`` runs exactly that
    pair, splitting the time budget between them).
    """
    WORK.mkdir(exist_ok=True)

    def untraced_passes(workload: Workload) -> int:
        return workload.passes if measure and not smoke else 1

    def budget(workload: Workload) -> float:
        return seconds / (untraced_passes(workload) + (not measure))

    plan: List[Dict[str, Any]] = []
    for index in range(max(untraced_passes(w) for w in selected)):
        for workload in selected:
            if index < untraced_passes(workload):
                plan.append(
                    {
                        "workload": workload.name, "seed": seed,
                        "smoke": smoke, "traced": False,
                        "budget_s": budget(workload),
                    }
                )
    if trace:
        for workload in selected:
            plan.append(
                {
                    "workload": workload.name, "seed": seed, "smoke": smoke,
                    "traced": True, "budget_s": budget(workload),
                    "spans_path": str(WORK / f"spans-{workload.name}.jsonl"),
                }
            )
    results: Dict[str, List[Result]] = {w.name: [] for w in selected}
    for job in plan:
        results[job["workload"]].append(_spawn(job))
    return results


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _item_medians(passes: List[Result], key: str = "wall_s") -> Dict[str, float]:
    by_item: Dict[str, List[float]] = {}
    for result in passes:
        for sample in result["samples"]:
            by_item.setdefault(sample["item"], []).append(sample[key])
    return {item: statistics.median(walls) for item, walls in by_item.items()}


def _median_exact(passes: List[Result], key: str) -> Optional[float]:
    values = {
        s["item"]: s["exact"].get(key)
        for s in passes[0]["samples"][: passes[0]["per_cycle"]]
    }
    present = [v for v in values.values() if v is not None]
    return statistics.median(present) if present else None


def summarize(
    workload: Workload, passes: List[Result], pins: Optional[Dict[str, Any]]
) -> Result:
    """One workload's metrics and correctness findings."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples = [s for p in passes for s in p["samples"]]
    errors: List[str] = []

    # Exact values must repeat across every cycle and pass, and match
    # the pins recorded for the pinned seed.
    seen: Dict[str, Dict[str, Any]] = {}
    for sample in samples:
        if sample["failed"]:
            continue
        pin = sample.get("pin", sample["item"])
        first = seen.setdefault(pin, sample["exact"])
        if first != sample["exact"]:
            errors.append(
                f"{pin}: exact values differ between runs: "
                f"{first} vs {sample['exact']}"
            )
    if pins is not None:
        for item, exact in seen.items():
            if item not in pins:
                errors.append(f"{item}: no pin recorded")
            elif pins[item] != exact:
                errors.append(
                    f"{item}: differs from pins.json: {pins[item]} vs {exact}"
                )
    failures = [s for s in samples if s["failed"]]
    for sample in failures[:5]:
        errors.append(f"{sample['item']}: {sample['failed']}")

    # Host-time figures are at reference host speed (calib.py); the
    # raw clock readings ride along for the record.
    e2e: Dict[str, float] = {}
    host: Dict[str, float] = {}
    if untraced:
        host = {
            "host_speed": statistics.median(p["host_speed"] for p in untraced),
            "raw_verdict_latency_p50_s": statistics.median(
                _item_medians(untraced, "raw_wall_s").values()
            ),
            "raw_setup_s": statistics.median(
                p["raw_setup_s"] for p in untraced
            ),
        }
        medians = list(_item_medians(untraced).values())
        mops = [sum(s["mops"] for s in p["samples"]) for p in untraced]
        e2e["verdict_latency_p50_s"] = statistics.median(medians)
        e2e["verdict_latency_p95_s"] = _quantile(medians, 0.95)
        e2e["mops_per_s"] = statistics.median(
            m / p["wall_s"] for m, p in zip(mops, untraced)
        )
        e2e["cpu_ms_per_mop"] = statistics.median(
            1000.0 * p["cpu_s"] / max(m, 1) for m, p in zip(mops, untraced)
        )
        e2e["peak_rss_mb"] = statistics.median(
            p["peak_rss_mb"] for p in untraced
        )
        e2e["setup_s"] = statistics.median(p["setup_s"] for p in untraced)
    e2e["failed_frac"] = len(failures) / max(len(samples), 1)
    first = passes[0]["samples"][: passes[0]["per_cycle"]]
    sent = sum(s["exact"].get("sent") or 0 for s in first)
    done = sum(s["mops"] for s in first)
    exact_values = {
        "sim_query_rt_p50_t": _median_exact(passes, "query_rt_p50"),
        "sim_update_rt_p50_t": _median_exact(passes, "update_rt_p50"),
        "msgs_per_mop": sent / done if done else None,
        "sim_max_stall_t": _median_exact(passes, "max_stall"),
    }
    e2e.update({k: v for k, v in exact_values.items() if v is not None})
    e2e = {
        m.name: e2e[m.name]
        for m in M.END_TO_END
        if M.applies(m, workload.name) and m.name in e2e
    }

    layers: Dict[str, float] = {}
    self_times: Dict[str, float] = {}
    if traced:
        layers = dict(traced[0]["layers"])
        self_times = traced[0]["self_times"]
        baseline = _item_medians(untraced)
        traced_wall = {
            s["item"]: s["wall_s"]
            for s in traced[0]["samples"] if s["program_tracer"]
        }
        shared = [i for i in traced_wall if i in baseline]
        base = sum(baseline[i] for i in shared)
        layers["obs.trace_overhead_frac"] = (
            (sum(traced_wall[i] for i in shared) - base) / base if base else 0.0
        )
        if workload.kind == "sim" and not layers.get("sim.run_s"):
            errors.append("traced pass recorded no sim.run span: a tap is stale")
    return {
        "workload": workload.name,
        "why": workload.why,
        "end_to_end": e2e,
        "host": host,
        "per_layer": layers,
        "self_times": self_times,
        "samples": len([s for p in untraced for s in p["samples"]]),
        "items": passes[0]["per_cycle"],
        "cycles": [p["cycles"] for p in passes],
        "attempted": len(samples),
        "failed": len(failures),
        "errors": errors,
        "exact_by_item": seen,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def print_summary(summary: Result) -> None:
    print(f"\n== {summary['workload']} ==  {summary['why']}")
    print(
        f"   items/cycle={summary['items']} cycles/pass={summary['cycles']} "
        f"latency samples={summary['samples']}  latency model: uniform(0.5, 1.5)"
    )
    host = summary["host"]
    if host:
        print(
            f"   host speed {host['host_speed']:.2f} of reference; raw clock: "
            f"p50 {host['raw_verdict_latency_p50_s']:.6g} s, "
            f"set-up {host['raw_setup_s']:.6g} s; times below are at "
            "reference speed"
        )
    for name, value in summary["end_to_end"].items():
        print(f"   {name:<44} {value:>14.6g} {M.unit_of(name)}")
    for name in sorted(summary["per_layer"]):
        value = summary["per_layer"][name]
        print(f"     {name:<42} {value:>14.6g} {M.unit_of(name) or ''}")
    for error in summary["errors"][:8]:
        print(f"   ERROR {error}")
    if len(summary["errors"]) > 8:
        print(f"   ... and {len(summary['errors']) - 8} more error(s)")


def contract_line(summary: Result, trace: bool, correct: bool) -> str:
    """The harness's one-line result for a single-workload run."""
    values = dict(summary["end_to_end"])
    values.update(summary["per_layer"])
    metrics = {
        name: {"value": values.get(name, 0), "unit": M.unit_of(name)}
        for name in sorted(M.contract_names(trace))
    }
    return json.dumps(
        {
            "correct": correct,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def run_once(
    args, selected: Sequence[Workload], measure: bool
) -> Tuple[Dict[str, Result], bool]:
    """Gate, run, summarize and print one full set."""
    compared, disagreements = run_gate(args.seed)
    print(
        f"differential gate: {compared} exact/constrained verdict pairs, "
        f"{len(disagreements)} disagreement(s)"
    )
    for line in disagreements:
        print(f"   ERROR {line}")
    pins = None
    if args.seed == DEFAULT_SEED and PINS.exists() and not args.regen:
        pins = json.loads(PINS.read_text("utf-8"))
    results = run_set(
        selected, args.seed, args.seconds,
        trace=bool(args.trace), measure=measure, smoke=args.smoke,
    )
    summaries = {
        w.name: summarize(
            w, results[w.name], pins.get(w.name, {}) if pins else None
        )
        for w in selected
    }
    for summary in summaries.values():
        print_summary(summary)
    correct = not disagreements and all(
        not s["errors"] for s in summaries.values()
    )
    return summaries, correct


def check_repeat(first: Dict[str, Result], second: Dict[str, Result]) -> bool:
    """Two sets of the same code must agree within the bounds."""
    ok = True
    print("\n== check-repeat ==")
    for name in first:
        for metric in M.END_TO_END:
            a = first[name]["end_to_end"].get(metric.name)
            b = second[name]["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            diff = abs(a - b) / abs(a) if a else abs(b)
            within = a == b if metric.exact else diff <= metric.bound
            ok &= within
            print(
                f"   {name:<16} {metric.name:<24} {a:>12.6g} {b:>12.6g} "
                f"diff={diff:>7.2%} bound={metric.bound:.0%} "
                f"{'ok' if within else 'OUT OF BOUND'}"
            )
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--workload", choices=[w.name for w in WORKLOADS],
        help="run one workload and end with the harness's JSON line",
    )
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="measured time per workload, split over its passes",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0,
        help="add a traced pass: per-layer metrics + spans JSONL",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one item per workload, one cycle (self-test scale)",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run two sets back to back and compare them to the bounds",
    )
    parser.add_argument(
        "--out", default=str(WORK / "results.json"),
        help="result file (default: .bench_e2e/results.json)",
    )
    parser.add_argument(
        "--regen", action="store_true",
        help="maintenance: rewrite pins.json, RESULTS.json, BENCHMARK.json "
        "and the README table from this run (use with --trace)",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child)

    if args.regen and (
        args.workload or args.smoke or not args.trace
        or args.seed != DEFAULT_SEED
    ):
        parser.error("--regen needs a full traced run on the pinned seed")

    selected = [get(args.workload)] if args.workload else list(WORKLOADS)
    # The harness's ``--trace 1`` run is one untraced + one traced pass;
    # everything else measures with all passes and may add a traced one.
    measure = not (args.workload and args.trace)
    if args.smoke:
        args.seconds = 0.0

    summaries, correct = run_once(args, selected, measure)
    if args.check_repeat:
        again, correct_again = run_once(args, selected, measure)
        repeats = check_repeat(summaries, again)
        correct = correct and correct_again and repeats

    document = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "correct": correct,
        "workloads": {
            name: {k: v for k, v in s.items() if k != "exact_by_item"}
            for name, s in summaries.items()
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if args.regen:
        report.regenerate(document, summaries, RUN_SECONDS)
    print(f"\nresult file: {args.out}   spans: {WORK}/spans-<workload>.jsonl")
    print("OK" if correct else "FAILED")
    if args.workload:
        print(contract_line(summaries[args.workload], bool(args.trace), correct))
    return 0 if correct else 1
