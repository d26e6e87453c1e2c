"""Wall-clock medians for the consistency checkers → BENCH_checkers.json.

``python -m benchmarks.bench_checkers`` (or ``make bench-json``) times
the constrained polynomial-time checkers (Theorem 7 path) for each
condition and history size on the shared performance-guard workload,
and writes the medians to ``BENCH_checkers.json`` at the repository
root.  The JSON also records the pre-index baseline for the 300-mop
m-SC guard so the speedup from the shared :class:`HistoryIndex` layer
is visible in one artifact.

Every history is regenerated per sample so the cached index never
carries over between runs; what is timed is the full check — index
construction, cover edges, the forward legality scan (which finds
the ``~ww`` chain itself) and witness extraction.

The artifact also records the **static-certificate** comparison: the
same constrained check run with a
:class:`~repro.analysis.static.prover.ConstraintCertificate`, whose
O(n) audit hands the scan its chain (see
``docs/static_analysis.md``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from benchmarks.conftest import (
    checker_workload,
    timed_samples,
    violated_workload,
)
from repro.core import check_condition

#: (condition, n_mops, twin, timing runs).  The 1000-mop case was
#: impractical before the index layer (the O(n²) order construction
#: alone dominated); it now completes in seconds, so it is part of the
#: routine artifact.  ``twin`` rewires one read of the history
#: (``conftest.violated_workload``) so the violated verdicts have a
#: committed number too: a ``"stale"`` twin ends in the legality test,
#: a ``"future"`` twin in the scan's cycle (then the closure's OO test:
#: a cyclic pass never sees the whole ``~ww`` chain).
CASES = [
    ("m-sc", 100, None, 5),
    ("m-sc", 300, None, 5),
    ("m-sc", 1000, None, 3),
    ("m-sc", 1000, "stale", 3),
    ("m-sc", 1000, "future", 3),
    ("m-lin", 100, None, 5),
    ("m-lin", 300, None, 5),
    ("m-norm", 100, None, 5),
    ("m-norm", 300, None, 5),
]

#: The CI smoke subset (``--quick``): one small and one medium case
#: per condition family, two runs each — enough to prove the bench
#: pipeline produces a well-formed artifact without burning minutes.
QUICK_CASES = [
    ("m-sc", 100, None, 2),
    ("m-sc", 300, None, 2),
    ("m-sc", 300, "future", 2),
    ("m-lin", 100, None, 2),
    ("m-norm", 100, None, 2),
]

#: (condition, n_mops, method, runs) rows for the certified forward
#: legality scan (:mod:`repro.core.plan`).  ``full`` and ``windowed``
#: run it over the shared serial workload's total-update-order
#: certificate (the latter with a bounded lookback);
#: ``full/partitioned`` runs it over the object-partitioned workload's
#: per-process chains.  The 100k rows
#: are the headline: a certified 100k-mop history checks end-to-end in
#: a couple of seconds.
ENGINE_CASES = [
    ("m-sc", 10_000, "full", 3),
    ("m-sc", 10_000, "full/partitioned", 3),
    ("m-sc", 10_000, "windowed", 3),
    ("m-norm", 10_000, "full", 2),
    ("m-sc", 100_000, "full", 2),
    ("m-sc", 100_000, "full/partitioned", 2),
    ("m-sc", 100_000, "windowed", 2),
]

#: The CI smoke subset for the engine: every row kind exercised at a
#: size that finishes in well under a second.
QUICK_ENGINE_CASES = [
    ("m-sc", 300, "full", 2),
    ("m-sc", 300, "full/partitioned", 2),
    ("m-sc", 300, "windowed", 2),
]

#: (condition, n_mops, runs) pairs for the certified-vs-uncertified
#: comparison.  The certificate is built (and its
#: chain bound) outside the timed region: proving is a one-off static
#: cost, the per-check saving is what the artifact measures.
CERTIFICATE_CASES = [
    ("m-sc", 300, 5),
    ("m-sc", 1000, 3),
]

QUICK_CERTIFICATE_CASES = [
    ("m-sc", 300, 2),
]

#: Median of the same 300-mop m-SC constrained check on the
#: implementation before the shared history-index layer (commit
#: e60816e), measured on the same machine class as the current
#: numbers.  Kept static on purpose: it is the "before" in
#: before/after.
BASELINE_MSC_300_SECONDS = 0.147

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_checkers.json"


def run_cases(
    cases: Sequence[Tuple[str, int, Optional[str], int]] = CASES
) -> List[dict]:
    rows: List[dict] = []
    for condition, n_mops, twin, runs in cases:
        def make(condition=condition, n_mops=n_mops, twin=twin):
            if twin is None:
                history, ww = checker_workload(n_mops)
            else:
                history, ww = violated_workload(n_mops, twin)
            return lambda: check_condition(
                history, condition, method="constrained", extra_pairs=ww
            )

        samples, verdict = timed_samples(make, runs)
        assert verdict.holds == (twin is None)
        rows.append(
            {
                "condition": condition,
                "n_mops": n_mops,
                "method": f"constrained/{twin}-twin" if twin else "constrained",
                "runs": runs,
                "median_s": round(statistics.median(samples), 4),
                "min_s": round(min(samples), 4),
                "holds": bool(verdict.holds),
            }
        )
    return rows


def run_engine_cases(
    cases: Sequence[Tuple[str, int, str, int]] = ENGINE_CASES
) -> List[dict]:
    """Certified scan rows: the forward legality scan on each workload.

    Certificates are built outside the timed region (proving is a
    one-off static cost).  The scan always builds the witness, so the
    Lemma 3/4 self-check and the witness order are part of what is
    timed.
    ``windowed`` runs with ``window = min(1000, n_mops)``: large
    enough that the serial workload's recent-read pattern never
    refuses, small enough to demonstrate bounded state.
    """
    from benchmarks.conftest import partitioned_workload
    from repro.analysis.static.prover import certify_chain

    rows: List[dict] = []
    for condition, n_mops, method, runs in cases:
        window = min(1000, n_mops) if method == "windowed" else None

        def make(
            condition=condition,
            n_mops=n_mops,
            method=method,
            window=window,
        ):
            if method == "full/partitioned":
                # The object-partitioned certificate alone carries the
                # constraint: no ~ww chain to pass.
                history, cert = partitioned_workload(n_mops)
                ww = []
            else:
                history, ww = checker_workload(n_mops)
                chain = [m.uid for m in history.mops if m.is_update]
                cert = certify_chain(history, chain)
            return lambda: check_condition(
                history,
                condition,
                method="constrained",
                extra_pairs=ww,
                certificate=cert,
                window=window,
            )

        samples, verdict = timed_samples(make, runs)
        rows.append(
            {
                "condition": condition,
                "n_mops": n_mops,
                "method": method,
                "window": window,
                "runs": runs,
                "median_s": round(statistics.median(samples), 4),
                "min_s": round(min(samples), 4),
                "holds": bool(verdict.holds),
            }
        )
    return rows


def run_certificate_cases(
    cases: Sequence[Tuple[str, int, int]] = CERTIFICATE_CASES
) -> List[dict]:
    """Uncertified scan (it finds its own chain, WW) vs. the
    certificate's audit plus the scan along its chain."""
    from repro.analysis.static.prover import certify_chain

    rows: List[dict] = []
    for condition, n_mops, runs in cases:
        def make_uncertified(condition=condition, n_mops=n_mops):
            history, ww = checker_workload(n_mops)
            return lambda: check_condition(
                history, condition, method="constrained", extra_pairs=ww
            )

        def make_certified(condition=condition, n_mops=n_mops):
            history, ww = checker_workload(n_mops)
            chain = [m.uid for m in history.mops if m.is_update]
            cert = certify_chain(history, chain)
            return lambda: check_condition(
                history,
                condition,
                method="constrained",
                extra_pairs=ww,
                certificate=cert,
            )

        uncertified_samples, uncertified_verdict = timed_samples(
            make_uncertified, runs
        )
        certified_samples, certified_verdict = timed_samples(
            make_certified, runs
        )
        assert uncertified_verdict.holds == certified_verdict.holds
        assert certified_verdict.certificate == "total-update-order"
        uncertified_median = statistics.median(uncertified_samples)
        certified_median = statistics.median(certified_samples)
        uncertified_phase = _phase_time(make_uncertified(), "check.scan")
        certified_phase = _phase_time(
            make_certified(), "check.certificate", "check.scan"
        )
        rows.append(
            {
                "condition": condition,
                "n_mops": n_mops,
                "runs": runs,
                "uncertified_median_s": round(uncertified_median, 4),
                "certified_median_s": round(certified_median, 4),
                "certified_speedup": round(
                    uncertified_median / certified_median, 2
                ),
                "uncertified_scan_s": round(uncertified_phase, 4),
                "certified_audit_scan_s": round(certified_phase, 4),
                "phase_speedup": round(
                    uncertified_phase / certified_phase, 2
                )
                if certified_phase
                else None,
                "holds": bool(certified_verdict.holds),
            }
        )
    return rows


def _phase_time(fn, *span_names: str) -> float:
    """Wall-clock of checker phases, read off their tracer spans.

    End-to-end medians hide the phases behind the index and order
    construction, so the artifact also records them: the uncertified
    ``check.scan`` (which finds its own chain) vs. the certified
    ``check.certificate`` audit plus ``check.scan``.
    """
    from repro.obs import Tracer, install_tracer, uninstall_tracer

    tracer = Tracer()
    install_tracer(tracer)
    try:
        fn()
    finally:
        uninstall_tracer()
    return sum(
        r["dur"] for r in tracer.records() if r["name"] in span_names
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.bench_checkers")
    parser.add_argument(
        "out",
        nargs="?",
        default=str(OUTPUT),
        help="destination JSON path (default: BENCH_checkers.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: fewer cases and runs",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    rows = run_cases(QUICK_CASES if args.quick else CASES)
    engine_rows = run_engine_cases(
        QUICK_ENGINE_CASES if args.quick else ENGINE_CASES
    )
    certificate_rows = run_certificate_cases(
        QUICK_CERTIFICATE_CASES if args.quick else CERTIFICATE_CASES
    )
    msc_300 = next(
        r
        for r in rows
        if (r["condition"], r["n_mops"], r["method"])
        == ("m-sc", 300, "constrained")
    )
    payload = {
        "generated_by": "python -m benchmarks.bench_checkers",
        "workload": (
            "random_serial_history(HistoryShape(n_processes=5, "
            "n_objects=4, n_mops=N, query_fraction=0.4), seed=3) "
            "with the total ww update chain as extra_pairs"
        ),
        "results": rows + engine_rows,
        "engine": {
            "description": (
                "certified forward legality scan "
                "(repro.core.plan), one scan per "
                "row: method full = the serial workload's ~ww chain, "
                "full/partitioned = the object-partitioned workload's "
                "per-process chains (benchmarks.conftest."
                "partitioned_workload), windowed = the serial scan "
                "with window=min(1000, n); the Lemma 3/4 "
                "self-check and witness order are included in every "
                "row"
            ),
            "results": engine_rows,
        },
        "certificates": {
            "description": (
                "constrained check without a certificate (the scan "
                "finds its own update chain and sees WW; no closure) "
                "vs. the same check consuming a static "
                "total-update-order certificate: the uncertified "
                "check.scan span vs. the certified check.certificate "
                "audit + check.scan (docs/static_analysis.md)"
            ),
            "results": certificate_rows,
        },
        "baseline": {
            "description": (
                "pre-index implementation (commit e60816e), "
                "m-sc / 300 mops / constrained"
            ),
            "median_s": BASELINE_MSC_300_SECONDS,
            "speedup_vs_baseline": round(
                BASELINE_MSC_300_SECONDS / msc_300["median_s"], 2
            ),
        },
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for row in rows:
        print(
            f"{row['condition']:<7} n={row['n_mops']:<5} "
            f"[{row['method']}] "
            f"median={row['median_s']:.4f}s holds={row['holds']}"
        )
    for row in engine_rows:
        extras = ""
        if row["window"] is not None:
            extras = f" window={row['window']}"
        print(
            f"{row['condition']:<7} n={row['n_mops']:<6} "
            f"[{row['method']}{extras}] "
            f"median={row['median_s']:.4f}s holds={row['holds']}"
        )
    print(
        f"m-sc/300 speedup vs pre-index baseline: "
        f"{payload['baseline']['speedup_vs_baseline']}x"
    )
    for row in certificate_rows:
        print(
            f"{row['condition']} n={row['n_mops']}: certified "
            f"{row['certified_median_s']:.4f}s vs uncertified "
            f"{row['uncertified_median_s']:.4f}s; uncertified scan "
            f"{row['uncertified_scan_s']:.4f}s -> audit + scan "
            f"{row['certified_audit_scan_s']:.4f}s "
            f"({row['phase_speedup']}x)"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
