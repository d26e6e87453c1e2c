"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check FILE`` — verify a JSON history (see
  :mod:`repro.core.serialize` for the format) against the consistency
  conditions.
* ``demo`` — run a protocol on a randomized workload, verify the
  recorded execution, and print the history and metrics.
* ``figures`` — print the paper's worked examples (Figures 1-3) and
  the Figure-5/7 protocol scenarios.
* ``report`` — regenerate every experiment's numbers (same as
  ``python -m benchmarks.report``, but shipped with the library).
* ``chaos`` — run seeded fault-injection schedules (message drops,
  duplicates, latency spikes, crash-restarts, sequencer failover)
  against a protocol and verify every surviving run with the
  consistency checkers; see ``docs/fault_model.md``.
* ``trace`` — run an instrumented workload with the tracer and
  metrics registry installed, export the spans as JSONL and print a
  flame summary; see ``docs/observability.md``.
* ``run`` — execute a declarative ``RunSpec`` JSON file through the
  runtime layer and print (or save) the resulting ``RunArtifact``;
  see ``docs/architecture.md``'s Runtime layer section.
* ``serve`` — start the verification control plane: an HTTP daemon
  that executes submitted ``RunSpec`` JSON on a worker pool, caches
  verdicts by canonical spec hash, stores artifacts content-addressed
  by history hash, and exposes metrics/trace endpoints plus an HTML
  dashboard; see ``docs/serving.md``.

Protocols and workloads are resolved through :mod:`repro.runtime` —
there is no CLI-private protocol table.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import ProtocolMetrics
from repro.core import (
    CONDITIONS,
    ConstraintNotSatisfied,
    HistoryIndex,
    check_condition,
)
from repro.core.serialize import load_history
from repro.errors import (
    MissingTimestampsError,
    PlanRefused,
    ReproError,
    WindowExceeded,
)
from repro.obs import flame_summary
from repro.runtime import (
    FaultSpec,
    RunSpec,
    VerifyPolicy,
    crash_tolerant_protocols,
    partition_tolerant_protocols,
    protocol_names,
)
from repro.runtime import (
    execute as execute_spec,
)
from repro.workloads import figure1, figure2_h1

#: ``trace`` workload names -> registered protocol (the condition and
#: factory come from the registry).  "paper-fig4" is the Figure-4
#: (m-SC) protocol, "paper-fig6" the Figure-6 (m-lin) protocol.
TRACE_FIGURES = {
    "paper-fig4": "msc",
    "paper-fig6": "mlin",
}


def cmd_check(args: argparse.Namespace) -> int:
    try:
        history = load_history(args.file)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(history.pretty())
    print()
    print(f"index: {HistoryIndex.of(history).stats().row()}")
    print()
    method = args.method
    certificate = None
    if args.window is not None:
        # A bounded lookback needs a certified scan; derive the
        # strongest certificate the concrete history supports
        # (read-only > single-updater > object-partitioned).
        from repro.analysis.static import certify_history
        from repro.errors import CertificationRefused

        try:
            certificate = certify_history(history)
            print(
                f"certificate: {certificate.rule} "
                f"({certificate.constraint}-constraint)"
            )
            print()
        except CertificationRefused as exc:
            print(
                f"error: cannot plan window={args.window}: {exc}",
                file=sys.stderr,
            )
            return 2
    failures = 0
    for row in CONDITIONS.values():
        try:
            verdict = check_condition(
                history,
                row.name,
                method=method,
                certificate=certificate,
                window=args.window,
            )
        except MissingTimestampsError:
            print(f"{row.title:<28} (skipped: history has no timestamps)")
            continue
        except (PlanRefused, WindowExceeded, ConstraintNotSatisfied) as exc:
            print(f"{row.title:<28} (refused: {exc})")
            continue
        status = "HOLDS" if verdict.holds else "VIOLATED"
        print(f"{row.title:<28} {status}  [{verdict.method_used} checker]")
        failures += not verdict.holds
        if not verdict.holds:
            for line in str(verdict.refutation).splitlines():
                print("    " + line)
    return 1 if failures and args.strict else 0


def _print_verdicts(artifact) -> None:
    """Render an artifact's verdicts in the demo's classic format."""
    if not artifact.verdicts:
        print(
            f"{artifact.protocol}: no declared consistency condition; "
            "verification skipped"
        )
        return
    for verdict in artifact.verdicts:
        print(
            f"{verdict.condition} holds: {verdict.holds} "
            f"[{verdict.method} checker]"
        )


def cmd_demo(args: argparse.Namespace) -> int:
    # The registry carries each protocol's strongest condition — Fig-4
    # (msc) and the delay-bound AW baseline claim m-SC, the causal
    # protocol m-causal, mlin/aggregate/server/lock m-linearizability.
    spec = RunSpec(
        protocol=args.protocol,
        workload="random",
        n=args.processes,
        objects=tuple(f"x{i}" for i in range(args.objects)),
        ops=args.ops,
        seed=args.seed,
    )
    artifact = execute_spec(spec)
    result = artifact.result
    print(result.history.pretty())
    print()
    metrics = ProtocolMetrics.of(args.protocol, result)
    print(metrics.row())
    if metrics.complexity is not None:
        print(f"index: {metrics.complexity.row()}")
    print()
    _print_verdicts(artifact)
    return 0 if artifact.ok else 1


def cmd_figures(_args: argparse.Namespace) -> int:
    print("Figure 1 (Section 2 example):")
    print(figure1().pretty())
    print()
    h, _base = figure2_h1()
    print("Figure 2 (history H1 under WW-constraint):")
    print(h.pretty())
    print()
    from repro.workloads import figure5_scenario, figure7_scenario

    fig5 = figure5_scenario()
    print("Figure 5 (Fig-4 protocol; stale local reads):")
    print(f"  reads: {[(round(t, 2), v) for t, _r, v in fig5.reads]}")
    print(f"  stale: {len(fig5.stale_reads)}")
    fig7 = figure7_scenario()
    print("Figure 7 (Fig-6 protocol; gather phase):")
    print(f"  reads: {[(round(t, 2), v) for t, _r, v in fig7.reads]}")
    print(f"  stale: {len(fig7.stale_reads)}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    failures = 0
    rows = []
    for seed in range(args.fault_seed, args.fault_seed + args.runs):
        # One integer per run: it seeds the fault plan, the cluster
        # and (+1) the workload.
        spec = RunSpec(
            protocol=args.protocol,
            n=args.processes,
            ops=args.ops,
            seed=seed,
            verify=VerifyPolicy(window=args.window),
            faults=FaultSpec(
                seed=seed,
                recovery=args.recovery,
                recover=not args.no_recover,
                partition=args.partition,
                quorum_aware=not args.no_quorum,
            ),
        )
        artifact = execute_spec(spec)
        chaos = artifact.chaos
        print(artifact.summary())
        print(f"  {chaos.plan.describe()}")
        if args.metrics:
            print(json.dumps(artifact.net_stats, indent=2, sort_keys=True))
        if args.out:
            rows.append(
                {
                    "seed": seed,
                    # Replays with ``python -m repro run``.
                    "spec": spec.to_dict(),
                    "ok": artifact.ok,
                    "summary": artifact.summary(),
                    "violations": artifact.violations,
                    "failure": artifact.failure,
                    "detector": chaos.detector,
                    "degraded": len(chaos.degraded),
                    "partitions": chaos.partitions,
                    "failovers": chaos.failovers,
                    "metrics": artifact.net_stats,
                }
            )
        failures += not artifact.ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "protocol": args.protocol,
                    "runs": args.runs,
                    "failures": failures,
                    "negative_control": args.no_recover or args.no_quorum,
                    "results": rows,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"artifact: {args.out}")
    if args.no_recover or args.no_quorum:
        # The negative control is *expected* to lose operations or
        # fail verification; succeeding would mean the control proves
        # nothing.
        print(f"negative control: {failures}/{args.runs} runs failed")
        return 0 if failures else 1
    print(f"{args.runs - failures}/{args.runs} runs ok")
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        from benchmarks import report as report_mod
    except ImportError:
        print(
            "error: the benchmarks package is not importable; run from "
            "the repository root",
            file=sys.stderr,
        )
        return 2
    report_mod.main()
    if args.metrics:
        # Machine-readable companion to the A1 comparison table: the
        # per-protocol ProtocolMetrics snapshots as one JSON block.
        snapshots = [m.snapshot() for m in report_mod.exp_a1()]
        print()
        print("A1 metrics (JSON):")
        print(json.dumps(snapshots, indent=2, sort_keys=True))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    spec = RunSpec(
        protocol=TRACE_FIGURES[args.workload],
        workload="random",
        n=args.processes,
        objects=tuple(f"x{i}" for i in range(args.objects)),
        ops=args.ops,
        seed=args.seed,
        tracing=True,
        trace_path=args.out,
        metrics=True,
    )
    artifact = execute_spec(spec)
    verdict = artifact.verdicts[0]
    tracer = artifact.tracer
    print(
        f"{args.workload}: {artifact.completed} ops, "
        f"{verdict.condition} holds: {verdict.holds} "
        f"[{verdict.method} checker]"
    )
    print(
        f"trace: {artifact.trace_spans} spans -> {args.out} "
        f"({tracer.evicted} evicted)"
    )
    print()
    print(flame_summary(tracer.records(), top=args.top))
    if args.metrics:
        metrics = dict(artifact.metrics or {})
        metrics["network"] = artifact.net_stats
        print()
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0 if artifact.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    try:
        spec = RunSpec.load(args.spec)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.window is not None:
        spec = dataclasses.replace(
            spec,
            verify=dataclasses.replace(spec.verify, window=args.window),
        )
    try:
        artifact = execute_spec(spec)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(artifact.summary())
    if args.out:
        artifact.save(args.out)
        print(f"artifact -> {args.out}")
    if args.json:
        print(json.dumps(artifact.to_dict(), indent=2, sort_keys=True))
    return 0 if artifact.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, ServeDaemon

    try:
        daemon = ServeDaemon(
            ServeConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                store_dir=args.store,
                queue_depth=args.queue_depth,
                cache_entries=args.cache_entries,
                retain_entries=args.retain,
                retain_bytes=args.retain_bytes,
            )
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"repro serve: {daemon.url} (workers={args.workers}, "
          f"store={args.store})")
    print(f"dashboard: {daemon.url}/  metrics: {daemon.url}/metrics")
    sys.stdout.flush()
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def _window(text: str) -> int:
    """A ``--window`` value: an int >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive int, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Consistency conditions for multi-object distributed "
            "operations (Mittal & Garg, 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a JSON history file")
    check.add_argument("file", help="path to the history JSON")
    check.add_argument(
        "--method",
        choices=["auto", "exact", "constrained"],
        default="auto",
    )
    check.add_argument(
        "--window",
        type=_window,
        default=None,
        help="derive a static certificate from the history and bound "
        "the certified scan's lookback to this many update-chain "
        "positions; reads spanning more refuse rather than mis-answer",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any condition is violated",
    )
    check.set_defaults(func=cmd_check)

    demo = sub.add_parser("demo", help="run and verify a protocol")
    demo.add_argument(
        "--protocol", choices=protocol_names(), default="mlin"
    )
    demo.add_argument("--processes", type=int, default=3)
    demo.add_argument("--objects", type=int, default=3)
    demo.add_argument("--ops", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_demo)

    figures = sub.add_parser("figures", help="print the paper's figures")
    figures.set_defaults(func=cmd_figures)

    report = sub.add_parser("report", help="regenerate all experiments")
    report.add_argument(
        "--metrics",
        action="store_true",
        help="also print the A1 protocol-metrics snapshots as JSON",
    )
    report.set_defaults(func=cmd_report)

    trace = sub.add_parser(
        "trace",
        help="run an instrumented workload; export spans + flame summary",
    )
    trace.add_argument(
        "--workload",
        choices=sorted(TRACE_FIGURES),
        default="paper-fig4",
    )
    trace.add_argument(
        "--out",
        default="repro.trace.jsonl",
        help="JSONL destination for the recorded spans",
    )
    trace.add_argument("--processes", type=int, default=3)
    trace.add_argument("--objects", type=int, default=3)
    trace.add_argument("--ops", type=int, default=5)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="flame summary rows (top spans by self-time)",
    )
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="also print the metrics-registry snapshot as JSON",
    )
    trace.set_defaults(func=cmd_trace)

    chaos = sub.add_parser(
        "chaos", help="run fault-injection schedules and verify"
    )
    chaos.add_argument(
        "--protocol",
        choices=sorted(
            crash_tolerant_protocols() | partition_tolerant_protocols()
        ),
        default="msc",
        help="any protocol whose registry entry is crash-tolerant "
        "(or partition-tolerant, for --partition runs)",
    )
    chaos.add_argument("--processes", type=int, default=4)
    chaos.add_argument("--ops", type=int, default=5)
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="first fault-schedule seed (seeds used: N .. N+runs-1)",
    )
    chaos.add_argument("--runs", type=int, default=10)
    chaos.add_argument(
        "--recovery", choices=["replay", "snapshot"], default="replay"
    )
    chaos.add_argument(
        "--no-recover",
        action="store_true",
        help="negative control: crashes become permanent, recovery "
        "never runs (the run is expected to fail)",
    )
    chaos.add_argument(
        "--partition",
        action="store_true",
        help="inject a link-level network partition schedule instead "
        "of crash/recover faults (requires a partition-tolerant "
        "protocol)",
    )
    chaos.add_argument(
        "--no-quorum",
        action="store_true",
        help="negative control: disable quorum-aware degradation so "
        "both sides of a partition keep sequencing (the run is "
        "expected to fail with a split-brain violation)",
    )
    chaos.add_argument(
        "--window",
        type=_window,
        default=None,
        help="bound the in-run audit monitor's memory to a lookback of "
        "this many broadcast positions (reads reaching further back "
        "are counted as refused, never mis-answered)",
    )
    chaos.add_argument(
        "--out",
        help="write a JSON artifact with per-seed results to this path",
    )
    chaos.add_argument(
        "--metrics",
        action="store_true",
        help="print each run's metrics snapshot as JSON",
    )
    chaos.set_defaults(func=cmd_chaos)

    run = sub.add_parser(
        "run",
        help="execute a declarative RunSpec JSON through the runtime",
    )
    run.add_argument("spec", help="path to the RunSpec JSON file")
    run.add_argument(
        "--window",
        type=_window,
        default=None,
        help="override the spec's verify.window",
    )
    run.add_argument(
        "--out", help="also save the RunArtifact JSON to this path"
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the full RunArtifact JSON to stdout",
    )
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve",
        help="start the verification control plane (HTTP daemon)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (0 = ephemeral; the bound port lands in "
        "<store>/serve.json)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads executing queued RunSpecs",
    )
    serve.add_argument(
        "--store",
        default="repro-store",
        help="store directory (artifacts/, request log)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="bounded run-queue capacity (full queue -> HTTP 503)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="artifact-store entries held in memory as text (LRU)",
    )
    serve.add_argument(
        "--retain",
        type=int,
        default=512,
        help="artifact retention: max stored artifacts (LRU eviction "
        "from memory and disk)",
    )
    serve.add_argument(
        "--retain-bytes",
        type=int,
        default=256 * 1024 * 1024,
        help="artifact retention: max total artifact bytes",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
