"""Static-analysis subsystem: constraint prover + determinism lints.

Two pass families over one shared framework:

* the **workload constraint prover** (:mod:`.prover`) certifies
  OO-/WW-/WO-constraint compliance of workload specs up front,
  unlocking the Theorem-7 polynomial checking path without the
  dynamic constraint scan;
* the **determinism & race lints** — syntactic passes in
  :mod:`.lints` (seeded RNG, virtual clocks, ordered iteration,
  kernel-mediated state access) and flow-sensitive passes built on
  the :mod:`.cfg` + :mod:`.dataflow` engine: the Eraser-style static
  lockset race detector (:mod:`.locks`) and the path-sensitive span
  pairing / swallowed-error / handler-atomicity rules (:mod:`.flows`).

Entry points: ``python -m repro analyze`` (CLI), ``make analyze``,
and :func:`repro.analysis.static.analyze_repo` programmatically.  See
``docs/static_analysis.md`` for the rule catalog and certificate
semantics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import repro.analysis.static.flows  # noqa: F401 - registers the passes
import repro.analysis.static.lints  # noqa: F401 - registers the passes
import repro.analysis.static.locks  # noqa: F401 - registers the passes
from repro.analysis.static.cfg import CFG, Block, Event, build_cfg
from repro.analysis.static.dataflow import (
    DataflowProblem,
    Solution,
    solve,
    values_at_events,
)
from repro.analysis.static.findings import Finding, Report, parse_allows
from repro.analysis.static.framework import (
    Analyzer,
    AnalyzerConfig,
    LintPass,
    SourceFile,
    load_config,
    register,
    registered_rules,
    rule_descriptions,
)
from repro.analysis.static.prover import (
    CONSTRAINTS,
    THEOREM7_CONSTRAINTS,
    ConstraintCertificate,
    ProgramProfile,
    SampledRun,
    WorkloadSpec,
    certify_chain,
    certify_history,
    certify_partitioned_history,
    certify_run,
    certify_spec,
    certify_workloads,
    sample_history,
)
from repro.analysis.static.report import render_json, render_text
from repro.analysis.static.sarif import (
    baseline_payload,
    diff_against_baseline,
    load_baseline,
    render_sarif,
)

__all__ = [
    "Analyzer",
    "AnalyzerConfig",
    "Block",
    "CFG",
    "CONSTRAINTS",
    "ConstraintCertificate",
    "DataflowProblem",
    "Event",
    "Finding",
    "LintPass",
    "Solution",
    "ProgramProfile",
    "Report",
    "SampledRun",
    "SourceFile",
    "THEOREM7_CONSTRAINTS",
    "WorkloadSpec",
    "analyze_repo",
    "baseline_payload",
    "build_cfg",
    "certify_chain",
    "certify_history",
    "certify_partitioned_history",
    "certify_run",
    "certify_spec",
    "certify_workloads",
    "diff_against_baseline",
    "load_baseline",
    "load_config",
    "parse_allows",
    "register",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_descriptions",
    "sample_history",
    "solve",
    "values_at_events",
]


def analyze_repo(
    paths: Optional[Sequence[Path]] = None,
    *,
    root: Optional[Path] = None,
    config: Optional[AnalyzerConfig] = None,
) -> Report:
    """Analyze the package source tree (default: ``src/repro``).

    ``root`` anchors the repo-relative paths in findings and the
    pyproject config lookup; it defaults to the repository root
    inferred from this file's location (``src/repro/...`` -> repo).
    """
    package_dir = Path(__file__).resolve().parent.parent.parent
    inferred_root = package_dir.parent.parent  # src/repro -> repo root
    root = root or inferred_root
    if config is None:
        config = load_config(root / "pyproject.toml")
    if paths is None:
        paths = [package_dir]
    return Analyzer(config=config).analyze_paths(paths, root=root)
