"""Export hygiene: __all__ is accurate everywhere.

Catches drift between modules and their public interfaces: every name
in each package's ``__all__`` must resolve, and the headline API must
be reachable from the top-level ``repro`` namespace.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PACKAGES = [
    "repro",
    "repro.core",
    "repro.db",
    "repro.sim",
    "repro.abcast",
    "repro.protocols",
    "repro.objects",
    "repro.workloads",
    "repro.analysis",
    "repro.analysis.static",
    "repro.runtime",
    "repro.serve",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), f"{package} has duplicates"


HEADLINE = [
    # model + checkers
    "History",
    "MOperation",
    "check_m_sequential_consistency",
    "check_m_linearizability",
    "check_m_normality",
    # protocols
    "msc_cluster",
    "mlin_cluster",
    "causal_cluster",
    "lock_cluster",
    "aggregate_cluster",
    "server_cluster",
    # operations
    "dcas",
    "m_assign",
    "m_read",
    "transfer",
    # tooling
    "save_history",
    "load_history",
]


def test_headline_api_reachable():
    import repro

    for name in HEADLINE:
        assert hasattr(repro, name), name


def test_retired_verification_names_are_gone():
    """One mark scan: the shard executor, the mode table and the four
    streaming classes behind it left no alias behind; nor did the
    monitor's own completion type or the scan's cover helper, which
    the recorder's ``OpRecord`` and ``plan.Timeline`` replace."""
    import repro.core as core
    import repro.core.index as index
    import repro.core.monitor as monitor
    import repro.core.plan as plan
    import repro.core.relations as relations

    retired = {
        "IncrementalClosure", "LiveIndex", "MODES", "ObservedOp", "Shard",
        "ShardOutcome", "ShardReport", "StreamingVerifier",
        "WindowedIndex", "object_shards", "run_sharded", "rw_cover_pairs",
        "shard_history",
    }
    assert not retired & set(core.__all__)
    for module in (core, index, monitor, plan, relations):
        for name in retired:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert {"LiveMonitor", "verify_stream", "run_scan"} <= set(core.__all__)
    public = {n for n in vars(index) if n[0].isupper() and n[0] != "_"}
    assert {n for n in public if n.endswith("Index")} == {"HistoryIndex"}


def test_the_chaos_harness_is_gone_from_sim():
    """One run pipeline: fault runs are ``repro.runtime.execute`` and
    what is left of the result type hangs off its artifact."""
    import repro.sim as sim
    from repro.runtime.execute import ChaosResult, RunArtifact

    assert importlib.util.find_spec("repro.sim.chaos") is None
    # Neither the harness function nor its result type, by any name.
    assert not [name for name in dir(sim) if "chaos" in name.lower()]
    assert "chaos" in RunArtifact.__dataclass_fields__
    assert list(ChaosResult.__dataclass_fields__) == [
        "plan", "crashes", "restarts", "failovers", "partitions",
        "detector", "degraded", "audits", "abcast_cursors",
    ]


def test_the_self_linter_is_gone():
    """The constraint prover is all that is left of ``analysis.static``:
    no analyzer module, no ``analyze`` subcommand, and a run imports
    nothing else from the package."""
    from repro.__main__ import main

    for name in ("cfg", "dataflow", "findings", "flows", "framework",
                 "lints", "locks", "report", "sarif"):
        assert importlib.util.find_spec(f"repro.analysis.static.{name}") is None
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    probe = (
        "import sys\n"
        "from repro.runtime import RunSpec, execute\n"
        "execute(RunSpec('msc'))\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('repro.analysis.static')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC},
    ).stdout
    assert out.strip() == str(
        ["repro.analysis.static", "repro.analysis.static.prover"]
    )


def test_one_refutation_type_explains_every_violation():
    """The pass that decides also explains: no second explainer, no
    monitor-only violation type, no ``check --explain``."""
    import repro
    import repro.core as core
    import repro.core.monitor as monitor
    from repro.__main__ import main

    assert importlib.util.find_spec("repro.core.diagnostics") is None
    for name in ("Explanation", "explain", "StreamViolation"):
        assert name not in core.__all__
        for module in (repro, core, monitor):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "Refutation" in core.__all__
    assert "refutation" in core.ConsistencyVerdict.__dataclass_fields__
    with pytest.raises(SystemExit) as exc:
        main(["check", "--explain", "history.json"])
    assert exc.value.code == 2


def test_abcast_exports_both_sequencer_layers():
    import repro.abcast as abcast

    assert issubclass(abcast.FailoverSequencer, abcast.SequencerAbcast)
    assert {"SequencerAbcast", "FailoverSequencer"} <= set(abcast.__all__)


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
