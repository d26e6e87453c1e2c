"""Shared helpers for the experiment benchmarks.

Every file in this directory regenerates one artifact of the paper
(figure, theorem, or analytical cost claim) per the experiment index
in DESIGN.md.  Each benchmark both *times* the central operation
(pytest-benchmark) and *asserts the reproduced shape* — who wins, by
roughly what factor — so ``pytest benchmarks/ --benchmark-only`` is the
full reproduction run.  ``python -m benchmarks.report`` prints the
EXPERIMENTS.md tables from the same code paths.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

# Allow `from benchmarks.report import ...` when pytest runs from the
# repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def checker_workload(
    n_mops: int,
    *,
    seed: int = 3,
    n_processes: int = 5,
    n_objects: int = 4,
    query_fraction: float = 0.4,
):
    """The performance-guard workload at a given size.

    A fresh serial history (fresh so no cached :class:`HistoryIndex`
    survives between timing runs) plus the total ``~ww`` chain of its
    updates — the Theorem 7 constraint input that makes the
    polynomial-time ``constrained`` checker applicable.  Shared by
    ``tests/test_performance_guards.py``-style guards and
    ``benchmarks/bench_checkers.py``.
    """
    from repro.workloads import HistoryShape, random_serial_history

    shape = HistoryShape(
        n_processes=n_processes,
        n_objects=n_objects,
        n_mops=n_mops,
        query_fraction=query_fraction,
    )
    history = random_serial_history(shape, seed=seed)
    updates = [m.uid for m in history.mops if m.is_update]
    return history, list(zip(updates, updates[1:]))


def violated_workload(n_mops: int, kind: str):
    """:func:`checker_workload` with one read rewired so the check fails.

    ``kind`` picks how: a ``"stale"`` twin reads an older writer (an
    overwriter then sits between the two: D 4.6 fails), a ``"future"``
    twin a newer one (the ``~ww`` chain runs the other way: the order
    is cyclic).  The first ``corrupt_history`` seed of that kind which
    the checker rejects; fresh per call, like :func:`checker_workload`.
    """
    from repro.core import check_condition
    from repro.workloads import corrupt_history, corruption_kind

    history, ww = checker_workload(n_mops)
    for seed in range(64):
        twin = corrupt_history(history, seed=seed)
        if twin is None or corruption_kind(history, twin) != kind:
            continue
        if not check_condition(twin, "m-sc", extra_pairs=ww).holds:
            return corrupt_history(history, seed=seed), ww
    raise RuntimeError(f"no violated {kind} twin at {n_mops} m-ops")


def partitioned_workload(
    n_mops: int,
    *,
    seed: int = 3,
    n_processes: int = 4,
    objects_per_process: int = 2,
    query_fraction: float = 0.4,
):
    """The object-partitioned engine workload at a given size.

    An object-partitioned serial history (each process owns a private
    object namespace) plus its object-partitioned certificate — which
    :mod:`repro.core.plan` lowers to one scan over the per-process
    update chains.  Fresh per call, like :func:`checker_workload`.
    """
    from repro.analysis.static import certify_partitioned_history
    from repro.workloads import HistoryShape, random_partitioned_history

    shape = HistoryShape(
        n_processes=n_processes,
        n_objects=objects_per_process,
        n_mops=n_mops,
        query_fraction=query_fraction,
    )
    history = random_partitioned_history(shape, seed=seed)
    return history, certify_partitioned_history(history)


def timed_samples(
    make: Callable[[], Callable[[], object]], runs: int
) -> Tuple[List[float], object]:
    """Time ``runs`` executions, rebuilding state before each.

    ``make`` produces a zero-argument closure over *fresh* inputs; only
    the closure's execution is timed, so per-history caches never leak
    across samples.  Returns the samples and the last result.
    """
    samples: List[float] = []
    result: object = None
    for _ in range(runs):
        fn = make()
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return samples, result
