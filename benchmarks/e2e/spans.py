"""The benchmark's own spans, and taps on the program's public functions.

Spans are recorded from outside the program: the traced pass wraps the
public callables at each layer boundary (``Cluster.run``,
``check_condition``, ``history_hash`` ...) for the life of one child
process and restores them afterwards.  The program's built-in tracer
stamps kernel/network/abcast spans on the *simulated* clock, so it
cannot attribute host time there; its wall-clock ``check.*`` phase
spans are adopted into this recorder as children of the
``core.consistency.check`` tap.

Rows are kept in memory and written as JSONL when the pass ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, attribute path, span name)``.  Each target is looked up
#: at install time, so a rename in the program fails the traced pass
#: loudly instead of silently dropping a layer from the table.
TAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.protocols.base", "Cluster.__init__", "runtime.cluster_build"),
    ("repro.protocols.base", "Cluster.run", "sim.run"),
    ("repro.runtime.workloads", "random_workloads", "runtime.workload_build"),
    ("repro.runtime.execute", "history_hash", "runtime.history_hash"),
    ("repro.analysis.static.prover", "certify_workloads",
     "analysis.static.prover.certify"),
    ("repro.core", "check_condition", "core.consistency.check"),
    ("repro.core.consistency", "check_condition", "core.consistency.check"),
    ("repro.core.monitor", "verify_stream", "core.monitor.verify_stream"),
)

#: Program tracer span -> layer name (anything else under ``check.``
#: becomes ``core.consistency.<phase>``).
CHECK_PHASES = {
    "check.index": "core.index.build",
    "check.certificate": "core.plan.certificate",
    "check.plan": "core.plan.plan",
    "check.scan": "core.plan.scan",
}


class Spans:
    """Span recorder; a disabled recorder costs one branch per span."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.rows: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        # The serve-mix clients are threads: each keeps its own stack
        # and current item.
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_item(self, item: Optional[str], cycle: int = 0) -> None:
        self._local.item = item
        self._local.cycle = cycle

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        row: Dict[str, Any] = dict(attrs)
        if not self.enabled:
            yield row
            return
        stack = self._stack()
        row.update(
            id=next(self._ids),
            parent=stack[-1] if stack else None,
            name=name,
            workload=self.workload,
            item=getattr(self._local, "item", None),
            cycle=getattr(self._local, "cycle", 0),
        )
        stack.append(row["id"])
        row["start"] = time.perf_counter()
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            stack.pop()
            self.rows.append(row)

    def adopt_check_phases(self, records: List[Dict[str, Any]]) -> None:
        """Adopt the program tracer's wall-clock ``check.*`` spans.

        The root ``check.<condition>`` span duplicates the
        ``core.consistency.check`` tap and is dropped; its phases are
        re-parented onto the tap span that encloses them in time.
        """
        item = getattr(self._local, "item", None)
        taps = [
            row for row in self.rows
            if row["name"] == "core.consistency.check" and row["item"] == item
        ]
        adopted: Dict[int, int] = {}
        for record in records:
            name = record["name"]
            if record["clock"] != "wall" or not name.startswith("check."):
                continue
            if "mops" in record["attrs"]:  # the per-condition root
                continue
            parent = adopted.get(record["parent"])
            if parent is None:
                parent = next(
                    (
                        tap["id"] for tap in taps
                        if tap["start"] <= record["t0"]
                        and record["t1"] <= tap["end"]
                    ),
                    None,
                )
            row_id = next(self._ids)
            adopted[record["id"]] = row_id
            self.rows.append(
                {
                    "id": row_id,
                    "parent": parent,
                    "name": CHECK_PHASES.get(
                        name, "core.consistency." + name[len("check."):]
                    ),
                    "workload": self.workload,
                    "item": item,
                    "cycle": getattr(self._local, "cycle", 0),
                    "adopted": True,
                    "start": record["t0"],
                    "end": record["t1"],
                }
            )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, leaf)  # AttributeError here = the program moved it
    return owner, leaf


@contextmanager
def tapped(spans: Spans) -> Iterator[None]:
    """Wrap every :data:`TAPS` target in a span for the ``with`` body."""
    wrappers: Dict[int, Callable] = {}
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, path, span_name in TAPS:
            owner, leaf = _resolve(module_name, path)
            original = getattr(owner, leaf)
            # One wrapper per function object: ``check_condition`` is
            # bound in two modules and must not nest two spans.
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = _wrap(
                    spans, original, span_name
                )
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def _wrap(spans: Spans, original: Callable, span_name: str) -> Callable:
    is_run = span_name == "sim.run"

    def tap(*args: Any, **kwargs: Any) -> Any:
        with spans.span(span_name) as row:
            try:
                return original(*args, **kwargs)
            finally:
                if is_run:
                    # Simulator.events_fired, read where the run ends.
                    row["events"] = args[0].sim.events_fired

    tap.__wrapped__ = original  # type: ignore[attr-defined]
    return tap


def self_times(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span name -> summed self time (duration minus direct children)."""
    child_time: Dict[int, float] = {}
    for row in rows:
        if row["parent"] is not None:
            child_time[row["parent"]] = (
                child_time.get(row["parent"], 0.0) + row["end"] - row["start"]
            )
    totals: Dict[str, float] = {}
    for row in rows:
        own = row["end"] - row["start"] - child_time.get(row["id"], 0.0)
        totals[row["name"]] = totals.get(row["name"], 0.0) + max(0.0, own)
    return totals


def busy(rows: List[Dict[str, Any]], name: str) -> float:
    """Summed (inclusive) duration of every span called ``name``."""
    return sum(r["end"] - r["start"] for r in rows if r["name"] == name)
