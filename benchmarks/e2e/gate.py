"""Untimed differential gate, run before any timing.

40 small histories (<= 14 m-ops: 20 serial-by-construction plus their
``corrupt_history`` twins) go through ``method="exact"`` — the
exponential ground truth — and ``method="constrained"`` for m-sc,
m-lin and m-norm.  Wherever both answer they must agree; the serial
update order is supplied as ``extra_pairs`` so the Theorem-7
precondition holds and the constrained checker does answer.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core import check_condition
from repro.core.consistency import ConstraintNotSatisfied
from repro.workloads import HistoryShape, corrupt_history, random_serial_history

CONDITIONS = ("m-sc", "m-lin", "m-norm")
CASES = 20
#: A gate that compared almost nothing would pass vacuously.
MIN_COMPARED = 90


def run_gate(seed: int) -> Tuple[int, List[str]]:
    """Returns ``(comparisons made, disagreements)``."""
    compared = 0
    disagreements: List[str] = []
    for case in range(CASES):
        shape = HistoryShape(
            n_processes=2 + case % 3,
            n_objects=2 + case % 2,
            n_mops=8 + case % 7,
        )
        valid = random_serial_history(shape, seed=seed + case)
        updates = [m.uid for m in valid.mops if m.external_writes]
        chain = tuple(zip(updates, updates[1:]))
        twin = corrupt_history(valid, seed=seed + case)
        for label, history in (("valid", valid), ("corrupt", twin)):
            if history is None:
                continue
            for condition in CONDITIONS:
                exact = check_condition(
                    history, condition, method="exact", extra_pairs=chain
                )
                try:
                    fast = check_condition(
                        history, condition, method="constrained",
                        extra_pairs=chain,
                    )
                except ConstraintNotSatisfied:
                    continue  # refused, not answered
                compared += 1
                if exact.holds != fast.holds:
                    disagreements.append(
                        f"case {case} {label} {condition}: exact="
                        f"{exact.holds} constrained={fast.holds}"
                    )
                if label == "valid" and not exact.holds:
                    disagreements.append(
                        f"case {case} {condition}: serial history rejected"
                    )
    if compared < MIN_COMPARED:
        disagreements.append(
            f"gate compared only {compared} verdict pairs "
            f"(< {MIN_COMPARED}): the constrained checker refused too often"
        )
    return compared, disagreements
