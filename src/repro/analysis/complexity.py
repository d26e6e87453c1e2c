"""Empirical scaling of the checkers (experiment T1).

Theorem 1 (and Theorem 2) say exact verification is NP-complete.  A
measurement cannot prove an asymptotic claim, but it can exhibit the
dichotomy the paper builds its Section-4/5 story on: the exact
branch-and-bound blows up on *ambiguous* histories — many concurrent,
unordered update m-operations whose writes are mutually
substitutable — while the Theorem-7 constrained checker remains
polynomial on WW-constrained histories of the same size.

:func:`hard_history` generates the adversarial family; each of ``k``
"writer pairs" writes two *swappable* values to its own pair of
objects, and a crowd of readers observes mixtures, so the search must
disentangle an exponential number of interleavings before concluding.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.admissibility import (
    SearchBudgetExceeded,
    check_admissible,
)
from repro.core.history import History
from repro.core.operation import MOperation, read, write
from repro.core.orders import msc_order


def hard_history(n_mops: int, *, n_objects: int = 3, seed: int = 0) -> History:
    """An ambiguous, *satisfiable* family for stressing the checker.

    Hardness of verification with a known reads-from relation (the
    paper stresses Theorem 2 holds "even when the reads-from relation
    is known") comes from ordering the **other** writes: a write to
    ``x`` must never fall between a ``(writer, reader)`` pair on
    ``x``, and with multi-object m-operations these per-object
    interval constraints interact across objects.

    This generator maximises that interaction: ``n_mops`` m-operations
    are generated *serially* against ``n_objects`` highly contended
    objects (so a legal linearization certainly exists — the
    generation order), each on its **own process**, and all timing is
    then discarded.  The m-SC base order thus contains no process-
    order and no real-time edges; only reads-from constrains the
    search, and the branch-and-bound must rediscover a consistent
    global write order from scratch.
    """
    rng = random.Random(seed)
    objects = [f"x{i}" for i in range(n_objects)]
    store = {obj: 0 for obj in objects}
    value = 0
    # Shuffle uid assignment so the generation order is *not* the
    # universe order: a depth-first search that tries candidates in
    # uid order cannot simply walk the generating sequence and must
    # genuinely backtrack out of wrong write orderings.
    uids = list(range(1, n_mops + 1))
    rng.shuffle(uids)
    mops: List[MOperation] = []
    for step in range(n_mops):
        ops = []
        # Read one or two objects (their current values)...
        for obj in rng.sample(objects, k=rng.randint(1, min(2, n_objects))):
            ops.append(read(obj, store[obj]))
        # ...and write one or two objects with fresh unique values.
        for obj in rng.sample(objects, k=rng.randint(1, min(2, n_objects))):
            value += 1
            ops.append(write(obj, value))
            store[obj] = value
        uid = uids[step]
        mops.append(
            MOperation(
                uid=uid,
                process=uid,  # every m-operation on its own process
                ops=tuple(ops),
                name=f"h{uid}",
            )
        )
    mops.sort(key=lambda m: m.uid)
    return History.from_mops(mops)


def exponential_gadget(toggles: int) -> History:
    """A crafted family on which the exact checker provably explodes.

    Two ingredients:

    * a **contradiction core** on object ``q``: process P1 runs
      ``A = w(q)a`` then the query ``r(q)b``; process P2 runs
      ``B = w(q)b`` then the query ``r(q)a``.  Any legal
      sequentialization needs ``B`` between ``A`` and P1's read *and*
      ``A`` between ``B`` and P2's read — i.e. both ``A < B`` and
      ``B < A`` — so the history is **not** m-sequentially consistent.
      Crucially the contradiction passes the D 4.6 legality pre-check
      and generates no ``~rw`` edges, so only the search can refute it;
    * ``toggles`` independent pairs of *dead* writers (two writers to a
      private object, read by nobody, each on its own process).  Their
      orders are unconstrained, so the search re-discovers the core
      contradiction once per reachable toggle configuration; failure
      memoization keys on (scheduled set, last-writer map), and the
      toggle lattice yields exponentially many distinct failed states.

    Empirically ~``30^(toggles/2)`` nodes — the Theorem-1/2 worst case
    made tangible.  (A smarter state abstraction could ignore objects
    no pending read needs, collapsing *this* family — but
    NP-completeness guarantees some family defeats any polynomial
    pruning, unless P = NP.)
    """
    mops: List[MOperation] = []
    uid = 1
    for i in range(toggles):
        mops.append(
            MOperation(
                uid=uid,
                process=100 + 2 * i,
                ops=(write(f"o{i}", "u"),),
                name=f"u{i}",
            )
        )
        uid += 1
        mops.append(
            MOperation(
                uid=uid,
                process=100 + 2 * i + 1,
                ops=(write(f"o{i}", "v"),),
                name=f"v{i}",
            )
        )
        uid += 1
    core = [
        MOperation(uid=uid, process=1, ops=(write("q", "a"),), name="A"),
        MOperation(uid=uid + 1, process=1, ops=(read("q", "b"),), name="R2"),
        MOperation(uid=uid + 2, process=2, ops=(write("q", "b"),), name="B"),
        MOperation(uid=uid + 3, process=2, ops=(read("q", "a"),), name="R1"),
    ]
    return History.from_mops(mops + core)


@dataclass
class ScalingPoint:
    """One measurement of checker cost.

    Attributes:
        size: number of m-operations in the instance.
        seconds: wall-clock time of the check.
        nodes: search nodes expanded (0 for the constrained path).
        verdict: the decision returned.
        budget_exhausted: the exact search hit its node budget.
    """

    size: int
    seconds: float
    nodes: int
    verdict: Optional[bool]
    budget_exhausted: bool = False


def measure_exact(
    histories: Sequence[History],
    *,
    node_limit: Optional[int] = None,
    propagate_rw: bool = True,
) -> List[ScalingPoint]:
    """Time the exact admissibility checker on each history."""
    points: List[ScalingPoint] = []
    for history in histories:
        base = msc_order(history)
        start = time.perf_counter()  # wall clock: measures the checker
        try:
            result = check_admissible(
                history,
                base,
                node_limit=node_limit,
                propagate_rw=propagate_rw,
            )
            elapsed = time.perf_counter() - start
            points.append(
                ScalingPoint(
                    size=len(history),
                    seconds=elapsed,
                    nodes=result.stats.nodes,
                    verdict=result.admissible,
                )
            )
        except SearchBudgetExceeded:
            elapsed = time.perf_counter() - start
            points.append(
                ScalingPoint(
                    size=len(history),
                    seconds=elapsed,
                    nodes=node_limit or -1,
                    verdict=None,
                    budget_exhausted=True,
                )
            )
    return points


def measure(
    histories: Sequence[History],
    checker: Callable[[History], bool],
) -> List[ScalingPoint]:
    """Time an arbitrary boolean checker on each history."""
    points: List[ScalingPoint] = []
    for history in histories:
        start = time.perf_counter()  # wall clock: measures the checker
        verdict = checker(history)
        elapsed = time.perf_counter() - start
        points.append(
            ScalingPoint(
                size=len(history), seconds=elapsed, nodes=0, verdict=verdict
            )
        )
    return points


def scaling_table(
    label: str, points: Sequence[ScalingPoint]
) -> str:
    """Format scaling measurements for a benchmark printout."""
    lines = [f"{label}:"]
    lines.append(f"  {'mops':>6} {'seconds':>12} {'nodes':>12} verdict")
    for p in points:
        verdict = "BUDGET" if p.budget_exhausted else str(p.verdict)
        lines.append(
            f"  {p.size:>6} {p.seconds:>12.6f} {p.nodes:>12} {verdict}"
        )
    return "\n".join(lines)
