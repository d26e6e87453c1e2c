"""Execution constraints and the extended relation (Section 4).

The paper adopts Mizuno et al.'s execution constraints so that
admissibility — NP-complete in general — becomes efficiently checkable:

* **WW-constraint** (D 4.9): every pair of update m-operations is
  ordered under ``~H``.
* **OO-constraint** (D 4.8): every pair of *conflicting* m-operations
  is ordered under ``~H``.
* **WO-constraint** (D 4.10): every pair of m-operations writing a
  common object is ordered (the intersection of OO and WW; both imply
  it).

Under WW or OO, simply extending ``~H`` to a total order can yield
non-legal sequential histories (Figures 2 and 3), so the paper defines
the logical read-write precedence (D 4.11)::

    a ~rw c  iff  ∃ b : interfere(H, a, b, c) ∧ b ~H c

and the extended relation (D 4.12) ``~H+ = (~H ∪ ~rw)+``.  Lemmas 3-5
prove that when the history is legal and under OO/WW constraint,
``~H+`` is an irreflexive partial order and *any* linear extension of
it is legal — which is exactly what :func:`extended_relation` plus
:meth:`~repro.core.relations.Relation.topological_order` deliver.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.core.legality import conflict
from repro.core.relations import Relation


def _ordered(closure: Relation, a_uid: int, b_uid: int) -> bool:
    return (a_uid, b_uid) in closure or (b_uid, a_uid) in closure


def _orders_all(
    history: History, closure: Relation, masks: Sequence[int]
) -> bool:
    """True iff the closed order relates every pair ``(i, j)`` with bit
    ``j`` set in ``masks[i]``, one way or the other: each mask must sit
    inside ``succ*[i] | pred*[i]``.  Holds on cyclic closures too."""
    rows = HistoryIndex.of(history).closure_rows(closure)
    return not any(
        mask & ~(after | before)
        for mask, after, before in zip(masks, rows.succ, rows.pred)
    )


def unordered_update_pairs(
    history: History, closure: Relation
) -> Iterator[Tuple[int, int]]:
    """Pairs of update m-operations not ordered by the closure —
    the D 4.9 definition spelled out, for diagnostics."""
    updates = [m for m in history.all_mops if m.is_update]
    for i, a in enumerate(updates):
        for b in updates[i + 1 :]:
            if not _ordered(closure, a.uid, b.uid):
                yield (a.uid, b.uid)


def satisfies_ww(history: History, closure: Relation) -> bool:
    """D 4.9: every pair of update m-operations is ordered."""
    return _orders_all(
        history, closure, HistoryIndex.of(history).update_masks
    )


def unordered_conflicting_pairs(
    history: History, closure: Relation
) -> Iterator[Tuple[int, int]]:
    """Pairs of conflicting m-operations not ordered by the closure —
    the D 4.8 definition spelled out, for diagnostics."""
    mops = history.all_mops
    for i, a in enumerate(mops):
        for b in mops[i + 1 :]:
            if conflict(a, b) and not _ordered(closure, a.uid, b.uid):
                yield (a.uid, b.uid)


def satisfies_oo(history: History, closure: Relation) -> bool:
    """D 4.8: every pair of conflicting m-operations is ordered."""
    return _orders_all(
        history, closure, HistoryIndex.of(history).conflict_masks
    )


def satisfies_wo(history: History, closure: Relation) -> bool:
    """D 4.10: m-operations writing a common object are ordered.

    Both OO- and WW-constraints imply WO (the paper uses WO to factor
    the proofs common to both).
    """
    return _orders_all(
        history, closure, HistoryIndex.of(history).write_conflict_masks
    )


def rw_pairs(history: History, closure: Relation) -> List[Tuple[int, int]]:
    """D 4.11: the logical read-write precedence ``~rw``.

    ``a ~rw c`` iff some ``b`` exists with ``interfere(H, a, b, c)``
    and ``b ~H c``.  Intuitively, in any legal sequential history
    equivalent to ``H``, the overwriter ``c`` must come after the
    reader ``a``.

    Args:
        history: the history.
        closure: transitive closure of the base order ``~H``.
    """
    return HistoryIndex.of(history).rw_pairs_under(closure)


def extended_relation(
    history: History, base: Relation, *, iterate: bool = False,
    view: Optional[int] = None,
) -> Relation:
    """D 4.12: the extended relation ``~H+ = (~H ∪ ~rw)+``.

    Args:
        history: the history.
        base: the generating order ``~H`` (need not be closed).
        iterate: the paper's definition computes ``~rw`` once, from
            ``~H`` (this is sufficient under WO-constraint, Lemma 5).
            With ``iterate=True`` the ``~rw`` derivation is repeated to
            a fixpoint — every new edge can reveal further forced
            precedences — which gives a strictly stronger (still sound)
            relation useful as constraint propagation for the exact
            checker on *unconstrained* histories.  Each round closes
            the sparse generators — ``base`` plus every ``~rw`` pair
            found so far — never the previous round's closure.
        view: derive ``~rw`` from the reads of the m-operations whose
            position bit is set only (a process view).

    Returns:
        The transitive closure of ``~H ∪ ~rw``.  The result may be
        cyclic (contain ``a ~ b`` and ``b ~ a``); Lemmas 3/4 guarantee
        acyclicity only when the history is legal and under OO/WW
        constraint, and callers use
        :meth:`~repro.core.relations.Relation.is_acyclic` to test.
    """
    index = HistoryIndex.of(history)
    generators = base.copy()
    closure = base.transitive_closure()
    while True:
        new_pairs = [
            p for p in index.rw_pairs_under(closure, view) if p not in closure
        ]
        if not new_pairs:
            return closure
        generators.add_all(new_pairs)
        closure = generators.transitive_closure()
        if not iterate:
            return closure


def is_data_race_free(history: History) -> bool:
    """DRF: no two *conflicting* m-operations overlap in real time.

    Section 4's alternate discipline: "impose constraints on the
    program execution (data race free (DRF) and concurrent write free
    (CWF)).  The system can then provide weaker guarantees and have
    better performance.  The onus of enforcing these constraints then
    lies with the programmer."  This predicate decides, post hoc,
    whether an execution honoured the stronger of the two.

    Requires a timed history.
    """
    mops = history.mops
    for i, a in enumerate(mops):
        for b in mops[i + 1 :]:
            if conflict(a, b) and a.overlaps(b):
                return False
    return True


def is_concurrent_write_free(history: History) -> bool:
    """CWF: no two m-operations writing a common object overlap.

    The weaker Section-4 program constraint: write/write races are
    excluded, read/write races are permitted.  Requires a timed
    history.
    """
    updates = [m for m in history.mops if m.is_update]
    for i, a in enumerate(updates):
        for b in updates[i + 1 :]:
            if a.wobjects & b.wobjects and a.overlaps(b):
                return False
    return True


def constraint_report(history: History, base: Relation) -> dict:
    """A diagnostic summary of which constraints a history satisfies."""
    closure = base.transitive_closure()
    return {
        "ww": satisfies_ww(history, closure),
        "oo": satisfies_oo(history, closure),
        "wo": satisfies_wo(history, closure),
        "rw_pairs": rw_pairs(history, closure),
        "base_acyclic": closure.is_acyclic(),
        "extended_acyclic": extended_relation(history, base).is_acyclic(),
    }
