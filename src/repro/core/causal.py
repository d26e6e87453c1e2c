"""Causal consistency conditions for m-operations (extension).

The paper's introduction notes that Raynal et al. independently
generalised Herlihy's model to multi-object transactions "but they
focussed on weaker consistency conditions, namely causal consistency
and causal serializability".  This module implements both for
m-operations, adapted from Ahamad et al.'s causal memory and Raynal et
al.'s definitions:

* the **causal order** ``~co`` is the transitive closure of process
  order and the reads-from relation;
* a history is **m-causally consistent** iff for *every process*
  ``P_i`` there is a legal sequential history over all update
  m-operations plus ``P_i``'s own m-operations that respects ``~co``
  — different processes may observe concurrent updates in different
  orders;
* a history is **m-causally serializable** iff additionally one
  update order is shared: there is a single linear extension of
  ``~co`` restricted to updates such that every process's queries can
  be legally inserted into it (respecting ``~co``).

Hierarchy: m-sequential consistency ⟹ m-causal serializability ⟹
m-causal consistency; the *second* implication is strict (the test
suite exhibits concurrent-write histories whose readers disagree on
the update order).  The first is in fact an **equivalence** in this
model: because query m-operations write nothing, the per-process
query insertions into the shared update order can always be merged
into one global legal sequence (queries at the same slot do not
interact), and conversely any global witness projects onto an update
order plus insertions.  :func:`check_m_causal_serializability`
therefore *is* the m-sequential-consistency checker, reporting the
witness's update order.  A genuinely weaker "causal serializability"
would need update transactions whose reads are validated only at
their issuer — a different model.

Complexity: the per-process serializations of m-causal consistency
reuse the exact admissibility search (worst-case exponential).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.admissibility import check_admissible
from repro.core.consistency import check_m_sequential_consistency
from repro.core.history import History
from repro.core.operation import INIT_UID
from repro.core.orders import msc_order
from repro.core.relations import Relation


def causal_order(history: History) -> Relation:
    """``~co``: the transitive closure of ``~p ∪ ~rf`` (with init)."""
    return msc_order(history).transitive_closure()


def restrict_history(history: History, uids: Sequence[int]) -> History:
    """The sub-history over ``uids`` (must be reads-from closed).

    ``uids`` must contain, for every kept m-operation, the writers of
    all its external reads (the initial m-operation is always kept).
    Raises :class:`~repro.errors.MalformedHistoryError` otherwise,
    via history validation.
    """
    keep = set(uids) | {INIT_UID}
    mops = [m for m in history.mops if m.uid in keep]
    reads_from = {
        (reader, obj): writer
        for (reader, obj), writer in history.reads_from_map.items()
        if reader in keep
    }
    initial_values = dict(history.init.external_writes)
    return History.from_mops(
        mops, initial_values=initial_values, reads_from=reads_from
    )


@dataclass
class CausalVerdict:
    """Result of a causal-consistency check.

    Attributes:
        holds: the verdict.
        condition: ``"m-causal"`` or ``"m-causal-serializable"``.
        failing_process: for m-causal consistency, the first process
            with no valid serialization (None when the check holds).
        witnesses: per-process legal serializations (uids) when the
            check holds; for causal serializability, the single update
            order is stored under the key ``-1``.
    """

    holds: bool
    condition: str
    failing_process: Optional[int] = None
    witnesses: Dict[int, List[int]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def check_m_causal_consistency(
    history: History, *, node_limit: Optional[int] = None
) -> CausalVerdict:
    """Is the history m-causally consistent?

    For each process, the sub-history of all updates plus the
    process's own m-operations must be admissible with respect to the
    causal order.
    """
    co = causal_order(history)
    witnesses: Dict[int, List[int]] = {}
    processes = history.processes or (0,)
    for proc in processes:
        keep = [
            m.uid
            for m in history.mops
            if m.is_update or m.process == proc
        ]
        sub = restrict_history(history, keep)
        base = co.restricted_to(sub.uids)
        result = check_admissible(sub, base, node_limit=node_limit)
        if not result.admissible:
            return CausalVerdict(
                False, "m-causal", failing_process=proc
            )
        witnesses[proc] = result.witness or []
    return CausalVerdict(True, "m-causal", witnesses=witnesses)


def is_m_causally_consistent(history: History, **kwargs) -> bool:
    """Boolean shorthand for :func:`check_m_causal_consistency`."""
    return check_m_causal_consistency(history, **kwargs).holds


# ----------------------------------------------------------------------
# Causal serializability
# ----------------------------------------------------------------------


def check_m_causal_serializability(
    history: History, *, node_limit: Optional[int] = None
) -> CausalVerdict:
    """Is the history m-causally serializable?

    Decided by the m-sequential-consistency checker — the two
    conditions coincide in this model (module docstring) — whose
    witness, projected onto the update m-operations, is the shared
    update order into which every process's queries insert.
    """
    verdict = check_m_sequential_consistency(history, node_limit=node_limit)
    if not verdict.holds:
        return CausalVerdict(False, "m-causal-serializable")
    update_order = [
        uid
        for uid in verdict.witness
        if uid != INIT_UID and history[uid].is_update
    ]
    return CausalVerdict(
        True, "m-causal-serializable", witnesses={-1: update_order}
    )


def is_m_causally_serializable(history: History, **kwargs) -> bool:
    """Boolean shorthand for :func:`check_m_causal_serializability`."""
    return check_m_causal_serializability(history, **kwargs).holds
