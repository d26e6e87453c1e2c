"""Exact admissibility checking (D 4.7) — the NP-complete core.

A history ``H`` is *admissible* with respect to an order ``~H`` iff it
is equivalent to some **legal sequential** history that respects
``~H`` (Section 2.2).  Theorems 1 and 2 show that deciding this is
NP-complete for the orders that define m-sequential consistency and
m-linearizability, so this module implements an exact branch-and-bound
search over linear extensions, with the prunings that make it usable
as a ground-truth oracle on histories of realistic size:

1. **Necessary-condition pre-checks** — the base order must be acyclic
   and the history must be legal w.r.t. its closure (Lemma 6: an
   admissible history is legal).
2. **Constraint propagation** — the iterated ``~rw`` extension
   (D 4.11/D 4.12) adds forced precedences before the search starts;
   if the extension is cyclic the history is inadmissible outright.
   Each round re-closes the sparse generators (``~H`` plus the
   ``~rw`` pairs found so far), and the search reads its predecessor
   rows straight off the last closure's cached rows.
3. **Safe moves** — a schedulable *query* m-operation can always be
   scheduled immediately (it changes no object version, so deferring
   it never helps); such moves are taken without branching.
4. **Dead-end detection** — once the write an unscheduled reader must
   read from has been overwritten, no completion exists; the branch is
   abandoned at the moment of overwrite rather than at exhaustion.
5. **Memoization** — failed search states, keyed by the scheduled set
   and the current last-writer map, are never re-explored.

The search state is ``(scheduled mask, last-writer per object)``; an
m-operation is schedulable when all its predecessors under the
(extended) base order are scheduled and, for every object it reads,
the current last writer is exactly the writer its reads-from entry
demands.  A process *view* (m-causal consistency) is a position mask
over the whole history, whose index and base closure serve every view:
the m-operations outside it start out scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.constraints import extended_relation
from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.core.legality import is_legal_sequence
from repro.core.relations import Relation


@dataclass
class SearchStats:
    """Instrumentation of one admissibility search.

    Attributes:
        nodes: branch-and-bound nodes expanded.
        memo_hits: number of already-failed states re-encountered.
        dead_ends: branches cut by the overwritten-writer test.
        pruned_illegal: histories rejected by the legality pre-check.
        pruned_cyclic: histories rejected by a cyclic (extended) order.
    """

    nodes: int = 0
    memo_hits: int = 0
    dead_ends: int = 0
    pruned_illegal: bool = False
    pruned_cyclic: bool = False


@dataclass
class AdmissibilityResult:
    """Outcome of an admissibility check.

    Attributes:
        admissible: the verdict.
        witness: a legal linear extension (uids, initial m-operation
            first) when admissible; None otherwise.
        stats: search instrumentation.
    """

    admissible: bool
    witness: Optional[List[int]]
    stats: SearchStats = field(default_factory=SearchStats)

    def __bool__(self) -> bool:
        return self.admissible


def check_admissible(
    history: History,
    base: Relation,
    *,
    view: Optional[int] = None,
    propagate_rw: bool = True,
    node_limit: Optional[int] = None,
    use_memo: bool = True,
    use_dead_end: bool = True,
    use_safe_moves: bool = True,
    use_legality_precheck: bool = True,
) -> AdmissibilityResult:
    """Decide admissibility of ``history`` w.r.t. the order ``base``.

    Args:
        history: the history under test.
        base: the generating order ``~H`` (process order, reads-from,
            real-time order ... as appropriate for the consistency
            condition; see :mod:`repro.core.orders`).
        view: decide the sub-history whose ``history.uids`` positions
            are set in this mask instead: the initial m-operation,
            every update and some queries (an m-causal process view).
            The others start out scheduled, their reads ignored; paths
            and cycles of ``base`` through them still count.
        propagate_rw: apply the iterated D 4.11 extension before the
            search.  Sound for any history (see
            :func:`repro.core.constraints.extended_relation`); disable
            only to measure its effect.
        node_limit: abort the search (raising :class:`SearchBudget
            Exceeded`) after this many expanded nodes.
        use_memo: memoize failed (scheduled-set, last-writer) states.
        use_dead_end: cut branches whose pending readers can no longer
            be satisfied (their required writer was overwritten).
        use_safe_moves: schedule schedulable queries immediately
            without branching (sound by an exchange argument).
        use_legality_precheck: reject illegal histories outright
            (Lemma 6) before searching.

        The four ``use_*`` switches and ``propagate_rw`` exist for the
        pruning-ablation experiment; production callers leave them on.

    Returns:
        An :class:`AdmissibilityResult`; its ``witness`` is verified
        legal by construction and cross-checked with
        :func:`~repro.core.legality.is_legal_sequence` before return.
    """
    stats = SearchStats()

    # The initial m-operation precedes everything (Section 2.1); make
    # that explicit even if the caller's base order omitted it, so the
    # search always schedules it first.  The copy shares the caller's
    # cached transitive closure (see Relation.copy), so when the base
    # comes from the history index — which already carries the initial
    # fan-out — the pre-check closure below costs nothing extra.
    if set(history.uids) - set(base.nodes):
        rebuilt = Relation(history.uids)
        rebuilt.add_all(base.pairs())
        base = rebuilt
    else:
        base = base.copy()
    for mop in history.mops:
        if (history.init.uid, mop.uid) not in base:
            base.add(history.init.uid, mop.uid)

    closure = base.transitive_closure()
    if not closure.is_acyclic():
        stats.pruned_cyclic = True
        return AdmissibilityResult(False, None, stats)
    index = HistoryIndex.of(history)
    if use_legality_precheck and not index.legal_under(closure, view):
        # Lemma 6: admissibility implies legality.
        stats.pruned_illegal = True
        return AdmissibilityResult(False, None, stats)

    if propagate_rw:
        closure = extended_relation(history, base, iterate=True, view=view)
        if not closure.is_acyclic():
            stats.pruned_cyclic = True
            return AdmissibilityResult(False, None, stats)

    witness = _search(
        history,
        closure,
        stats,
        node_limit,
        view=view,
        use_memo=use_memo,
        use_dead_end=use_dead_end,
        use_safe_moves=use_safe_moves,
    )
    if witness is not None:
        assert is_legal_sequence(history, witness, view=view), (
            "internal error: search produced a non-legal witness"
        )
    return AdmissibilityResult(witness is not None, witness, stats)


class SearchBudgetExceeded(RuntimeError):
    """The exact admissibility search exceeded its node budget."""


def _search(
    history: History,
    closure: Relation,
    stats: SearchStats,
    node_limit: Optional[int],
    *,
    view: Optional[int] = None,
    use_memo: bool = True,
    use_dead_end: bool = True,
    use_safe_moves: bool = True,
) -> Optional[List[int]]:
    """Branch-and-bound over legal linear extensions of ``closure``
    (restricted to ``view``: the rest starts out scheduled)."""
    uids: Tuple[int, ...] = history.uids
    n = len(uids)
    index = HistoryIndex.of(history).positions
    objects = sorted(history.objects)
    obj_index = {obj: i for i, obj in enumerate(objects)}
    full_mask = (1 << n) - 1
    view = full_mask if view is None else view

    # Predecessor masks from the (extended) order's cached rows.
    pred_mask = HistoryIndex.of(history).closure_rows(closure).pred

    # Per-m-operation external read requirements and writes.
    reads: List[List[Tuple[int, int]]] = [[] for _ in range(n)]  # (obj, writer)
    writes: List[List[int]] = [[] for _ in range(n)]
    readers_of: Dict[int, List[int]] = {}  # obj index -> reader mop indices
    for i, uid in enumerate(uids):
        if not view >> i & 1:
            continue
        mop = history[uid]
        for obj in mop.external_reads:
            writer = history.writer_of(uid, obj)
            oi = obj_index[obj]
            reads[i].append((oi, index[writer]))
            readers_of.setdefault(oi, []).append(i)
        for obj in mop.external_writes:
            writes[i].append(obj_index[obj])

    init_idx = index[history.init.uid]
    failed: Set[Tuple[int, Tuple[int, ...]]] = set()

    # last_writer: tuple over objects of the writing mop index (or -1).
    NO_WRITER = -1

    def schedulable(i: int, done: int, last_writer: Tuple[int, ...]) -> bool:
        if done >> i & 1:
            return False
        if pred_mask[i] & ~done:
            return False
        return all(last_writer[oi] == w for oi, w in reads[i])

    def dead(done: int, last_writer: Tuple[int, ...]) -> bool:
        """Some unscheduled reader's required writer is overwritten."""
        for oi, readers in readers_of.items():
            current = last_writer[oi]
            for i in readers:
                if done >> i & 1:
                    continue
                for roi, w in reads[i]:
                    if roi != oi:
                        continue
                    # Dead when the required writer already ran but is
                    # no longer (and hence never again) the last writer.
                    if done >> w & 1 and current != w:
                        return True
        return False

    def apply(i: int, last_writer: Tuple[int, ...]) -> Tuple[int, ...]:
        if not writes[i]:
            return last_writer
        lst = list(last_writer)
        for oi in writes[i]:
            lst[oi] = i
        return tuple(lst)

    def visit(done: int, last_writer: Tuple[int, ...]):
        """Expand one node: True when every m-operation is scheduled,
        False when the node fails outright, else the candidates to
        branch on, in the order they are tried."""
        stats.nodes += 1
        if node_limit is not None and stats.nodes > node_limit:
            raise SearchBudgetExceeded(
                f"admissibility search exceeded {node_limit} nodes"
            )
        if done == full_mask:
            return True
        key = (done, last_writer)
        if use_memo and key in failed:
            stats.memo_hits += 1
            return False
        if use_dead_end and dead(done, last_writer):
            stats.dead_ends += 1
            failed.add(key)
            return False

        candidates = [
            i for i in range(n) if schedulable(i, done, last_writer)
        ]
        # Safe move: a query changes no object version; scheduling it
        # now can never hurt, so commit without branching.
        if use_safe_moves:
            for i in candidates:
                if not writes[i]:
                    return [i]
        return candidates

    # Depth-first over an explicit stack (one frame per scheduled
    # m-operation, so a long history cannot exhaust the interpreter's
    # recursion limit): each frame is a node's state and its untried
    # candidates; ``prefix`` holds the candidate taken at each frame
    # below the top.  A node whose candidates are exhausted fails and
    # is memoized.
    prefix: List[int] = []
    state = (full_mask ^ view, tuple([NO_WRITER] * len(objects)))
    outcome = visit(*state)
    stack: List[Tuple[Tuple[int, Tuple[int, ...]], Iterator[int]]] = []
    while outcome is not True:
        if outcome is False:
            if not stack:
                return None
            prefix.pop()
        else:
            stack.append((state, iter(outcome)))
        while True:
            (done, last_writer), untried = stack[-1]
            i = next(untried, None)
            if i is not None:
                break
            stack.pop()
            failed.add((done, last_writer))
            if not stack:
                return None
            prefix.pop()
        prefix.append(i)
        state = (done | (1 << i), apply(i, last_writer))
        outcome = visit(*state)
    assert prefix[0] == init_idx
    return [uids[i] for i in prefix]


def count_legal_linearizations(
    history: History, base: Relation, *, limit: int = 100000
) -> int:
    """Count legal linear extensions of ``base`` (up to ``limit``).

    Exhaustive — exponential; used by tests on tiny histories to
    cross-validate the branch-and-bound search against brute force.
    """
    closure = base.transitive_closure()
    if not closure.is_acyclic():
        return 0
    count = 0
    for order in closure.linear_extensions(limit=limit):
        if is_legal_sequence(history, order):
            count += 1
    return count
