"""The forward legality scan: Theorem 7's one executor.

Under the OO- or WW-constraint legality (D 4.6) decides admissibility
(Theorem 7).  Along an update chain on which every object's writers
are totally ordered it is a single forward scan: under acyclicity,
update-to-update reachability collapses to chain position comparison,
and "is some writer ordered strictly between ``b`` and its reader"
becomes one binary search per external read against a visibility
*mark* computed by dynamic programming over the cover DAG.  No closure
is materialised — ``O((V + E) log V)`` total.  A static
:class:`~repro.analysis.static.prover.ConstraintCertificate`'s
:meth:`~repro.analysis.static.prover.ConstraintCertificate.chain_for`
hands the chain to :func:`repro.core.consistency.check_condition`:
the bound delivery order (``total-update-order``), the one updater's
process order (``single-updater``), empty (``read-only``), or — for
``object-partitioned`` certificates (every object is accessed by a
single process) without ``~t`` and without ``extra_pairs`` — the
per-process update chains concatenated in process-id order: every
non-initial base edge is then intra-process, so a reader's mark and
the writers of the object it reads all lie in its own process's
segment of the chain.  Without a chain the scan takes its own Kahn pop
order of the updates and sees in the same pass whether it is the WW
total order (:attr:`ScanResult.ww`); only if not does the checker
close ``~H``, to test OO.

:func:`run_scan` reports a linear-size cover of the D 4.11 ``~rw``
pairs and a witness linearization, or the refutation — a cycle or an
illegal read — that stopped it.  The witness is the Kahn order of
:meth:`repro.core.relations.Relation._topo_indices` exactly — same
universe order (``history.uids``), FIFO ready queue, successors
visited in ascending universe position, per-edge deduplication — over
base cover edges plus :func:`repro.core.index.rw_cover_pairs` (the
other D 4.11 pairs are path-implied edges, which FIFO Kahn cannot
see), so it does not depend on the chain the scan walked.
Cross-validated in ``tests/core/test_plan_crossval.py``.

Windowed checking
-----------------

``window=N`` bounds the scan's lookback: a read whose visibility mark
reaches more than ``N`` chain positions behind its claimed writer
raises :class:`~repro.errors.WindowExceeded` — a refusal, never a
wrong verdict.  The *streaming* counterpart (bounded-memory epoch
checkpoints over a live feed) is
:class:`repro.core.monitor.LiveMonitor` with the same ``window``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.history import History
from repro.core.index import HistoryIndex, rw_cover_pairs
from repro.core.refutation import Refutation, label_cycle
from repro.errors import PlanRefused, RelationError, WindowExceeded
from repro.obs import get_tracer

Pair = Tuple[int, int]

#: Mark value below every chain position (INIT sits at -1).
_NO_MARK = -2


@dataclass
class ScanResult:
    """Outcome of one forward legality scan: when it holds, the ``~rw``
    cover and a witness, else the cycle or illegal read that stopped
    it."""

    rw: Tuple[Pair, ...] = ()
    witness: Optional[List[int]] = None
    refutation: Optional[Refutation] = None
    #: the scan found its own chain, and it is the total order of the
    #: updates the WW-constraint (D 4.9) asks for.
    ww: bool = False

    @property
    def holds(self) -> bool:
        return self.refutation is None


def check_window(window: Optional[int]) -> None:
    """Refuse a lookback that is not a positive int (nor a bool)."""
    if window is not None and (
        isinstance(window, bool) or not isinstance(window, int) or window < 1
    ):
        raise ValueError(
            f"window must be a positive int (or None), got {window!r}"
        )


# ----------------------------------------------------------------------
# Scan executor
# ----------------------------------------------------------------------


def _cover_successors(
    history: History,
    condition: str,
    extra_pairs: Tuple[Pair, ...],
) -> Tuple[Dict[int, int], List[Set[int]]]:
    """Adjacency sets (universe positions) of the ``~H`` cover edges
    (:meth:`HistoryIndex.cover_edges`) — deduplicated and irreflexive,
    as :meth:`HistoryIndex.base_relation` holds them in bitmasks."""
    index = HistoryIndex.of(history)
    pos = index.positions
    succ: List[Set[int]] = [set() for _ in pos]
    try:
        for a, b in index.cover_edges(condition, extra_pairs):
            ia = pos[a]
            ib = pos[b]
            if ia != ib:
                succ[ia].add(ib)
    except KeyError as exc:
        raise RelationError(
            f"node {exc.args[0]} is not in the history's "
            "m-operation universe"
        ) from None
    return pos, succ


def _fifo_topo(
    uids: Tuple[int, ...], succ: List[Set[int]]
) -> Optional[List[int]]:
    """Kahn topological order replicating ``Relation._topo_indices``.

    FIFO ready queue seeded in ascending universe position, successors
    visited in ascending position — the exact tie-breaking of the
    bitmask implementation, so a witness is the one
    ``Relation.topological_order`` gives.  None if cyclic.
    """
    n = len(uids)
    adj = [sorted(s) for s in succ]
    indegree = [0] * n
    for targets in adj:
        for j in targets:
            indegree[j] += 1
    ready = deque(i for i in range(n) if indegree[i] == 0)
    order: List[int] = []
    while ready:
        i = ready.popleft()
        order.append(uids[i])
        for j in adj[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if len(order) != n:
        return None
    return order


def _unpopped_cycle(adj: List[List[int]], indegree: List[int]) -> List[int]:
    """A cycle among the positions a Kahn pass left unpopped.

    Each of them keeps an unpopped predecessor (its indegree counts
    exactly those), so walking backwards from the first one must
    revisit a position; the walk from there on, reversed, is a cycle.
    """
    preds: Dict[int, List[int]] = {}
    for i, targets in enumerate(adj):
        if indegree[i]:
            for j in targets:
                if indegree[j]:
                    preds.setdefault(j, []).append(i)
    walk: List[int] = []
    step: Dict[int, int] = {}
    node = min(preds)
    while node not in step:
        step[node] = len(walk)
        walk.append(node)
        node = preds[node][0]
    return walk[step[node]:][::-1]


def run_scan(
    history: History,
    condition: str,
    chain: Optional[Tuple[int, ...]] = None,
    *,
    extra_pairs: Tuple[Pair, ...] = (),
    window: Optional[int] = None,
) -> ScanResult:
    """The forward legality scan (Theorem 7 without a closure).

    Preconditions (discharged by the certificate's ``chain_for``): ``chain``
    lists every non-initial update, and the base order totally orders
    the writers of each object along it — every consecutive chain pair
    is in the base order (via ``extra_pairs`` for
    ``total-update-order``, via ``~p`` for ``single-updater``), or the
    chain is a concatenation of segments no base edge crosses, each
    ordered by ``~p`` and holding all accesses to its objects
    (``object-partitioned``).  Under these, for writers ``b, c`` of
    one object in an acyclic base: ``b ~H+ c`` iff ``chainpos(b) <
    chainpos(c)``, and ``c ~H+ a`` iff ``chainpos(c) <= mark(a)``
    where ``mark(a)`` is the maximum chain position reachable through
    ``a``'s predecessors (a forward DP over the cover DAG).  D 4.6
    then reads: some writer of ``x`` other than the reader sits at a
    chain position in ``(pos(b), mark(a)]`` — one binary search per
    external read.

    Without a ``chain`` the updates' Kahn pop order is the chain.  It
    is total (D 4.9, :attr:`ScanResult.ww`) iff each update's
    predecessor mark is the position of the update popped just before
    it.  Under OO (D 4.8) it also meets the preconditions — every
    writer of ``x`` is ordered with every access to ``x`` — which the
    caller decides on the closure.

    With ``window`` set, a read whose mark reaches more than
    ``window`` positions behind its claimed writer raises
    :class:`WindowExceeded` (refusal, not a verdict).

    A legal result carries the ``~rw`` cover (per read, the next writer
    of the object on the chain); the witness orders ``~H`` plus it.
    """
    uids = history.uids
    index = HistoryIndex.of(history)
    pos, succ = _cover_successors(history, condition, extra_pairs)
    n = len(uids)
    found = chain is None
    chain = [] if found else chain
    chain_pos: Dict[int, int] = {history.init.uid: -1}
    chain_pos.update((uid, i) for i, uid in enumerate(chain))
    # Without a chain each update takes the next position as it pops
    # (update_uids lists the initial m-operation first).
    updates = {pos[uid] for uid in index.update_uids[1:]} if found else ()

    # Kahn pass: acyclicity + the mark DP in one sweep (a node's mark
    # is final when it is popped, since all predecessors popped first).
    adj = [sorted(s) for s in succ]
    indegree = [0] * n
    for targets in adj:
        for j in targets:
            indegree[j] += 1
    marks = [_NO_MARK] * n
    for uid, cp in chain_pos.items():
        i = pos.get(uid)
        if i is not None:
            marks[i] = cp
    ready = deque(i for i in range(n) if indegree[i] == 0)
    seen = 0
    ww = found
    while ready:
        i = ready.popleft()
        seen += 1
        mark = marks[i]
        if i in updates:
            ww = ww and mark == len(chain) - 1
            mark = marks[i] = chain_pos[uids[i]] = len(chain)
            chain.append(uids[i])
        for j in adj[i]:
            if marks[j] < mark:
                marks[j] = mark
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if seen != n:
        cycle = [uids[i] for i in _unpopped_cycle(adj, indegree)]
        return ScanResult(
            refutation=label_cycle(history, condition, extra_pairs, cycle)
        )

    # Per-object writer positions, ascending by chain construction.
    writer_pos: Dict[str, List[int]] = {}
    writer_uid: Dict[str, List[int]] = {}
    for cp, uid in enumerate(chain):
        if uid not in pos:
            continue  # chain slot for an m-op outside this history
        for obj in history[uid].external_writes:
            writer_pos.setdefault(obj, []).append(cp)
            writer_uid.setdefault(obj, []).append(uid)

    reads = sorted(index.proper_reads())
    for (a_uid, obj), b_uid in reads:
        b_pos = chain_pos.get(b_uid)
        if b_pos is None:
            raise PlanRefused(
                f"writer m#{b_uid} of {obj!r} is not on the update "
                "chain; the scan strategy cannot order it"
            )
        limit = marks[pos[a_uid]]
        if window is not None and limit - b_pos > window:
            raise WindowExceeded(
                f"m#{a_uid} reads {obj!r} from m#{b_uid} at chain "
                f"position {b_pos}, {limit - b_pos} positions behind "
                f"its visibility mark {limit} (> window {window})"
            )
        positions = writer_pos.get(obj)
        if not positions:
            continue
        k = bisect_right(positions, limit) - 1
        names = writer_uid[obj]
        while k >= 0 and names[k] == a_uid:
            k -= 1
        if k >= 0 and positions[k] > b_pos:
            return ScanResult(
                ww=ww,
                refutation=Refutation(
                    "illegal", condition, triple=(a_uid, b_uid, names[k]),
                    obj=obj,
                ),
            )

    rw = tuple(rw_cover_pairs(reads, writer_uid, chain_pos))
    with get_tracer().span(
        "check.witness", reads=len(reads), rw_edges=len(rw)
    ):
        for a_uid, c_uid in rw:
            succ[pos[a_uid]].add(pos[c_uid])
        witness = _fifo_topo(uids, succ)
    # Only a found chain that is not D 4.9's order may leave OO unproved.
    assert witness is not None or (found and not ww), (
        "Lemma 3/4 violated: extended relation of a legal "
        "constrained history is cyclic"
    )
    return ScanResult(rw=rw, witness=witness, ww=ww)
