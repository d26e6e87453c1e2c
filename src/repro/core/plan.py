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
base cover edges plus the cover pairs (:meth:`Timeline.next_writer`;
the other D 4.11 pairs are path-implied edges, which FIFO Kahn cannot
see), so it does not depend on the chain the scan walked.
Cross-validated in ``tests/core/test_plan_crossval.py``.

The scan and :class:`repro.core.monitor.LiveMonitor` ask one kernel,
:class:`Timeline`.

Windowed checking
-----------------

``window=N`` bounds the scan's lookback: a read whose visibility mark
reaches more than ``N`` chain positions behind its claimed writer
raises :class:`~repro.errors.WindowExceeded` — a refusal, never a
wrong verdict.  The streaming counterpart,
:class:`repro.core.monitor.LiveMonitor` with a ``window``, bounds
memory instead: every ``N`` announcements it seals the timeline
(:meth:`Timeline.seal`), and a read reaching behind a sealed head is
counted as a refusal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.core.refutation import Refutation, label_cycle
from repro.errors import PlanRefused, RelationError, WindowExceeded
from repro.obs import get_tracer

Pair = Tuple[int, int]

#: Chain position of the initial m-operation.
INIT_POS = -1
#: Mark value below every chain position.
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


class Timeline:
    """The update chain of a Theorem-7 check, and its two questions.

    INIT sits at position -1 and each placed uid (once) at the next;
    per object the timeline holds its writers' positions and uids,
    ascending.  Along a chain that totally orders each object's
    writers, in an acyclic order, writer ``b`` precedes writer ``c``
    iff ``pos(b) < pos(c)``, and ``c`` precedes ``a`` iff ``pos(c) <=
    mark(a)``, the highest position reachable through ``a``'s
    predecessors: D 4.6 and D 4.11 are one bisect each.  After
    :meth:`seal`, a question about a read from behind an object's
    sealed head raises :class:`WindowExceeded` instead of answering.
    """

    __slots__ = ("_pos", "_writers", "_sealed")

    def __init__(self, init_uid: int) -> None:
        self._pos: Dict[int, int] = {init_uid: INIT_POS}
        # obj -> (positions, uids), parallel and ascending.
        self._writers: Dict[str, Tuple[List[int], List[int]]] = {}
        self._sealed: Set[str] = set()

    def __contains__(self, uid: int) -> bool:
        return uid in self._pos

    def position(self, uid: int) -> Optional[int]:
        return self._pos.get(uid)

    def uid_at(self, position: int) -> int:
        """A linear walk: it names the update that closes a cycle."""
        return next(itertools.islice(self._pos, position + 1, None))

    def place(self, uid: int, writes: Iterable[str]) -> int:
        """Give ``uid``, which writes ``writes``, the next position."""
        position = self._pos[uid] = len(self._pos) - 1
        for obj in writes:
            positions, uids = self._writers.setdefault(obj, ([], []))
            positions.append(position)
            uids.append(uid)
        return position

    def overwriter(
        self, reader: int, obj: str, b_pos: int, mark: int
    ) -> Optional[int]:
        """D 4.6: the newest writer ``c != reader`` of ``obj`` at or
        below ``mark``, if it sits after ``b_pos``; else None."""
        if b_pos >= mark:
            return None  # nothing the reader sees lies after its writer
        positions, uids = self._writers_of(obj, b_pos)
        k = bisect_right(positions, mark) - 1
        while k >= 0 and uids[k] == reader:
            k -= 1  # the reader's own write is not a predecessor
        return uids[k] if k >= 0 and positions[k] > b_pos else None

    def next_writer(self, reader: int, obj: str, b_pos: int) -> Optional[int]:
        """The D 4.11 cover pair of a read from ``b_pos``: the first
        writer ``c != reader`` of ``obj`` after it, or None."""
        positions, uids = self._writers_of(obj, b_pos)
        k = bisect_right(positions, b_pos)
        if k < len(uids) and uids[k] == reader:
            k += 1
        return uids[k] if k < len(uids) else None

    def seal(self, floor: int) -> int:
        """Drop writer slots below ``floor`` but, per object, the newest
        (the sealed head).  Returns how many were dropped."""
        dropped = 0
        for obj, (positions, uids) in self._writers.items():
            cut = bisect_left(positions, floor) - 1
            if cut > 0:
                del positions[:cut]
                del uids[:cut]
                self._sealed.add(obj)
                dropped += cut
        return dropped

    @property
    def retained(self) -> int:
        """Writer slots held."""
        return sum(len(positions) for positions, _ in self._writers.values())

    def _writers_of(self, obj: str, b_pos: int):
        positions, uids = self._writers.get(obj, ((), ()))
        if obj in self._sealed and b_pos < positions[0]:
            raise WindowExceeded(f"{obj!r} read from behind its sealed head")
        return positions, uids


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
    (``object-partitioned``).  Under these the chain is a
    :class:`Timeline`, and each read asks it D 4.6 at the reader's
    mark, computed by a forward DP over the cover DAG.

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
    timeline = Timeline(history.init.uid)
    marks = [_NO_MARK] * n
    marks[pos[history.init.uid]] = INIT_POS
    found = chain is None
    for uid in chain or ():
        i = pos.get(uid)  # a chain slot outside this history writes nothing
        cp = timeline.place(uid, () if i is None else history[uid].external_writes)
        if i is not None:
            marks[i] = cp
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
    ready = deque(i for i in range(n) if indegree[i] == 0)
    seen = 0
    ww = found
    while ready:
        i = ready.popleft()
        seen += 1
        mark = marks[i]
        if i in updates:
            uid = uids[i]
            cp = timeline.place(uid, history[uid].external_writes)
            ww = ww and mark == cp - 1
            mark = marks[i] = cp
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

    reads = sorted(index.proper_reads())
    cover = set()
    for (a_uid, obj), b_uid in reads:
        b_pos = timeline.position(b_uid)
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
        c_uid = timeline.overwriter(a_uid, obj, b_pos, limit)
        if c_uid is not None:
            return ScanResult(
                ww=ww,
                refutation=Refutation(
                    "illegal", condition, triple=(a_uid, b_uid, c_uid),
                    obj=obj,
                ),
            )
        c_uid = timeline.next_writer(a_uid, obj, b_pos)
        if c_uid is not None:
            cover.add((a_uid, c_uid))

    rw = tuple(sorted(cover))
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
