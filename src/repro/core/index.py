"""Shared derived-data layer over a history (the "history index").

Every checking layer in this package — the Section 2.3 checkers, the
Theorem 7 constraint tests, legality (D 4.6), diagnostics, the
admissibility search, the live monitor and the chaos audits — needs
the same derived data: per-process chains, per-object writer
timelines and masks, the reads-from edges, the update / conflict /
co-writer masks (D 4.8-D 4.10), and the generating orders
``~p ∪ ~rf [∪ ~t | ∪ ~x]`` with their transitive closures.  Before
this layer each consumer rebuilt all of that from scratch;
:class:`HistoryIndex` computes each piece once per history and caches
it, and :class:`LiveIndex` maintains the same state incrementally for
streaming consumers (protocol recorder, chaos harness) so an audit
never rebuilds a :class:`~repro.core.history.History`.

Cover edges
-----------

The cached generating orders are built from *cover* edges whose
transitive closure equals the full paper order:

* ``~p`` — each process's chain, ``n - 1`` edges (Section 2.1 orders
  are total per process, so the chain's closure is the full order).
* ``~t`` — an interval order (``resp(a) < inv(b)``); sweep m-operations
  by invocation and link each to only the *maximal* already-responded
  predecessors.  An already-responded ``a`` is non-maximal iff some
  responded ``c`` has ``inv(c) > resp(a)``, i.e. iff
  ``resp(a) < max-inv-so-far``; everything it precedes is then reached
  through ``c`` transitively.  Closure equals the full ``~t``.
* ``~x`` — the same sweep per object (``~x`` restricted to one
  object's m-operations is again an interval order, and ``~x`` is the
  union over objects).

This turns the ``O(n²)``-pair order construction that dominated the
constrained checker into near-linear cover generation plus one cached
sparse closure.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.history import History
from repro.core.operation import INIT_UID
from repro.core.relations import ClosureRows, IncrementalClosure, Relation
from repro.errors import MissingTimestampsError, WindowExceeded

#: ``(a, b, c)``: ``a`` reads from ``b`` some object that ``c`` writes.
InterferingTriple = Tuple[int, int, int]

Pair = Tuple[int, int]

#: condition name -> (include ``~t``, include ``~x``).
CONDITION_ORDERS: Mapping[str, Tuple[bool, bool]] = {
    "m-sc": (False, False),
    "m-lin": (True, False),
    "m-norm": (False, True),
}


@dataclass(frozen=True)
class IndexStats:
    """Size/structure summary of an indexed history."""

    mops: int
    updates: int
    queries: int
    objects: int
    processes: int
    reads_from_edges: int
    interfering_triples: int

    def row(self) -> str:
        return (
            f"{self.mops} mops ({self.updates} upd / {self.queries} qry), "
            f"{self.objects} objects, {self.processes} processes, "
            f"{self.reads_from_edges} rf edges, "
            f"{self.interfering_triples} interfering triples"
        )


def _interval_cover(items: List[Tuple[float, float, int]]) -> List[Pair]:
    """Cover edges of the interval order ``resp(a) < inv(b)``.

    ``items`` are ``(inv, resp, uid)`` triples.  Returns edges whose
    transitive closure equals the full interval order: sweeping by
    invocation, each m-operation is linked to exactly the maximal
    elements of its predecessor set (the responded m-operations whose
    response is at least the running maximum invocation among responded
    ones — anything earlier is dominated transitively).
    """
    items = sorted(items)
    heap: List[Tuple[float, int, float]] = []  # (resp, uid, inv), pending
    resp_sorted: List[float] = []  # responded, ascending resp
    uid_by_resp: List[int] = []
    max_inv = float("-inf")  # max inv among responded
    edges: List[Pair] = []
    for inv, resp, uid in items:
        while heap and heap[0][0] < inv:
            r, u, iv = heapq.heappop(heap)
            resp_sorted.append(r)
            uid_by_resp.append(u)
            if iv > max_inv:
                max_inv = iv
        if resp_sorted:
            # a responded m-op `a` is maximal iff resp(a) >= max_inv:
            # otherwise some responded c has inv(c) > resp(a), so
            # a ~t c ~t current and the edge is redundant.
            start = bisect_left(resp_sorted, max_inv)
            for j in range(start, len(resp_sorted)):
                edges.append((uid_by_resp[j], uid))
        heapq.heappush(heap, (resp, uid, inv))
    return edges


def rw_cover_pairs(
    reads: Iterable[Tuple[Tuple[int, str], int]],
    writers: Mapping[str, Iterable[int]],
    rank: Mapping[int, int],
) -> List[Pair]:
    """Cover of the D 4.11 ``~rw`` pairs over totally ordered writers.

    ``reads`` are proper reads-from edges ``((a, x), b)`` and ``rank``
    sorts the writers ``writers[x]`` of each object into their ``~H+``
    order — a chain under OO/WW (Theorem 7).  Of all the pairs
    ``a ~rw c`` (``c`` a writer of ``x`` after ``b``) only the first
    ``c`` other than ``a`` needs an edge: the rest follow along the
    chain.  At most one pair per read, same transitive closure.
    """
    chains: Dict[str, Tuple[List[int], List[int]]] = {}
    pairs = set()
    for (a_uid, obj), b_uid in reads:
        if obj not in chains:
            names = sorted(writers.get(obj, ()), key=rank.__getitem__)
            chains[obj] = ([rank[uid] for uid in names], names)
        keys, names = chains[obj]
        k = bisect_right(keys, rank[b_uid])
        if k < len(names) and names[k] == a_uid:
            k += 1
        if k < len(names):
            pairs.add((a_uid, names[k]))
    return sorted(pairs)


class HistoryIndex:
    """Cached derived data for one :class:`History`.

    Obtain via :meth:`HistoryIndex.of` — the instance is cached on the
    history, so every layer touching the same history (the three
    checkers, legality, diagnostics, metrics, the CLI) shares one
    index and therefore one copy of each derived structure.

    The relations returned by :meth:`base_relation` are shared cached
    objects: treat them as immutable and :meth:`~Relation.copy` before
    mutating (the copy still shares the cached closure until its first
    mutation).
    """

    __slots__ = (
        "history",
        "_chains",
        "_writer_timelines",
        "_rf_pairs",
        "_update_uids",
        "_client_updates",
        "_triples",
        "_positions",
        "_update_masks",
        "_conflict_masks",
        "_writer_masks",
        "_write_conflict_masks",
        "_bases",
    )

    def __init__(self, history: History) -> None:
        self.history = history
        self._chains: Optional[Dict[int, Tuple[int, ...]]] = None
        self._writer_timelines: Optional[Dict[str, Tuple[int, ...]]] = None
        self._rf_pairs: Optional[Tuple[Pair, ...]] = None
        self._update_uids: Optional[Tuple[int, ...]] = None
        self._client_updates: Optional[Tuple[Tuple[int, int], ...]] = None
        self._triples: Optional[Tuple[InterferingTriple, ...]] = None
        self._positions: Dict[int, int] = {
            uid: i for i, uid in enumerate(history.uids)
        }
        self._update_masks: Optional[List[int]] = None
        self._conflict_masks: Optional[List[int]] = None
        self._writer_masks: Optional[Dict[str, int]] = None
        self._write_conflict_masks: Optional[List[int]] = None
        self._bases: Dict[Tuple[str, Tuple[Pair, ...]], Relation] = {}

    @classmethod
    def of(cls, history: History) -> "HistoryIndex":
        """The history's index, created on first use and cached on it."""
        cached = history._index_cache
        if cached is None:
            cached = cls(history)
            history._index_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    @property
    def process_chains(self) -> Dict[int, Tuple[int, ...]]:
        """Per-process uid chains in issue order (``H|P``, Section 2.2)."""
        if self._chains is None:
            self._chains = {
                proc: tuple(m.uid for m in self.history.subhistory(proc))
                for proc in self.history.processes
            }
        return self._chains

    @property
    def writer_timelines(self) -> Dict[str, Tuple[int, ...]]:
        """Per-object writer uids, initial m-operation first.

        Ordered by response time when the history is timed, listing
        order otherwise — a deterministic timeline either way.
        """
        if self._writer_timelines is None:
            timelines: Dict[str, List[int]] = {
                obj: [INIT_UID] for obj in self.history.init.wobjects
            }
            mops = self.history.mops
            if self.history.is_timed:
                mops = tuple(sorted(mops, key=lambda m: (m.resp, m.uid)))
            for mop in mops:
                for obj in mop.wobjects:
                    timelines.setdefault(obj, [INIT_UID]).append(mop.uid)
            self._writer_timelines = {
                obj: tuple(uids) for obj, uids in timelines.items()
            }
        return self._writer_timelines

    @property
    def reads_from_pairs(self) -> Tuple[Pair, ...]:
        """Sorted ``(writer, reader)`` pairs of ``~rf`` (D 4.3)."""
        if self._rf_pairs is None:
            self._rf_pairs = tuple(sorted(self.history.reads_from_pairs()))
        return self._rf_pairs

    @property
    def update_uids(self) -> Tuple[int, ...]:
        """uids of update m-operations, initial one included (D 4.5)."""
        if self._update_uids is None:
            self._update_uids = tuple(
                m.uid for m in self.history.all_mops if m.is_update
            )
        return self._update_uids

    @property
    def client_updates(self) -> Tuple[Tuple[int, int], ...]:
        """``(uid, process)`` of non-initial update m-operations.

        The structural facts certificate audits consume
        (:meth:`repro.analysis.static.ConstraintCertificate.audit`):
        cached here so repeated certified checks on one history pay
        the O(n) scan once.
        """
        if self._client_updates is None:
            init_uid = self.history.init.uid
            self._client_updates = tuple(
                (m.uid, m.process)
                for m in self.history.all_mops
                if m.is_update and m.uid != init_uid
            )
        return self._client_updates

    def interfering_triples(self) -> Tuple[InterferingTriple, ...]:
        """All interfering triples ``(a, b, c)`` (D 4.2), cached.

        For every reads-from edge ``b --x--> a`` and every other writer
        ``c`` of ``x``, the triple interferes.  This is the definition
        spelled out — quadratic in the worst case — for tests and
        callers that want the triples themselves; the checks below
        decide D 4.6 and D 4.11 per read without it.
        """
        if self._triples is None:
            triples: Dict[InterferingTriple, None] = {}
            timelines = self.writer_timelines
            for (a_uid, obj), b_uid in self.proper_reads():
                for c_uid in timelines[obj]:
                    if c_uid != a_uid and c_uid != b_uid:
                        triples[(a_uid, b_uid, c_uid)] = None
            self._triples = tuple(triples)
        return self._triples

    # ------------------------------------------------------------------
    # Legality against a closure (D 4.6)
    # ------------------------------------------------------------------

    def closure_rows(self, closure: Relation) -> ClosureRows:
        """``closure``'s ``succ*`` / ``pred*`` rows by history position.

        Every order from :meth:`base_relation` is over the history's
        own uid universe and hands out its rows as they are.
        :func:`~repro.core.admissibility.check_admissible` also takes a
        caller-built base over a permuted or larger universe: that one
        is first restricted to the history's uids, in their order, so
        each check below has one form.
        """
        if closure.nodes != self.history.uids:
            known = self._positions
            closure = Relation(
                self.history.uids,
                (
                    (a, b)
                    for a, b in closure.transitive_closure().pairs()
                    if a != b and a in known and b in known
                ),
            )
        return closure.closure_rows()

    def _overwritten_reads(
        self, closure: Relation
    ) -> Iterator[Tuple[int, int, str, int]]:
        """D 4.6 as a per-read predicate.

        Yields ``(a, b, x, mask)`` for each proper read ``((a, x), b)``
        that the closed order ``closure`` makes illegal: ``mask`` holds
        the positions of the writers of ``x`` other than ``a`` and
        ``b`` ordered strictly between them, ``succ*[b] & pred*[a]``
        cut down to the object's writers.
        """
        rows = self.closure_rows(closure)
        succ, pred = rows.succ, rows.pred
        pos = self._positions
        writer_masks = self.writer_masks
        for (a_uid, obj), b_uid in self.proper_reads():
            ia, ib = pos[a_uid], pos[b_uid]
            between = succ[ib] & pred[ia] & writer_masks[obj]
            if between:
                # on a cycle a and b lie between themselves
                between &= ~(1 << ia | 1 << ib)
                if between:
                    yield a_uid, b_uid, obj, between

    def legal_under(self, closure: Relation) -> bool:
        """D 4.6 against the transitive closure of the order under
        test: no read has an overwriter between its writer and itself.
        One mask test per read."""
        return next(self._overwritten_reads(closure), None) is None

    def illegal_triples_under(
        self, closure: Relation
    ) -> List[InterferingTriple]:
        """The D 4.6-violating triples, in :meth:`interfering_triples`
        order — diagnostic twin of :meth:`legal_under`."""
        pos = self._positions
        timelines = self.writer_timelines
        bad: Dict[InterferingTriple, None] = {}
        for a_uid, b_uid, obj, between in self._overwritten_reads(closure):
            for c_uid in timelines[obj]:
                if between >> pos[c_uid] & 1:
                    bad[(a_uid, b_uid, c_uid)] = None
        return list(bad)

    def proper_reads(self) -> List[Tuple[Tuple[int, str], int]]:
        """Reads-from edges ``((a, x), b)`` with ``a != b`` (D 4.2)."""
        return [
            (key, b_uid)
            for key, b_uid in self.history.reads_from_map.items()
            if key[0] != b_uid
        ]

    def rw_pairs_under(self, closure: Relation) -> List[Pair]:
        """D 4.11 ``~rw`` pairs against a closed order.

        Mask form of the triple scan: for each reads-from edge
        ``b --x--> a``, every writer ``c`` of ``x`` with ``b ~H c``
        forces ``a ~rw c`` — one AND of the closure row against the
        object's writer mask per edge, instead of one bit test per
        interfering triple.
        """
        succ = self.closure_rows(closure).succ
        nodes = self.history.uids
        pos = self._positions
        writer_masks = self.writer_masks
        pairs = set()
        for (a_uid, obj), b_uid in self.proper_reads():
            ib = pos[b_uid]
            cands = (
                succ[ib]
                & writer_masks[obj]
                & ~(1 << pos[a_uid] | 1 << ib)
            )
            while cands:
                low = cands & -cands
                pairs.add((a_uid, nodes[low.bit_length() - 1]))
                cands ^= low
        return sorted(pairs)

    def rw_cover_under(self, closure: Relation) -> List[Pair]:
        """:func:`rw_cover_pairs` against an acyclic closed order over
        the full universe that totally orders each object's writers:
        the edges the Theorem 7 witness adds to ``~H``.  A node of a
        closed strict order precedes only nodes with fewer successors,
        so the row popcounts rank every writer chain.
        """
        rows = zip(closure.nodes, closure._succ)
        rank = {uid: -row.bit_count() for uid, row in rows}
        return rw_cover_pairs(self.proper_reads(), self.writer_timelines, rank)

    # ------------------------------------------------------------------
    # Constraint structure (D 4.1 / D 4.8 - D 4.10): who must be ordered
    # ------------------------------------------------------------------

    @property
    def update_masks(self) -> List[int]:
        """Per-position bitmask of the *other* update m-operations
        (zero for a query) — the pairs the WW-constraint (D 4.9)
        requires ordered."""
        if self._update_masks is None:
            pos = self._positions
            bits = [1 << pos[uid] for uid in self.update_uids]
            updates = sum(bits)
            masks = [0] * len(pos)
            for uid, bit in zip(self.update_uids, bits):
                masks[pos[uid]] = updates ^ bit
            self._update_masks = masks
        return self._update_masks

    @property
    def conflict_masks(self) -> List[int]:
        """Per-position bitmask of conflicting m-operations (D 4.1).

        ``conflict_masks[i]`` has bit ``j`` set iff m-operations at
        universe positions ``i`` and ``j`` conflict — they share an
        object at least one of them writes.  Built per object:
        a writer conflicts with every toucher, a toucher with every
        writer.
        """
        if self._conflict_masks is None:
            n = len(self.history.uids)
            touch_mask: Dict[str, int] = {}
            write_mask: Dict[str, int] = {}
            pos = self._positions
            for mop in self.history.all_mops:
                bit = 1 << pos[mop.uid]
                for obj in mop.objects:
                    touch_mask[obj] = touch_mask.get(obj, 0) | bit
                for obj in mop.wobjects:
                    write_mask[obj] = write_mask.get(obj, 0) | bit
            masks = [0] * n
            for mop in self.history.all_mops:
                i = pos[mop.uid]
                acc = 0
                for obj in mop.objects:
                    if obj in mop.wobjects:
                        acc |= touch_mask[obj]
                    else:
                        acc |= write_mask.get(obj, 0)
                masks[i] = acc & ~(1 << i)
            self._conflict_masks = masks
        return self._conflict_masks

    @property
    def writer_masks(self) -> Dict[str, int]:
        """Per-object bitmask of writer universe positions.

        ``writer_masks[x]`` has bit ``i`` set iff the m-operation at
        universe position ``i`` writes ``x`` (the initial m-operation
        included) — the row the mask-based ``~rw`` scan and the WO
        masks AND against.
        """
        if self._writer_masks is None:
            pos = self._positions
            masks: Dict[str, int] = {}
            for obj, timeline in self.writer_timelines.items():
                acc = 0
                for uid in timeline:
                    acc |= 1 << pos[uid]
                masks[obj] = acc
            self._writer_masks = masks
        return self._writer_masks

    @property
    def write_conflict_masks(self) -> List[int]:
        """Per-position bitmask of co-writers (the WO analogue of
        :attr:`conflict_masks`).

        ``write_conflict_masks[i]`` has bit ``j`` set iff the
        m-operations at universe positions ``i`` and ``j`` both write
        some common object — exactly the pairs the WO-constraint
        (D 4.10) requires ordered.
        """
        if self._write_conflict_masks is None:
            n = len(self.history.uids)
            masks = [0] * n
            pos = self._positions
            writer_masks = self.writer_masks
            for mop in self.history.all_mops:
                wobjects = mop.wobjects
                if not wobjects:
                    continue
                i = pos[mop.uid]
                acc = 0
                for obj in wobjects:
                    acc |= writer_masks[obj]
                masks[i] = acc & ~(1 << i)
            self._write_conflict_masks = masks
        return self._write_conflict_masks

    # ------------------------------------------------------------------
    # Generating orders (Section 2.3) from cover edges
    # ------------------------------------------------------------------

    def base_relation(
        self, condition: str, extra_pairs: Tuple[Pair, ...] = ()
    ) -> Relation:
        """The cached generating order ``~H`` for a condition.

        Built from cover edges (initial-m-op fan-out, per-process
        chains, ``~rf``, and the ``~t``/``~x`` interval covers — see
        the module docstring); the transitive closure equals the full
        paper order and is itself cached on the returned relation.

        The result is shared: do not mutate it — ``.copy()`` first.
        ``extra_pairs`` must be a normalised (sorted, deduplicated,
        irreflexive) tuple so equal requests hit the same cache entry.
        """
        if condition not in CONDITION_ORDERS:
            raise ValueError(
                f"unknown condition {condition!r}; expected one of "
                f"{tuple(CONDITION_ORDERS)}"
            )
        key = (condition, extra_pairs)
        rel = self._bases.get(key)
        if rel is None:
            if extra_pairs:
                rel = self.base_relation(condition).copy()
                for a, b in extra_pairs:
                    rel.add(a, b)
            else:
                real_time, objects = CONDITION_ORDERS[condition]
                history = self.history
                rel = Relation(history.uids)
                init_uid = history.init.uid
                for mop in history.mops:
                    rel.add(init_uid, mop.uid)
                for chain in self.process_chains.values():
                    for a, b in zip(chain, chain[1:]):
                        rel.add(a, b)
                for writer, reader in self.reads_from_pairs:
                    rel.add(writer, reader)
                if real_time:
                    rel.add_all(self.real_time_cover())
                if objects:
                    rel.add_all(self.object_cover())
            self._bases[key] = rel
        return rel

    def closure(
        self, condition: str, extra_pairs: Tuple[Pair, ...] = ()
    ) -> Relation:
        """Transitive closure of :meth:`base_relation` (cached)."""
        return self.base_relation(condition, extra_pairs).transitive_closure()

    def real_time_cover(self) -> List[Pair]:
        """Cover edges of ``~t`` (without the initial fan-out)."""
        history = self.history
        if not history.is_timed:
            raise MissingTimestampsError(
                "real-time order requires inv/resp timestamps on every "
                "m-operation"
            )
        return _interval_cover(
            [(m.inv, m.resp, m.uid) for m in history.mops]
        )

    def object_cover(self) -> List[Pair]:
        """Cover edges of ``~x`` (without the initial fan-out)."""
        history = self.history
        if not history.is_timed:
            raise MissingTimestampsError(
                "object order requires inv/resp timestamps on every "
                "m-operation"
            )
        groups: Dict[str, List[Tuple[float, float, int]]] = {}
        for mop in history.mops:
            for obj in mop.objects:
                groups.setdefault(obj, []).append((mop.inv, mop.resp, mop.uid))
        edges = set()
        for items in groups.values():
            edges.update(_interval_cover(items))
        return sorted(edges)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def stats(self) -> IndexStats:
        history = self.history
        updates = len(self.update_uids) - 1  # exclude the initial m-op
        # len(interfering_triples()), counted rather than enumerated:
        # per reads-from pair, the writers of any object it read other
        # than the pair itself.
        pos = self._positions
        overwriters: Dict[Pair, int] = {}
        for (a_uid, obj), b_uid in self.proper_reads():
            overwriters[a_uid, b_uid] = (
                overwriters.get((a_uid, b_uid), 0) | self.writer_masks[obj]
            )
        triples = sum(
            (mask & ~(1 << pos[a_uid] | 1 << pos[b_uid])).bit_count()
            for (a_uid, b_uid), mask in overwriters.items()
        )
        return IndexStats(
            mops=len(history.mops),
            updates=updates,
            queries=len(history.mops) - updates,
            objects=len(history.objects),
            processes=len(history.processes),
            reads_from_edges=len(self.reads_from_pairs),
            interfering_triples=triples,
        )


class LiveIndex:
    """Incrementally maintained order + legality state for a live run.

    Streaming twin of :class:`HistoryIndex` for the protocol recorder
    and the chaos harness: instead of rebuilding a ``History`` and
    re-deriving everything per audit, the cluster feeds completions
    (:meth:`observe`) and broadcast deliveries (:meth:`announce`) as
    they happen, and :meth:`audit` answers in ``O(triples)`` bit tests
    against an :class:`~repro.core.relations.IncrementalClosure`.

    The maintained order is ``~p ∪ ~rf ∪ ~ww`` plus the initial
    fan-out — exactly the base the batch m-sc check uses with a run's
    ``ww_pairs()`` as ``extra_pairs`` — and the interfering triples
    accumulate as reads-from edges and writers appear.  Both the edge
    set and the triple set only grow, so a violation reported mid-run
    is permanent (and will also be flagged by the end-of-run batch
    check); a clean mid-run audit is provisional.

    Like :class:`~repro.core.monitor.LiveMonitor`, completions may
    arrive before the writers they read from are announced; such
    completions are buffered and applied once their dependencies are
    known.
    """

    __slots__ = (
        "_closure",
        "_last_update",
        "_last_by_process",
        "_writers",
        "_rf_by_obj",
        "_triples",
        "_announced",
        "_pending",
        "applied",
        "announced",
        "audits",
    )

    def __init__(self) -> None:
        self._closure = IncrementalClosure()
        self._closure.add_node(INIT_UID)
        self._last_update: Optional[int] = None
        self._last_by_process: Dict[int, int] = {}
        self._writers: Dict[str, List[int]] = {}
        self._rf_by_obj: Dict[str, List[Tuple[int, int]]] = {}
        self._triples: List[InterferingTriple] = []
        self._announced = {INIT_UID}
        self._pending: List[
            Tuple[int, int, Dict[str, int], bool]
        ] = []
        #: completions applied to the order so far.
        self.applied = 0
        #: broadcast deliveries registered so far.
        self.announced = 0
        #: audits run so far.
        self.audits = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def announce(self, uid: int, writes: Iterable[str]) -> None:
        """Register a broadcast delivery: ``uid`` wrote ``writes``.

        Consecutive announcements form the ``~ww`` chain (D 5.3).
        Idempotent per uid (only the first delivery counts, matching
        the recorder's ``ww_sequence``).
        """
        if uid in self._announced:
            return
        self._announced.add(uid)
        self.announced += 1
        closure = self._closure
        closure.add_node(uid)
        closure.add_edge(INIT_UID, uid)
        if self._last_update is not None:
            closure.add_edge(self._last_update, uid)
        self._last_update = uid
        for obj in writes:
            for a_uid, b_uid in self._rf_by_obj.get(obj, ()):
                if uid != a_uid and uid != b_uid:
                    self._triples.append((a_uid, b_uid, uid))
            self._writers.setdefault(obj, [INIT_UID]).append(uid)
        self._drain()

    def observe(
        self,
        uid: int,
        process: int,
        reads_from: Mapping[str, int],
        is_update: bool,
    ) -> None:
        """Register a completed m-operation at its issuing process."""
        self._pending.append((uid, process, dict(reads_from), is_update))
        self._drain()

    def _ready(self, entry: Tuple[int, int, Dict[str, int], bool]) -> bool:
        uid, _process, reads_from, is_update = entry
        if is_update and uid not in self._announced:
            return False
        return all(w in self._announced for w in reads_from.values())

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for i, entry in enumerate(self._pending):
                if self._ready(entry):
                    del self._pending[i]
                    self._apply(entry)
                    progressed = True
                    break

    def _apply(self, entry: Tuple[int, int, Dict[str, int], bool]) -> None:
        uid, process, reads_from, _is_update = entry
        closure = self._closure
        closure.add_node(uid)
        closure.add_edge(INIT_UID, uid)
        prev = self._last_by_process.get(process)
        if prev is not None and prev != uid:
            closure.add_edge(prev, uid)
        self._last_by_process[process] = uid
        for obj, writer in reads_from.items():
            if writer != uid:
                closure.add_edge(writer, uid)
                for c_uid in self._writers.setdefault(obj, [INIT_UID]):
                    if c_uid != uid and c_uid != writer:
                        self._triples.append((uid, writer, c_uid))
                self._rf_by_obj.setdefault(obj, []).append((uid, writer))
        self.applied += 1

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Completions buffered awaiting their writers' announcements."""
        return len(self._pending)

    def audit(self) -> Optional[str]:
        """Check the accumulated order; None if clean so far.

        Theorem 7 under the WW-constraint (discharged by the ``~ww``
        chain): the run is m-sequentially consistent w.r.t. the
        accumulated order iff it is acyclic and legal (D 4.6).
        Monotone — a reported violation can never be retracted by
        later m-operations.
        """
        self.audits += 1
        closure = self._closure
        if closure.cyclic:
            return "order cycle among applied m-operations"
        for a_uid, b_uid, c_uid in self._triples:
            if closure.has(b_uid, c_uid) and closure.has(c_uid, a_uid):
                return (
                    f"illegal triple (D 4.6): m-op {a_uid} reads from "
                    f"{b_uid} but writer {c_uid} is ordered between them"
                )
        return None

    @property
    def consistent(self) -> bool:
        """Boolean form of :meth:`audit`."""
        return self.audit() is None

    def snapshot(self) -> Relation:
        """The current closed order as a :class:`Relation`."""
        return self._closure.to_relation()


class WindowedIndex:
    """Bounded-memory streaming auditor — the windowed twin of
    :class:`LiveIndex`.

    :class:`LiveIndex` maintains an incremental transitive closure,
    whose bitmask rows grow quadratically with the run; an unbounded
    stream eventually exhausts memory.  ``WindowedIndex`` keeps the
    same feeding interface (:meth:`announce` / :meth:`observe` /
    :meth:`audit`) but replaces the closure with the ``~ww``
    chain-position scan of :mod:`repro.core.plan`: every broadcast
    delivery gets a chain position, each process carries a *mark* (the
    highest chain position visible to it), and a completed read is
    legal iff no other writer of the object sits between its writer
    and the reader's mark — one :func:`bisect <bisect.bisect_right>`
    per read against the object's retained writer positions.

    **Epoch checkpoints.**  Every ``window`` announcements the index
    seals the closed prefix: writer positions more than ``window``
    behind the delivery frontier are discarded, keeping only the
    *sealed head* (the newest discarded writer — reads from it remain
    decidable).  Retained state is O(objects × window) plus one
    integer per announced uid; the quadratic closure state is gone.
    A read reaching behind a sealed prefix is a *refusal*, never a
    wrong verdict: it is counted in :attr:`window_refusals` (and
    raised as :class:`~repro.errors.WindowExceeded` when
    ``strict=True``) — re-run with a larger window or a full
    :class:`LiveIndex` to decide it.

    **Fidelity.**  Violations reported here are real (the scan is the
    plan engine's, cross-validated against the closure checker), but
    the streaming mark is a lower bound on the batch mark: it folds
    the process predecessor's mark and the read-from writers'
    *positions*, not their full marks, so a violation visible only
    through a longer chain of happened-before hops may surface later
    than :class:`LiveIndex` would report it — the same contract as
    :class:`~repro.core.monitor.StreamingVerifier`, and the end-of-run
    batch check remains the authority.
    """

    __slots__ = (
        "window",
        "strict",
        "_pos",
        "_next_pos",
        "_writer_pos",
        "_writer_uid",
        "_pruned",
        "_mark_by_process",
        "_announced",
        "_pending",
        "_violation",
        "applied",
        "announced",
        "audits",
        "epochs",
        "sealed",
        "window_refusals",
    )

    def __init__(self, window: int, *, strict: bool = False) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        #: retained ``~ww`` depth, in broadcast positions.
        self.window = window
        #: raise :class:`WindowExceeded` on refusal instead of counting.
        self.strict = strict
        self._pos: Dict[int, int] = {INIT_UID: 0}
        self._next_pos = 1
        self._writer_pos: Dict[str, List[int]] = {}
        self._writer_uid: Dict[str, List[int]] = {}
        self._pruned: Dict[str, bool] = {}
        self._mark_by_process: Dict[int, int] = {}
        self._announced = {INIT_UID}
        self._pending: List[Tuple[int, int, Dict[str, int], bool]] = []
        self._violation: Optional[str] = None
        #: completions applied to the scan so far.
        self.applied = 0
        #: broadcast deliveries registered so far.
        self.announced = 0
        #: audits run so far.
        self.audits = 0
        #: prefix seals performed (one per ``window`` announcements).
        self.epochs = 0
        #: writer-timeline slots discarded by sealing.
        self.sealed = 0
        #: reads refused for reaching behind a sealed prefix.
        self.window_refusals = 0

    # ------------------------------------------------------------------
    # Feeding (LiveIndex-compatible)
    # ------------------------------------------------------------------

    def announce(self, uid: int, writes: Iterable[str]) -> None:
        """Register a broadcast delivery: ``uid`` wrote ``writes``.

        Consecutive announcements form the ``~ww`` chain (D 5.3);
        idempotent per uid, like :meth:`LiveIndex.announce`.
        """
        if uid in self._announced:
            return
        self._announced.add(uid)
        self.announced += 1
        p = self._next_pos
        self._next_pos += 1
        self._pos[uid] = p
        for obj in writes:
            self._writer_pos.setdefault(obj, [0]).append(p)
            self._writer_uid.setdefault(obj, [INIT_UID]).append(uid)
        if p % self.window == 0:
            self._seal()
        self._drain()

    def observe(
        self,
        uid: int,
        process: int,
        reads_from: Mapping[str, int],
        is_update: bool,
    ) -> None:
        """Register a completed m-operation at its issuing process."""
        self._pending.append((uid, process, dict(reads_from), is_update))
        self._drain()

    def _seal(self) -> None:
        """Epoch checkpoint: discard writer positions behind the window.

        Keeps the sealed head — the newest discarded writer — so a
        read from it is still decidable; anything older refuses.
        """
        floor = self._next_pos - 1 - self.window
        if floor <= 0:
            return
        self.epochs += 1
        for obj, positions in self._writer_pos.items():
            cut = bisect_left(positions, floor) - 1
            if cut <= 0:
                continue
            del positions[:cut]
            del self._writer_uid[obj][:cut]
            self._pruned[obj] = True
            self.sealed += cut

    def _ready(self, entry: Tuple[int, int, Dict[str, int], bool]) -> bool:
        uid, _process, reads_from, is_update = entry
        if is_update and uid not in self._announced:
            return False
        return all(w in self._announced for w in reads_from.values())

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for i, entry in enumerate(self._pending):
                if self._ready(entry):
                    del self._pending[i]
                    self._apply(entry)
                    progressed = True
                    break

    def _apply(self, entry: Tuple[int, int, Dict[str, int], bool]) -> None:
        uid, process, reads_from, is_update = entry
        pos = self._pos
        mark = self._mark_by_process.get(process, 0)
        for writer in reads_from.values():
            wp = pos[writer]
            if wp > mark:
                mark = wp
        own = pos.get(uid) if is_update else None
        if own is not None and mark > own and self._violation is None:
            # A predecessor (process order or reads-from) carries a
            # chain position after this update's own delivery: the
            # visible order contradicts ~ww.
            self._violation = (
                f"order cycle among applied m-operations: update {uid} at "
                f"broadcast position {own} observes position {mark}"
            )
        for obj, writer in sorted(reads_from.items()):
            if writer == uid:
                continue
            b_pos = pos[writer]
            if b_pos >= mark:
                # The writer is the newest delivery the reader can see:
                # nothing can sit between them (decidable even sealed).
                continue
            positions = self._writer_pos.get(obj, [0])
            if self._pruned.get(obj) and b_pos < positions[0]:
                self.window_refusals += 1
                if self.strict:
                    raise WindowExceeded(
                        f"m-op {uid} reads {obj} from {writer} at broadcast "
                        f"position {b_pos}, behind the sealed prefix "
                        f"(oldest retained: {positions[0]}, window "
                        f"{self.window})"
                    )
                continue
            uids = self._writer_uid.get(obj, [INIT_UID])
            j = bisect_right(positions, mark) - 1
            while j >= 0 and uids[j] == uid:
                j -= 1
            if (
                j >= 0
                and positions[j] > b_pos
                and self._violation is None
            ):
                self._violation = (
                    f"illegal triple (D 4.6): m-op {uid} reads from "
                    f"{writer} but writer {uids[j]} is ordered between "
                    "them"
                )
        if own is not None and own > mark:
            mark = own
        self._mark_by_process[process] = mark
        self.applied += 1

    # ------------------------------------------------------------------
    # Auditing (LiveIndex-compatible)
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Completions buffered awaiting their writers' announcements."""
        return len(self._pending)

    @property
    def frontier(self) -> int:
        """The newest broadcast position announced so far."""
        return self._next_pos - 1

    @property
    def retained(self) -> int:
        """Writer-timeline slots currently held (memory gauge)."""
        return sum(len(p) for p in self._writer_pos.values())

    def audit(self) -> Optional[str]:
        """Check the stream so far; None if clean.

        Monotone, like :meth:`LiveIndex.audit` — a reported violation
        is permanent.  Refused reads are *not* violations; see
        :attr:`window_refusals`.
        """
        self.audits += 1
        return self._violation

    @property
    def consistent(self) -> bool:
        """Boolean form of :meth:`audit`."""
        return self.audit() is None
