"""Shared derived-data layer over a history (the "history index").

Every checking layer in this package — the Section 2.3 checkers, the
Theorem 7 constraint tests, legality (D 4.6), the refutations of
violated verdicts, the admissibility search, the live monitor and the
chaos audits — needs the same derived data: per-process chains,
per-object writer timelines and masks, the reads-from edges, the
update / conflict / co-writer masks (D 4.8-D 4.10), and the generating
orders ``~p ∪ ~rf [∪ ~t | ∪ ~x]`` with their transitive closures.
Before this layer each consumer rebuilt all of that from scratch;
:class:`HistoryIndex` computes each piece once per history and caches
it.  (The streaming consumers — protocol recorder, fault runs —
feed :class:`repro.core.monitor.LiveMonitor`, which never builds a
:class:`~repro.core.history.History` at all.)

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
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.history import History
from repro.core.operation import INIT_UID
from repro.core.relations import ClosureRows, Relation
from repro.errors import MissingTimestampsError

#: ``(a, b, c)``: ``a`` reads from ``b`` some object that ``c`` writes.
InterferingTriple = Tuple[int, int, int]

Pair = Tuple[int, int]


@dataclass(frozen=True)
class Condition:
    """One consistency condition as data (Section 2.3): admissibility
    with respect to ``~p ∪ ~rf``, joined by ``~t`` when ``real_time``
    and by ``~x`` when ``objects``.  A ``per_process`` condition is
    judged on each process's view instead of the whole history: every
    update m-operation plus that process's own m-operations, ordered
    by the closure restricted to them."""

    name: str
    title: str
    real_time: bool = False
    objects: bool = False
    per_process: bool = False

    @property
    def orders(self) -> Tuple[bool, bool]:
        """What ``~H`` is made of: rows with equal orders share one
        cached base order and closure."""
        return self.real_time, self.objects


#: Every condition the checkers decide, by name, in the order
#: ``repro check`` reports them.  m-causal consistency is the
#: per-view extension of m-SC after Raynal et al. (Ahamad et al.'s
#: causal memory for m-operations; ``docs/paper_notes.md``).
CONDITIONS: Mapping[str, Condition] = {
    row.name: row
    for row in (
        Condition("m-sc", "m-sequential consistency"),
        Condition("m-lin", "m-linearizability", real_time=True),
        Condition("m-norm", "m-normality", objects=True),
        Condition("m-causal", "m-causal consistency", per_process=True),
    )
}


def condition_row(name: str) -> Condition:
    """The :data:`CONDITIONS` row named ``name``."""
    try:
        return CONDITIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown condition {name!r}; expected one of "
            f"{tuple(CONDITIONS)}"
        ) from None


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


class _Derived:
    """What a :class:`HistoryIndex` derives from one history, held by
    that history (``History._index_cache``).

    It holds no reference back to the history, so a history and its
    derived data are freed by reference counting as soon as the last
    user drops them, not left to the cyclic collector.
    """

    __slots__ = (
        "index",
        "positions",
        "chains",
        "writer_timelines",
        "rf_pairs",
        "update_uids",
        "triples",
        "update_masks",
        "conflict_masks",
        "writer_masks",
        "write_conflict_masks",
        "bases",
    )

    def __init__(self, uids: Tuple[int, ...]) -> None:
        #: The live :class:`HistoryIndex` over this data, if any.
        self.index: Optional["weakref.ref[HistoryIndex]"] = None
        #: uid -> position in ``history.uids`` (the bitmask universe).
        self.positions: Dict[int, int] = {uid: i for i, uid in enumerate(uids)}
        self.chains: Optional[Dict[int, Tuple[int, ...]]] = None
        self.writer_timelines: Optional[Dict[str, Tuple[int, ...]]] = None
        self.rf_pairs: Optional[Tuple[Pair, ...]] = None
        self.update_uids: Optional[Tuple[int, ...]] = None
        self.triples: Optional[Tuple[InterferingTriple, ...]] = None
        self.update_masks: Optional[List[int]] = None
        self.conflict_masks: Optional[List[int]] = None
        self.writer_masks: Optional[Dict[str, int]] = None
        self.write_conflict_masks: Optional[List[int]] = None
        self.bases: Dict[
            Tuple[Tuple[bool, bool], Tuple[Pair, ...]], Relation
        ] = {}

    def __reduce__(self) -> Tuple[Any, ...]:
        # A copied history starts with no derived data (and no index).
        return (_Derived, (tuple(self.positions),))


class HistoryIndex:
    """Cached derived data for one :class:`History`.

    Obtain via :meth:`HistoryIndex.of`: every layer touching the same
    history (the three checkers, legality, refutations, metrics, the
    CLI) shares one copy of each derived structure, cached on the
    history, and one index object for as long as any of them holds it.
    The index refers to its history; the history refers only to the
    data (see :class:`_Derived`), so the two form no reference cycle.

    The relations returned by :meth:`base_relation` are shared cached
    objects: treat them as immutable and :meth:`~Relation.copy` before
    mutating (the copy still shares the cached closure until its first
    mutation).
    """

    __slots__ = ("history", "_d", "__weakref__")

    def __init__(self, history: History) -> None:
        self.history = history
        derived = history._index_cache
        if derived is None:
            derived = history._index_cache = _Derived(history.uids)
        self._d: _Derived = derived

    @classmethod
    def of(cls, history: History) -> "HistoryIndex":
        """The history's index over its cached data, created on first
        use (or after the last holder dropped it)."""
        derived = history._index_cache
        index = derived.index() if derived and derived.index else None
        if index is None:
            index = cls(history)
            index._d.index = weakref.ref(index)
        return index

    @property
    def positions(self) -> Dict[int, int]:
        """uid -> position in ``history.uids`` (the bitmask universe)."""
        return self._d.positions

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    @property
    def process_chains(self) -> Dict[int, Tuple[int, ...]]:
        """Per-process uid chains in issue order (``H|P``, Section 2.2)."""
        if self._d.chains is None:
            self._d.chains = {
                proc: tuple(m.uid for m in self.history.subhistory(proc))
                for proc in self.history.processes
            }
        return self._d.chains

    @property
    def writer_timelines(self) -> Dict[str, Tuple[int, ...]]:
        """Per-object writer uids, initial m-operation first.

        Ordered by response time when the history is timed, listing
        order otherwise — a deterministic timeline either way.
        """
        if self._d.writer_timelines is None:
            timelines: Dict[str, List[int]] = {
                obj: [INIT_UID] for obj in self.history.init.external_writes
            }
            mops = self.history.mops
            if self.history.is_timed:
                mops = tuple(sorted(mops, key=lambda m: (m.resp, m.uid)))
            for mop in mops:
                for obj in mop.external_writes:
                    timelines.setdefault(obj, [INIT_UID]).append(mop.uid)
            self._d.writer_timelines = {
                obj: tuple(uids) for obj, uids in timelines.items()
            }
        return self._d.writer_timelines

    @property
    def reads_from_pairs(self) -> Tuple[Pair, ...]:
        """Sorted ``(writer, reader)`` pairs of ``~rf`` (D 4.3)."""
        if self._d.rf_pairs is None:
            self._d.rf_pairs = tuple(sorted(self.history.reads_from_pairs()))
        return self._d.rf_pairs

    @property
    def update_uids(self) -> Tuple[int, ...]:
        """uids of update m-operations, initial one included (D 4.5)."""
        if self._d.update_uids is None:
            self._d.update_uids = tuple(
                m.uid for m in self.history.all_mops if m.is_update
            )
        return self._d.update_uids

    def interfering_triples(self) -> Tuple[InterferingTriple, ...]:
        """All interfering triples ``(a, b, c)`` (D 4.2), cached.

        For every reads-from edge ``b --x--> a`` and every other writer
        ``c`` of ``x``, the triple interferes.  This is the definition
        spelled out — quadratic in the worst case — for tests and
        callers that want the triples themselves; the checks below
        decide D 4.6 and D 4.11 per read without it.
        """
        if self._d.triples is None:
            triples: Dict[InterferingTriple, None] = {}
            timelines = self.writer_timelines
            for (a_uid, obj), b_uid in self.proper_reads():
                for c_uid in timelines[obj]:
                    if c_uid != a_uid and c_uid != b_uid:
                        triples[(a_uid, b_uid, c_uid)] = None
            self._d.triples = tuple(triples)
        return self._d.triples

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
            known = self.positions
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
        self, closure: Relation, view: Optional[int] = None
    ) -> Iterator[Tuple[int, int, str, int]]:
        """D 4.6 as a per-read predicate.

        Yields ``(a, b, x, mask)`` for each proper read ``((a, x), b)``
        in ``view`` that the closed order ``closure`` makes illegal:
        ``mask`` holds the positions of the writers of ``x`` other than
        ``a`` and ``b`` ordered strictly between them, ``succ*[b] &
        pred*[a]`` cut down to the object's writers.
        """
        rows = self.closure_rows(closure)
        succ, pred = rows.succ, rows.pred
        pos = self.positions
        writer_masks = self.writer_masks
        for (a_uid, obj), b_uid in self.proper_reads(view):
            ia, ib = pos[a_uid], pos[b_uid]
            between = succ[ib] & pred[ia] & writer_masks[obj]
            if between:
                # on a cycle a and b lie between themselves
                between &= ~(1 << ia | 1 << ib)
                if between:
                    yield a_uid, b_uid, obj, between

    def legal_under(self, closure: Relation, view: Optional[int] = None) -> bool:
        """D 4.6 against the transitive closure of the order under
        test: no read (of a reader in ``view``) has an overwriter
        between its writer and itself.  One mask test per read."""
        return next(self._overwritten_reads(closure, view), None) is None

    def illegal_triples_under(
        self, closure: Relation
    ) -> List[InterferingTriple]:
        """The D 4.6-violating triples, in :meth:`interfering_triples`
        order: every hit of :meth:`legal_under`."""
        pos = self.positions
        timelines = self.writer_timelines
        bad: Dict[InterferingTriple, None] = {}
        for a_uid, b_uid, obj, between in self._overwritten_reads(closure):
            for c_uid in timelines[obj]:
                if between >> pos[c_uid] & 1:
                    bad[(a_uid, b_uid, c_uid)] = None
        return list(bad)

    def proper_reads(
        self, view: Optional[int] = None
    ) -> List[Tuple[Tuple[int, str], int]]:
        """Reads-from edges ``((a, x), b)`` with ``a != b`` (D 4.2) —
        of the readers whose position bit is set in ``view``, if given
        (:func:`~repro.core.admissibility.check_admissible`)."""
        pos = self.positions
        return [
            (key, b_uid)
            for key, b_uid in self.history.reads_from_map.items()
            if key[0] != b_uid and (view is None or view >> pos[key[0]] & 1)
        ]

    def rw_pairs_under(
        self, closure: Relation, view: Optional[int] = None
    ) -> List[Pair]:
        """D 4.11 ``~rw`` pairs against a closed order, of the readers
        in ``view`` (all by default).

        Mask form of the triple scan: for each reads-from edge
        ``b --x--> a``, every writer ``c`` of ``x`` with ``b ~H c``
        forces ``a ~rw c`` — one AND of the closure row against the
        object's writer mask per edge, instead of one bit test per
        interfering triple.
        """
        succ = self.closure_rows(closure).succ
        nodes = self.history.uids
        pos = self.positions
        writer_masks = self.writer_masks
        pairs = set()
        for (a_uid, obj), b_uid in self.proper_reads(view):
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

    # ------------------------------------------------------------------
    # Constraint structure (D 4.1 / D 4.8 - D 4.10): who must be ordered
    # ------------------------------------------------------------------

    @property
    def update_masks(self) -> List[int]:
        """Per-position bitmask of the *other* update m-operations
        (zero for a query) — the pairs the WW-constraint (D 4.9)
        requires ordered."""
        if self._d.update_masks is None:
            pos = self.positions
            bits = [1 << pos[uid] for uid in self.update_uids]
            updates = sum(bits)
            masks = [0] * len(pos)
            for uid, bit in zip(self.update_uids, bits):
                masks[pos[uid]] = updates ^ bit
            self._d.update_masks = masks
        return self._d.update_masks

    @property
    def conflict_masks(self) -> List[int]:
        """Per-position bitmask of conflicting m-operations (D 4.1).

        ``conflict_masks[i]`` has bit ``j`` set iff m-operations at
        universe positions ``i`` and ``j`` conflict — they share an
        object at least one of them writes.  Built per object:
        a writer conflicts with every toucher, a toucher with every
        writer.
        """
        if self._d.conflict_masks is None:
            n = len(self.history.uids)
            touch_mask: Dict[str, int] = {}
            write_mask: Dict[str, int] = {}
            pos = self.positions
            # objects(a) = external reads + writes (an internal read's
            # object is also written); a read object that is also
            # written counts as written.
            for mop in self.history.all_mops:
                bit = 1 << pos[mop.uid]
                for obj in mop.external_writes:
                    touch_mask[obj] = touch_mask.get(obj, 0) | bit
                    write_mask[obj] = write_mask.get(obj, 0) | bit
                for obj in mop.external_reads:
                    touch_mask[obj] = touch_mask.get(obj, 0) | bit
            masks = [0] * n
            for mop in self.history.all_mops:
                i = pos[mop.uid]
                acc = 0
                writes = mop.external_writes
                for obj in writes:
                    acc |= touch_mask[obj]
                for obj in mop.external_reads:
                    if obj not in writes:
                        acc |= write_mask.get(obj, 0)
                masks[i] = acc & ~(1 << i)
            self._d.conflict_masks = masks
        return self._d.conflict_masks

    @property
    def writer_masks(self) -> Dict[str, int]:
        """Per-object bitmask of writer universe positions.

        ``writer_masks[x]`` has bit ``i`` set iff the m-operation at
        universe position ``i`` writes ``x`` (the initial m-operation
        included) — the row the mask-based ``~rw`` scan and the WO
        masks AND against.
        """
        if self._d.writer_masks is None:
            pos = self.positions
            masks: Dict[str, int] = {}
            for obj, timeline in self.writer_timelines.items():
                acc = 0
                for uid in timeline:
                    acc |= 1 << pos[uid]
                masks[obj] = acc
            self._d.writer_masks = masks
        return self._d.writer_masks

    @property
    def write_conflict_masks(self) -> List[int]:
        """Per-position bitmask of co-writers (the WO analogue of
        :attr:`conflict_masks`).

        ``write_conflict_masks[i]`` has bit ``j`` set iff the
        m-operations at universe positions ``i`` and ``j`` both write
        some common object — exactly the pairs the WO-constraint
        (D 4.10) requires ordered.
        """
        if self._d.write_conflict_masks is None:
            n = len(self.history.uids)
            masks = [0] * n
            pos = self.positions
            writer_masks = self.writer_masks
            for mop in self.history.all_mops:
                wobjects = mop.external_writes
                if not wobjects:
                    continue
                i = pos[mop.uid]
                acc = 0
                for obj in wobjects:
                    acc |= writer_masks[obj]
                masks[i] = acc & ~(1 << i)
            self._d.write_conflict_masks = masks
        return self._d.write_conflict_masks

    # ------------------------------------------------------------------
    # Generating orders (Section 2.3) from cover edges
    # ------------------------------------------------------------------

    def cover_edges(
        self, condition: str, extra_pairs: Iterable[Pair] = ()
    ) -> Iterator[Pair]:
        """The edges that make ``~H`` for a condition, as ``(a, b)``.

        Initial-m-op fan-out, per-process chains, ``~rf``, the
        ``~t``/``~x`` interval cover the condition calls for (see the
        module docstring), then ``extra_pairs``.  Their transitive
        closure is the full paper order.  The one definition:
        :meth:`base_relation` packs these into bitmasks and the
        forward scan of :mod:`repro.core.plan` walks them as sets.
        """
        real_time, objects = condition_row(condition).orders
        init_uid = self.history.init.uid
        for mop in self.history.mops:
            yield init_uid, mop.uid
        for chain in self.process_chains.values():
            yield from zip(chain, chain[1:])
        yield from self.reads_from_pairs
        if real_time:
            yield from self.real_time_cover()
        if objects:
            yield from self.object_cover()
        yield from extra_pairs

    def base_relation(
        self, condition: str, extra_pairs: Tuple[Pair, ...] = ()
    ) -> Relation:
        """The cached generating order ``~H`` for a condition.

        Built from :meth:`cover_edges`; the transitive closure equals
        the full paper order and is itself cached on the returned
        relation.

        The result is shared: do not mutate it — ``.copy()`` first.
        It is keyed on the row's :attr:`~Condition.orders`, so
        conditions with the same ``~H`` share it.  ``extra_pairs`` must
        be a normalised (sorted, deduplicated, irreflexive) tuple so
        equal requests hit the same cache entry.
        """
        key = (condition_row(condition).orders, extra_pairs)
        rel = self._d.bases.get(key)
        if rel is None:
            if extra_pairs:
                rel = self.base_relation(condition).copy()
                rel.add_all(extra_pairs)
            else:
                rel = Relation(
                    self.history.uids, self.cover_edges(condition)
                )
            self._d.bases[key] = rel
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
        pos = self.positions
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
