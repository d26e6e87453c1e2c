"""The partial orders the paper layers over a history (Sections 2, 4).

Each consistency condition is "admissibility with respect to ``~H``"
for a different ``~H``:

* m-sequential consistency: ``~H = ~p ∪ ~rf``  (process order and
  reads-from),
* m-linearizability:        ``~H = ~p ∪ ~rf ∪ ~t``  (plus real-time
  order; note ``~p ⊆ ~t`` for well-formed timed histories),
* m-normality:              ``~H = ~p ∪ ~rf ∪ ~x``  (plus object
  order).

All functions return :class:`~repro.core.relations.Relation` objects
over the history's uid universe (including the initial m-operation,
which precedes everything).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.core.relations import Relation
from repro.errors import MissingTimestampsError


def empty_relation(history: History) -> Relation:
    """An empty relation over the history's m-operation universe."""
    return Relation(history.uids)


def init_order(history: History) -> Relation:
    """The initial m-operation precedes every other m-operation.

    Section 2.1: the imaginary initial m-operation is performed before
    the first operation by any process.
    """
    rel = empty_relation(history)
    for mop in history.mops:
        rel.add(history.init.uid, mop.uid)
    return rel


def process_order(history: History) -> Relation:
    """``~p``: per-process issue order (Section 2.1).

    Emitted as the per-process *cover* chain — each m-operation to its
    immediate successor, ``n - 1`` edges per process rather than all
    ``n(n-1)/2`` transitive pairs.  The full order is the chain's
    transitive closure, which every consumer computes anyway (and which
    :class:`~repro.core.relations.Relation` now caches).
    """
    rel = empty_relation(history)
    for proc in history.processes:
        seq = history.subhistory(proc)
        for earlier, later in zip(seq, seq[1:]):
            rel.add(earlier.uid, later.uid)
    return rel


def reads_from_order(history: History) -> Relation:
    """``~rf``: writer precedes reader (D 4.3)."""
    rel = empty_relation(history)
    for writer_uid, reader_uid in history.reads_from_pairs():
        rel.add(writer_uid, reader_uid)
    return rel


def real_time_order(history: History) -> Relation:
    """``~t``: ``a ~t b`` iff ``resp(a) < inv(b)`` (Section 2.3).

    Requires a timed history.  The initial m-operation precedes all.
    """
    if not history.is_timed:
        raise MissingTimestampsError(
            "real-time order requires inv/resp timestamps on every "
            "m-operation"
        )
    rel = init_order(history)
    mops = history.mops
    for a in mops:
        for b in mops:
            if a.uid == b.uid:
                continue
            assert a.resp is not None and b.inv is not None
            if a.resp < b.inv:
                rel.add(a.uid, b.uid)
    return rel


def object_order(history: History) -> Relation:
    """``~x``: shared object and ``resp(a) < inv(b)`` (Section 2.3)."""
    if not history.is_timed:
        raise MissingTimestampsError(
            "object order requires inv/resp timestamps on every "
            "m-operation"
        )
    rel = init_order(history)
    mops = history.mops
    for a in mops:
        for b in mops:
            if a.uid == b.uid:
                continue
            assert a.resp is not None and b.inv is not None
            if a.resp < b.inv and a.objects & b.objects:
                rel.add(a.uid, b.uid)
    return rel


def base_order(
    history: History,
    *,
    process: bool = True,
    reads_from: bool = True,
    real_time: bool = False,
    objects: bool = False,
    extra_pairs: Iterable[Tuple[int, int]] = (),
) -> Relation:
    """Union of the selected orders, with initial-m-operation edges.

    The returned relation is *not* transitively closed; most consumers
    call :meth:`~repro.core.relations.Relation.transitive_closure`
    themselves, because they also need the raw generating pairs.
    """
    rel = init_order(history)
    if process:
        rel = rel | process_order(history)
    if reads_from:
        rel = rel | reads_from_order(history)
    if real_time:
        rel = rel | real_time_order(history)
    if objects:
        rel = rel | object_order(history)
    for a, b in extra_pairs:
        if a != b:
            rel.add(a, b)
    return rel


def msc_order(history: History) -> Relation:
    """``~H`` for m-sequential consistency: ``~p ∪ ~rf``.

    A mutable copy of the history index's cached generating order; the
    copy shares the cached transitive closure until first mutated.
    """
    return HistoryIndex.of(history).base_relation("m-sc").copy()


def mlin_order(history: History) -> Relation:
    """``~H`` for m-linearizability: ``~p ∪ ~rf ∪ ~t``.

    Built from the index's *cover* edges: the raw relation contains
    only the maximal real-time predecessors of each m-operation (plus
    ``~p`` chains, ``~rf`` and the initial fan-out), and its transitive
    closure — shared and cached — equals the full paper order.  Use
    :func:`real_time_order` when the raw ``~t`` pairs themselves are
    needed.
    """
    return HistoryIndex.of(history).base_relation("m-lin").copy()


def mnorm_order(history: History) -> Relation:
    """``~H`` for m-normality: ``~p ∪ ~rf ∪ ~x``.

    Cover-edge construction; see :func:`mlin_order`.  Use
    :func:`object_order` for the raw ``~x`` pairs.
    """
    return HistoryIndex.of(history).base_relation("m-norm").copy()
