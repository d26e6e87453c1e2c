"""Conflict, interference and legality (Section 2.2, D 4.1-D 4.7).

The paper's central predicates:

* ``conflict(a, b)``   (D 4.1): the m-operations act on a common
  object and at least one writes it.
* ``interfere(H, a, b, c)`` (D 4.2): ``c`` writes some object that
  ``a`` reads from ``b``.
* ``legal(H)``         (D 4.6): for every interfering triple, ``c`` is
  not ordered strictly between ``b`` and ``a`` under ``~H``.
* ``legal`` for *sequential* histories has the direct reading: every
  external read returns the value of the most recent preceding
  external write.

D 4.6 is phrased against a transitive relation; all functions here
accept the *closure* of the order under consideration and document it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.core.operation import MOperation
from repro.core.relations import Relation

InterferingTriple = Tuple[int, int, int]


def conflict(a: MOperation, b: MOperation) -> bool:
    """D 4.1: distinct, sharing an object at least one of them writes."""
    if a.uid == b.uid:
        return False
    return bool(a.wobjects & b.objects) or bool(b.wobjects & a.objects)


def interfere(history: History, a_uid: int, b_uid: int, c_uid: int) -> bool:
    """D 4.2: ``c`` writes some object that ``a`` reads from ``b``.

    Requires the three m-operations to be pairwise distinct.
    """
    if len({a_uid, b_uid, c_uid}) != 3:
        return False
    c = history[c_uid]
    return bool(history.rfobjects(a_uid, b_uid) & c.wobjects)


def interfering_triples(history: History) -> Iterator[InterferingTriple]:
    """Enumerate all interfering triples ``(a, b, c)`` of the history.

    Iterates the reads-from map rather than all ``n^3`` triples: for
    every reads-from edge ``b --x--> a`` and every other m-operation
    ``c`` writing ``x``, the triple interferes.  The enumeration is
    cached on the history's :class:`~repro.core.index.HistoryIndex`;
    :func:`is_legal`, :func:`illegal_triples` and the ``~rw``
    derivation decide per read and never build it.
    """
    yield from HistoryIndex.of(history).interfering_triples()


def is_legal(history: History, closure: Relation) -> bool:
    """D 4.6 legality of a history against a transitively closed order.

    ``legal(H) ≡ ∀ a,b,c interfering: ¬(b ~H c) ∨ ¬(c ~H a)`` — no
    overwriting m-operation may sit strictly between a writer and its
    reader.

    Args:
        history: the history under test.
        closure: the order ``~H`` under consideration.  D 4.6 is
            tested against its transitive closure, which a relation
            caches: passing the closed relation costs nothing more.
    """
    return HistoryIndex.of(history).legal_under(closure)


def illegal_triples(
    history: History, closure: Relation
) -> List[InterferingTriple]:
    """All interfering triples that violate D 4.6, in
    :func:`interfering_triples` order."""
    return HistoryIndex.of(history).illegal_triples_under(closure)


def is_legal_sequence(
    history: History, order: Sequence[int], *, view: Optional[int] = None
) -> bool:
    """Directly check legality of a total order of the history's uids.

    The operational reading of a "legal sequential history" (Section
    2.2), used both by the exact admissibility search and as an
    independent oracle in tests: ``order`` is a permutation of the
    history's m-operations in which :func:`first_illegal_read` finds
    no violated read.

    Args:
        history: the history whose m-operations are being sequenced.
        order: a permutation of ``history.uids``; the initial
            m-operation may be omitted, in which case it is implicitly
            first.
        view: a position mask over ``history.uids``: ``order`` then
            permutes the m-operations of that process view only (see
            :func:`~repro.core.admissibility.check_admissible`).
    """
    try:
        return first_illegal_read(history, order, view=view) is None
    except ValueError:  # not a permutation
        return False


def first_illegal_read(
    history: History, order: Sequence[int], *, view: Optional[int] = None
) -> Optional[Tuple[int, str, int, Optional[int]]]:
    """The first violated read of a total order of the history's uids.

    Replays ``order`` left to right, tracking the last external writer
    of every object, and checks each m-operation's external reads
    against the current last writer.  Returns ``(reader_uid, obj,
    expected_writer, actual_last_writer)``, or None if the sequence is
    legal.

    Raises:
        ValueError: ``order`` is not a permutation of ``history.uids``
            (the initial m-operation may be omitted, else first), or
            of those whose position bit is set in ``view``.
    """
    order = list(order)
    if history.init.uid not in order:
        order = [history.init.uid] + order
    uids = [u for i, u in enumerate(history.uids) if view is None or view >> i & 1]
    if sorted(order) != sorted(uids) or order[0] != history.init.uid:
        raise ValueError(
            f"{order} is not a permutation of the history's m-operations "
            "with the initial one first"
        )
    last_writer: Dict[str, int] = {}
    for uid in order:
        mop = history[uid]
        for obj in mop.external_reads:
            expected = history.writer_of(uid, obj)
            actual = last_writer.get(obj)
            if actual != expected:
                return (uid, obj, expected, actual)
        for obj in mop.external_writes:
            last_writer[obj] = uid
    return None
