"""Histories: executions of a concurrent system (Section 2.2).

A history is modelled as a set of m-operations together with a
reads-from map.  The various partial orders the paper layers on top of
a history (process order, reads-from order, real-time order, object
order) are derived by :mod:`repro.core.orders`.

The paper assumes an imaginary initial m-operation that writes every
object before any process runs (Section 2.1); :class:`History` always
materialises it (uid :data:`~repro.core.operation.INIT_UID`), so the
reads-from map is total on external reads.

Reads-from derivation
---------------------

When every write in a history carries a globally unique value —
which all workload generators in this package guarantee — the
reads-from relation is derivable by value matching.  When values are
ambiguous the caller must pass an explicit ``reads_from`` map;
otherwise :class:`~repro.errors.ReadsFromError` is raised.  Histories
recorded from protocol runs (:mod:`repro.protocols.recorder`) always
supply the exact map obtained from version vectors (D 5.1 / D 5.6).
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.operation import INIT_UID, MOperation, initial_mop
from repro.errors import MalformedHistoryError, ReadsFromError

#: A reads-from map: ``(reader_uid, object) -> writer_uid``.
ReadsFromMap = Mapping[Tuple[int, str], int]


class History:
    """An execution history ``(op(H), ~H)`` (Section 2.2).

    The relation ``~H`` itself is *not* stored here: the paper
    parameterises each consistency condition by a different ``~H``
    (process order and reads-from for m-sequential consistency; plus
    real-time order for m-linearizability; plus object order for
    m-normality).  :mod:`repro.core.orders` builds each of these from
    the data held in this class.

    Use :meth:`History.from_mops` rather than the raw constructor; it
    materialises the initial m-operation.  Either way the reads-from
    map is completed by unique-value matching and the history is
    validated for well-formedness.
    """

    __slots__ = (
        "_mops",
        "_all",
        "_uids",
        "_by_uid",
        "_init",
        "_reads_from",
        "_objects",
        "_by_process",
        "_processes",
        "_index_cache",
    )

    def __init__(
        self,
        mops: Sequence[MOperation],
        init: MOperation,
        reads_from: Optional[ReadsFromMap] = None,
    ) -> None:
        self._mops: Tuple[MOperation, ...] = tuple(mops)
        self._init = init
        self._all: Tuple[MOperation, ...] = (init,) + self._mops
        self._uids: Tuple[int, ...] = tuple([m.uid for m in self._all])
        # Every m-operation carries its external reads and writes,
        # derived by the one walk of its ops when it was built;
        # completion, validation, ``objects`` and the checker all read
        # those views.  Held, they cost ~120 B per m-operation (+0.5 MB
        # on a 4,000-m-op recorded history) and save every other walk:
        # loading a recorded 2,400-m-op history from JSON fell from ~32
        # to ~21 ms (docs/evidence/one-walk-history.md).
        self._reads_from = _complete_reads_from(
            self._mops, self._all, reads_from
        )
        self._by_uid: Dict[int, MOperation] = {}
        for uid, mop in zip(self._uids, self._all):
            if uid in self._by_uid:
                raise MalformedHistoryError(f"duplicate m-operation uid {uid}")
            self._by_uid[uid] = mop
        self._objects: FrozenSet[str] = frozenset().union(
            *[m.external_reads for m in self._mops],
            *[m.external_writes for m in self._all],
        )
        # H|P for every P, grouped once (see ``subhistory``).
        grouped: Dict[Optional[int], List[MOperation]] = {}
        for mop in self._mops:
            grouped.setdefault(mop.process, []).append(mop)
        self._by_process: Dict[Optional[int], Tuple[MOperation, ...]] = {}
        for process, own in grouped.items():
            if all(m.inv is not None for m in own):
                own.sort(key=attrgetter("inv"))
            self._by_process[process] = tuple(own)
        self._processes: Tuple[int, ...] = tuple(
            sorted(p for p in grouped if p is not None)
        )
        #: The data of :class:`repro.core.index.HistoryIndex`, built on
        #: first use; a history is immutable once constructed, so
        #: derived data never goes stale.  It holds no reference back
        #: to this history.  Typed as ``object`` to avoid a core import
        #: cycle.
        self._index_cache: Optional[object] = None
        self._validate_uids()
        self._validate_well_formedness()
        self._validate_reads_from()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_mops(
        cls,
        mops: Sequence[MOperation],
        *,
        initial_values: Optional[Mapping[str, Any]] = None,
        default_initial: Any = 0,
        reads_from: Optional[ReadsFromMap] = None,
    ) -> "History":
        """Build a history from m-operations.

        Args:
            mops: the m-operations of the execution (uid > 0 each).
            initial_values: value written by the imaginary initial
                m-operation, per object.  Objects not mentioned get
                ``default_initial`` (the paper's convention is 0).
            default_initial: see above.
            reads_from: explicit ``(reader_uid, obj) -> writer_uid``
                map.  If omitted, derived by unique-value matching.

        Raises:
            MalformedHistoryError: ill-formed structure.
            ReadsFromError: the reads-from map cannot be derived.
        """
        # The reads view itself: a disagreement between two external
        # reads is raised by completion, in listing order, not here.
        objects = sorted(
            set().union(*[v for m in mops for v in (m._reads, m.external_writes)])
        )
        init_values = {obj: default_initial for obj in objects}
        if initial_values:
            for obj, value in initial_values.items():
                init_values[obj] = value
        return cls(mops, initial_mop(init_values), reads_from)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def mops(self) -> Tuple[MOperation, ...]:
        """The m-operations of the history, excluding the initial one."""
        return self._mops

    @property
    def init(self) -> MOperation:
        """The imaginary initial m-operation (writes all objects)."""
        return self._init

    @property
    def all_mops(self) -> Tuple[MOperation, ...]:
        """Initial m-operation followed by the real ones."""
        return self._all

    @property
    def uids(self) -> Tuple[int, ...]:
        """uids of all m-operations including the initial one."""
        return self._uids

    @property
    def objects(self) -> FrozenSet[str]:
        """Every shared object touched in the history."""
        return self._objects

    @property
    def processes(self) -> Tuple[int, ...]:
        """Sorted process ids appearing in the history."""
        return self._processes

    @property
    def is_timed(self) -> bool:
        """True iff every m-operation carries inv/resp timestamps."""
        return all(m.inv is not None for m in self._mops)

    def __len__(self) -> int:
        return len(self._mops)

    def __getitem__(self, uid: int) -> MOperation:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise MalformedHistoryError(f"no m-operation with uid {uid}") from None

    def __contains__(self, uid: int) -> bool:
        return uid in self._by_uid

    def subhistory(self, process: int) -> Tuple[MOperation, ...]:
        """``H|P``: this process's m-operations in issue order.

        Issue order is timestamp order when the history is timed, and
        listing order otherwise.
        """
        return self._by_process.get(process, ())

    # ------------------------------------------------------------------
    # Reads-from queries (D 4.3)
    # ------------------------------------------------------------------

    @property
    def reads_from_map(self) -> Mapping[Tuple[int, str], int]:
        """``(reader_uid, obj) -> writer_uid`` for every external read."""
        return dict(self._reads_from)

    def writer_of(self, reader_uid: int, obj: str) -> int:
        """The uid of the m-operation ``reader`` reads ``obj`` from."""
        try:
            return self._reads_from[(reader_uid, obj)]
        except KeyError:
            raise ReadsFromError(
                f"m-operation {reader_uid} performs no external read of "
                f"{obj!r}"
            ) from None

    def rfobjects(self, reader_uid: int, writer_uid: int) -> FrozenSet[str]:
        """``rfobjects(H, a, b)``: objects that ``a`` reads from ``b``."""
        return frozenset(
            obj
            for (r, obj), w in self._reads_from.items()
            if r == reader_uid and w == writer_uid
        )

    def reads_from_pairs(self) -> FrozenSet[Tuple[int, int]]:
        """``(writer_uid, reader_uid)`` pairs of the ``~rf`` relation."""
        return frozenset(
            (w, r) for (r, _obj), w in self._reads_from.items() if w != r
        )

    # ------------------------------------------------------------------
    # Equivalence (Section 2.2)
    # ------------------------------------------------------------------

    def equivalent_to(self, other: "History") -> bool:
        """Section 2.2 equivalence: same process subhistories + same ~rf.

        Two histories are equivalent iff for every process the process
        subhistories coincide (same m-operations, same per-process
        order) and the reads-from relations are identical.
        """
        if set(self.uids) != set(other.uids):
            return False
        procs = set(self.processes) | set(other.processes)
        for proc in procs:
            mine = tuple(m.uid for m in self.subhistory(proc))
            theirs = tuple(m.uid for m in other.subhistory(proc))
            if mine != theirs:
                return False
        for uid in self.uids:
            if tuple(self[uid].ops) != tuple(other[uid].ops):
                return False
        return dict(self._reads_from) == dict(other._reads_from)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate_uids(self) -> None:
        if self._init.uid != INIT_UID:
            raise MalformedHistoryError(
                f"initial m-operation must have uid {INIT_UID}"
            )
        for mop in self._mops:
            if mop.uid == INIT_UID:
                raise MalformedHistoryError(
                    f"uid {INIT_UID} is reserved for the initial m-operation"
                )
            if mop.process is None:
                raise MalformedHistoryError(
                    f"m-operation {mop.label} has no issuing process"
                )

    def _validate_well_formedness(self) -> None:
        """Each process subhistory must be sequential (Section 2.2).

        For timed histories this means the intervals of one process's
        m-operations are pairwise disjoint.
        """
        if not self.is_timed:
            return
        for proc in self.processes:
            seq = self.subhistory(proc)
            for earlier, later in zip(seq, seq[1:]):
                assert earlier.resp is not None and later.inv is not None
                if not earlier.resp < later.inv:
                    raise MalformedHistoryError(
                        f"process P{proc} is not sequential: "
                        f"{earlier.label} (resp={earlier.resp}) overlaps "
                        f"{later.label} (inv={later.inv})"
                    )

    def _validate_reads_from(self) -> None:
        """Every entry names a real external read and the external
        write whose value it returned."""
        by_uid, init = self._by_uid, self._init
        for (reader_uid, obj), writer_uid in self._reads_from.items():
            reader = by_uid.get(reader_uid)
            writer = by_uid.get(writer_uid)
            if reader is None or writer is None:
                raise MalformedHistoryError(
                    f"reads-from entry ({reader_uid}, {obj!r}) -> "
                    f"{writer_uid} references unknown m-operations"
                )
            # The initial m-operation reads nothing by definition.
            read = reader.external_reads if reader is not init else {}
            written = writer.external_writes
            if obj not in read:
                raise MalformedHistoryError(
                    f"{reader.label} has no external read of {obj!r} but "
                    "the reads-from map says it does"
                )
            if obj not in written:
                raise MalformedHistoryError(
                    f"{writer.label} has no external write of {obj!r} but "
                    f"{reader.label} claims to read {obj!r} from it"
                )
            if written[obj] != read[obj]:
                raise MalformedHistoryError(
                    f"{reader.label} reads {obj!r}={read[obj]!r} but its "
                    f"reads-from writer {writer.label} wrote "
                    f"{written[obj]!r}"
                )

    def __repr__(self) -> str:
        return (
            f"History({len(self._mops)} m-operations, "
            f"{len(self._objects)} objects, "
            f"{len(self.processes)} processes)"
        )

    def pretty(self) -> str:
        """A multi-line human-readable rendering, grouped by process."""
        lines: List[str] = [repr(self)]
        for proc in self.processes:
            parts = []
            for mop in self.subhistory(proc):
                if mop.inv is not None:
                    parts.append(f"{mop} @[{mop.inv:g},{mop.resp:g}]")
                else:
                    parts.append(str(mop))
            lines.append(f"  P{proc}: " + "; ".join(parts))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Reads-from derivation helpers
# ----------------------------------------------------------------------


def _complete_reads_from(
    mops: Sequence[MOperation],
    all_mops: Sequence[MOperation],
    explicit: Optional[ReadsFromMap],
) -> Dict[Tuple[int, str], int]:
    """Complete a reads-from map by unique-value matching.

    Entries supplied by the caller win; missing entries (all of them
    when ``explicit`` is None) are derived when unambiguous, from an
    index of every external write in ``all_mops`` (initial m-operation
    first).  External reads are taken in listing order, so the first
    m-operation at fault is the one reported.
    """
    result: Dict[Tuple[int, str], int] = dict(explicit or ())
    remedy = (
        "pass an explicit" if explicit is None else "supply a complete"
    )
    writers: Dict[Tuple[str, Any], List[int]] = {}
    for writer in all_mops:
        for item in writer.external_writes.items():
            writers.setdefault(item, []).append(writer.uid)
    for mop in mops:
        uid = mop.uid
        for obj, value in mop.external_reads.items():
            key = (uid, obj)
            # (A fully derived map never skips: under a duplicate uid,
            # rejected by the constructor next, the later reader wins.)
            if explicit is not None and key in result:
                continue
            candidates = [
                w for w in writers.get((obj, value), []) if w != uid
            ]
            if not candidates:
                raise ReadsFromError(
                    f"{mop.label} reads {obj!r}={value!r} but no "
                    "m-operation writes that value"
                )
            if len(candidates) > 1:
                raise ReadsFromError(
                    f"{mop.label} reads {obj!r}={value!r} which is written "
                    f"by {len(candidates)} m-operations; {remedy} "
                    "reads_from map to disambiguate"
                )
            result[key] = candidates[0]
    return result
