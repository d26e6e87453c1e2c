"""Operations and m-operations: the paper's Section 2.1 model.

A *concurrent system* consists of sequential processes that manipulate
shared objects through *m-operations*.  An m-operation is a sequence of
read and write operations, possibly spanning several objects, that is
meant to take effect atomically.  This module provides:

* :class:`Operation` — a single read ``r(x)v`` or write ``w(x)v``.
* :class:`MOperation` — an m-operation: a process identifier, a
  sequence of operations, and optional invocation/response timestamps.

Externally visible behaviour
----------------------------

Section 2.2 of the paper notes that some operations inside an
m-operation are invisible to the rest of the system:

* A read of ``x`` that is preceded by a write to ``x`` *within the same
  m-operation* must return the value of the last such write; it never
  reads from another m-operation.  We validate this and then ignore
  such reads ("internal reads").
* Only the *last* write to ``x`` within an m-operation is visible to
  other m-operations ("the external write"); earlier writes are
  overwritten before the m-operation completes.

:attr:`MOperation.external_reads` and :attr:`MOperation.external_writes`
expose exactly the visible behaviour, and all legality machinery in
:mod:`repro.core.legality` is phrased in terms of them.  Both are
derived once, by the one walk of the ops that also validates internal
reads, when the m-operation is built; ``objects``, ``wobjects``,
``robjects``, ``is_update`` and ``is_query`` are read off them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.errors import MalformedOperationError

#: Identifier reserved for the imaginary initial m-operation that the
#: paper assumes "writes to all objects ... before the first operation
#: by any process is executed" (Section 2.1).
INIT_UID = 0


class OpKind(str, Enum):
    """The two primitive operation kinds of the model."""

    READ = "r"
    WRITE = "w"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_WRITE = OpKind.WRITE

#: The shared view of an m-operation that reads (or writes) nothing.
_NONE: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True)
class Operation:
    """A single read or write operation on one object.

    Attributes:
        kind: whether this is a read or a write.
        obj: the name of the shared object acted upon.
        value: for a write, the value written; for a read, the value
            returned by the read.
    """

    # Slots by hand: ``dataclass(slots=True)`` builds each class twice,
    # and a second such class raised the import-time peak RSS of a
    # benchmark worker by ~0.25 MiB (``MOperation`` is the first).
    __slots__ = ("kind", "obj", "value")

    kind: OpKind
    obj: str
    value: Any

    def __reduce__(self) -> Tuple[Any, ...]:
        # Frozen slots take no ``setattr``: copies go through __init__.
        return (Operation, (self.kind, self.obj, self.value))

    @property
    def is_read(self) -> bool:
        """True iff this operation is a read."""
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        """True iff this operation is a write."""
        return self.kind is OpKind.WRITE

    def __str__(self) -> str:
        return f"{self.kind.value}({self.obj}){self.value}"


def read(obj: str, value: Any) -> Operation:
    """Build a read operation ``r(obj)value``."""
    return Operation(OpKind.READ, obj, value)


def write(obj: str, value: Any) -> Operation:
    """Build a write operation ``w(obj)value``."""
    return Operation(OpKind.WRITE, obj, value)


@dataclass(frozen=True, slots=True)
class MOperation:
    """An m-operation: an atomic multi-object procedure (Section 2.1).

    Attributes:
        uid: identifier, unique within a history.  ``INIT_UID`` (0) is
            reserved for the imaginary initial m-operation.
        process: index of the issuing process, or ``None`` for the
            initial m-operation.
        ops: the sequence of read/write operations performed.
        inv: invocation timestamp (real time), or ``None`` if untimed.
        resp: response timestamp (real time), or ``None`` if untimed.
        name: optional human-readable label (e.g. ``"alpha"``).
        external_writes: the externally visible writes, object -> last
            value written (Section 2.2); derived, read-only.
    """

    uid: int
    process: Optional[int]
    ops: Tuple[Operation, ...]
    inv: Optional[float] = None
    resp: Optional[float] = None
    name: str = ""
    external_writes: Mapping[str, Any] = field(
        init=False, repr=False, compare=False
    )
    _reads: Mapping[str, Any] = field(init=False, repr=False, compare=False)
    _disagreement: Optional[str] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        ops = self.ops
        if self.uid < 0:
            raise MalformedOperationError(
                f"m-operation uid must be non-negative, got {self.uid}"
            )
        if (self.inv is None) != (self.resp is None):
            raise MalformedOperationError(
                f"m-operation {self.label}: inv and resp must both be "
                "set or both be None"
            )
        if self.inv is not None and self.resp is not None:
            if not self.inv < self.resp:
                raise MalformedOperationError(
                    f"m-operation {self.label}: invocation time "
                    f"{self.inv} must precede response time {self.resp}"
                )
        # The one walk of the ops (Section 2.2).  A read of ``x`` after
        # a write to ``x`` is internal and must return the last such
        # write; any other read is external.  External reads of one
        # object that disagree are not an error of the m-operation by
        # itself: the first disagreement is kept and raised by
        # ``external_reads``, so a history reports it in listing order.
        reads: Dict[str, Any] = {}
        writes: Dict[str, Any] = {}
        disagreement = None
        for op in ops:
            obj = op.obj
            if op.kind is _WRITE:
                writes[obj] = op.value
            elif obj in writes:
                if op.value != writes[obj]:
                    raise MalformedOperationError(
                        f"m-operation {self.label}: internal read "
                        f"{op} does not match the last internal write "
                        f"w({obj}){writes[obj]}"
                    )
            elif obj not in reads:
                reads[obj] = op.value
            elif disagreement is None and reads[obj] != op.value:
                disagreement = (
                    f"m-operation {self.label}: external reads of "
                    f"{obj!r} disagree ({reads[obj]!r} vs {op.value!r}); "
                    "no legal sequential history can satisfy both"
                )
        object.__setattr__(self, "external_writes", writes or _NONE)
        object.__setattr__(self, "_reads", reads or _NONE)
        object.__setattr__(self, "_disagreement", disagreement)

    def __reduce__(self) -> Tuple[Any, ...]:
        # Copies and pickles rebuild the views from the fields.
        return (
            MOperation,
            (self.uid, self.process, self.ops, self.inv, self.resp, self.name),
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """A short human-readable identifier for error messages."""
        return self.name or f"m#{self.uid}"

    @property
    def is_initial(self) -> bool:
        """True iff this is the imaginary initial m-operation."""
        return self.uid == INIT_UID

    @property
    def objects(self) -> FrozenSet[str]:
        """``objects(a)``: every object read or written (Section 2.3);
        an internal read's object is by definition also written."""
        return frozenset(self._reads).union(self.external_writes)

    @property
    def wobjects(self) -> FrozenSet[str]:
        """``wobjects(a)``: the objects written (Section 4)."""
        return frozenset(self.external_writes)

    @property
    def robjects(self) -> FrozenSet[str]:
        """The objects read *externally* (ignoring internal reads)."""
        return frozenset(self.external_reads)

    @property
    def is_update(self) -> bool:
        """True iff the m-operation writes to some object (Section 4)."""
        return bool(self.external_writes)

    @property
    def is_query(self) -> bool:
        """True iff the m-operation writes to no object (Section 4)."""
        return not self.external_writes

    @property
    def external_reads(self) -> Mapping[str, Any]:
        """Externally visible reads: object -> value read; read-only.

        A read is external when no write to the same object precedes it
        within this m-operation.  Section 2.2 requires every external
        read of an object within one m-operation to read from the same
        write in any legal sequential history; we therefore insist that
        all external reads of one object return equal values (enforced
        here, on access, with :class:`MalformedOperationError`).
        """
        if self._disagreement is not None:
            raise MalformedOperationError(self._disagreement)
        return self._reads

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def overlaps(self, other: "MOperation") -> bool:
        """True iff the real-time intervals of the two m-operations overlap.

        Requires both m-operations to carry timestamps.  The initial
        m-operation never overlaps anything (it precedes everything).
        """
        if self.is_initial or other.is_initial:
            return False
        if self.inv is None or other.inv is None:
            raise MalformedOperationError(
                "overlaps() requires timestamps on both m-operations"
            )
        assert self.resp is not None and other.resp is not None
        return self.inv < other.resp and other.inv < self.resp

    def with_times(self, inv: float, resp: float) -> "MOperation":
        """Return a copy of this m-operation with the given interval."""
        return MOperation(
            uid=self.uid,
            process=self.process,
            ops=self.ops,
            inv=inv,
            resp=resp,
            name=self.name,
        )

    def __str__(self) -> str:
        body = " ".join(str(op) for op in self.ops)
        tag = self.name or f"m#{self.uid}"
        proc = "init" if self.process is None else f"P{self.process}"
        return f"{tag}[{proc}: {body}]"


def initial_mop(initial_values: Mapping[str, Any]) -> MOperation:
    """Build the imaginary initial m-operation (Section 2.1).

    The paper assumes an m-operation that writes the initial value of
    every object before any process starts.  Unless specified
    otherwise, the initial value of every object is 0.
    """
    ops = tuple(write(obj, initial_values[obj]) for obj in sorted(initial_values))
    return MOperation(uid=INIT_UID, process=None, ops=ops, name="init")


def make_mop(
    uid: int,
    process: int,
    ops: Iterable[Operation],
    *,
    inv: Optional[float] = None,
    resp: Optional[float] = None,
    name: str = "",
) -> MOperation:
    """Convenience constructor mirroring :class:`MOperation`'s fields."""
    return MOperation(
        uid=uid, process=process, ops=tuple(ops), inv=inv, resp=resp, name=name
    )
