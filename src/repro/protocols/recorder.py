"""History recording for protocol runs (S16).

Protocol processes report, for each m-operation they issue: the
invocation and response times, the operation sequence it performed,
and the reads-from entries captured from the store's version tracking
(the operational reading of D 5.1/D 5.6).  The recorder assembles a
:class:`~repro.core.history.History` that the Section 2/4 checkers can
consume directly — this is the loop that turns Theorems 15 and 20 into
executable experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.history import History
from repro.core.operation import MOperation, Operation
from repro.errors import ProtocolError


@dataclass
class OpRecord:
    """One completed m-operation as reported by its issuing process.

    Attributes:
        uid: m-operation uid (cluster-wide unique, > 0).
        process: issuing process pid.
        name: program label.
        inv: invocation (virtual) time.
        resp: response (virtual) time.
        ops: the operation sequence performed at the issuer.
        reads_from: obj -> writer uid for external reads.
        result: the program's return value.
        is_update: conservative update classification used by the
            protocol (``may_write``), *not* whether it actually wrote.
    """

    uid: int
    process: int
    name: str
    inv: float
    resp: float
    ops: Tuple[Operation, ...]
    reads_from: Mapping[str, int]
    result: Any
    is_update: bool


@dataclass
class HistoryRecorder:
    """Collects :class:`OpRecord` entries and builds a history."""

    records: List[OpRecord] = field(default_factory=list)
    _open_invocations: Dict[int, Tuple[float, str]] = field(
        default_factory=dict
    )

    def begin(self, uid: int, inv: float, name: str) -> None:
        """Mark an m-operation as invoked (for liveness accounting)."""
        if uid in self._open_invocations:
            raise ProtocolError(f"m-operation uid {uid} invoked twice")
        self._open_invocations[uid] = (inv, name)

    def complete(self, record: OpRecord) -> None:
        """Record a completed m-operation."""
        self._open_invocations.pop(record.uid, None)
        self.records.append(record)

    @property
    def incomplete(self) -> Dict[int, Tuple[float, str]]:
        """Invocations that never received a response."""
        return dict(self._open_invocations)

    def build_history(
        self, initial_values: Mapping[str, Any]
    ) -> History:
        """Assemble the recorded run into a checkable history.

        Raises :class:`ProtocolError` if any invocation is still open —
        the consistency conditions are defined over complete histories,
        and a hung m-operation indicates a protocol bug anyway.
        """
        if self._open_invocations:
            pending = ", ".join(
                f"{name}(uid={uid})"
                for uid, (_t, name) in sorted(self._open_invocations.items())
            )
            raise ProtocolError(
                f"cannot build history: incomplete m-operations: {pending}"
            )
        mops: List[MOperation] = []
        reads_from: Dict[Tuple[int, str], int] = {}
        for rec in sorted(self.records, key=lambda r: (r.inv, r.uid)):
            mops.append(
                MOperation(
                    uid=rec.uid,
                    process=rec.process,
                    ops=rec.ops,
                    inv=rec.inv,
                    resp=rec.resp,
                    name=f"{rec.name}#{rec.uid}",
                )
            )
            for obj, writer in rec.reads_from.items():
                reads_from[(rec.uid, obj)] = writer
        return History.from_mops(
            mops,
            initial_values=dict(initial_values),
            reads_from=reads_from,
        )

    def response_times(self) -> List[Tuple[OpRecord, float]]:
        """(record, latency) pairs for every completed m-operation."""
        return [(rec, rec.resp - rec.inv) for rec in self.records]
