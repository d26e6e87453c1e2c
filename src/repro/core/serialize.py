"""History (de)serialization: JSON round-trips for the CLI and tooling.

The interchange format is deliberately simple and human-writable::

    {
      "objects": {"x": 0, "y": 0},          // initial values
      "mops": [
        {"uid": 1, "process": 0, "name": "alpha",
         "inv": 0.0, "resp": 1.0,            // optional (both or neither)
         "ops": [["w", "x", 1], ["r", "y", 0]]},
        ...
      ],
      "reads_from": [[2, "x", 1], ...]       // optional [reader, obj, writer]
    }

Values must be JSON scalars.  When ``reads_from`` is omitted it is
derived by unique-value matching, as everywhere else in the library.

:func:`canonical_json` is the one machine-facing encoding in the
package: hashes (``history_hash``, ``RunSpec.spec_hash``) are taken
over it and the artifact files of :mod:`repro.runtime` and
:mod:`repro.serve` are written in it.  :func:`history_to_json` is the
indented view for people.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.operation import MOperation, OpKind, Operation
from repro.errors import MalformedHistoryError

_READ, _WRITE = OpKind.READ, OpKind.WRITE


#: Entries per :func:`canonical_json` call in :func:`canonical_history_json`.
#: Measured: at 256, a process encoding 600-m-op histories peaked
#: ~0.4 MiB higher than with one whole-history call; at 1,024 it does
#: not, and a 4,000-m-op history still never holds its whole dictionary.
_SLICE = 1024


def canonical_json(obj: Any) -> str:
    """``obj`` as canonical JSON text: sorted keys, no whitespace.

    No ``indent``, so CPython encodes in C (``indent`` silently selects
    the pure-Python ``_iterencode``, ~3x slower on a recorded history).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def history_to_dict(history: History) -> Dict[str, Any]:
    """Serialize a history to the interchange dictionary."""
    rows = history.reads_from_map
    return {
        "objects": dict(history.init.external_writes),
        "mops": [_mop_entry(mop) for mop in history.mops],
        "reads_from": [[*key, rows[key]] for key in sorted(rows)],
    }


def canonical_history_json(history: History) -> str:
    """``canonical_json(history_to_dict(history))``, byte for byte.

    Encoded :data:`_SLICE` entries at a time, so the interchange
    dictionary of a long history (~1 KB per m-operation, seven times
    its text) is never alive all at once.
    """
    rows = history.reads_from_map

    def sliced(items: Sequence[Any], entry: Callable[[Any], Any]) -> str:
        return ",".join(
            canonical_json([entry(item) for item in items[i : i + _SLICE]])[1:-1]
            for i in range(0, len(items), _SLICE)
        )

    return '{"mops":[%s],"objects":%s,"reads_from":[%s]}' % (
        sliced(history.mops, _mop_entry),
        canonical_json(dict(history.init.external_writes)),
        sliced(sorted(rows), lambda key: [*key, rows[key]]),
    )


def _mop_entry(mop: MOperation) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "uid": mop.uid,
        "process": mop.process,
        "name": mop.name,
        "ops": [[op.kind.value, op.obj, op.value] for op in mop.ops],
    }
    if mop.inv is not None:
        entry["inv"] = mop.inv
        entry["resp"] = mop.resp
    return entry


def history_from_dict(data: Dict[str, Any]) -> History:
    """Deserialize a history from the interchange dictionary.

    One loop over the m-operation entries builds each entry's ops and
    then its :class:`MOperation`, whose own walk of those ops derives
    the views that :meth:`History.from_mops` completes and validates
    the reads-from map against.
    """
    if not isinstance(data, dict) or "mops" not in data:
        raise MalformedHistoryError(
            "history document must be an object with a 'mops' array"
        )
    mops: List[MOperation] = []
    for entry in data["mops"]:
        ops: List[Operation] = []
        for item in entry.get("ops", []):
            try:
                kind, obj, value = item
            except (TypeError, ValueError):
                raise MalformedHistoryError(
                    f"malformed operation entry {item!r}; expected "
                    "[kind, object, value]"
                ) from None
            if kind == "r":
                ops.append(Operation(_READ, obj, value))
            elif kind == "w":
                ops.append(Operation(_WRITE, obj, value))
            else:
                raise MalformedHistoryError(
                    f"operation kind must be 'r' or 'w', got {kind!r}"
                )
        mops.append(
            MOperation(
                uid=int(entry["uid"]),
                process=int(entry["process"]),
                ops=tuple(ops),
                inv=entry.get("inv"),
                resp=entry.get("resp"),
                name=str(entry.get("name", "")),
            )
        )
    reads_from: Optional[Dict[Tuple[int, str], int]] = None
    if "reads_from" in data:
        reads_from = {
            (int(reader), str(obj)): int(writer)
            for reader, obj, writer in data["reads_from"]
        }
    return History.from_mops(
        mops,
        initial_values=data.get("objects"),
        reads_from=reads_from,
    )


def history_to_json(history: History, *, indent: int = 2) -> str:
    """Serialize a history to a JSON string."""
    return json.dumps(history_to_dict(history), indent=indent)


def history_from_json(text: str) -> History:
    """Deserialize a history from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHistoryError(f"invalid JSON: {exc}") from exc
    return history_from_dict(data)


def save_history(history: History, path: str) -> None:
    """Write a history to a JSON file, in :func:`canonical_json`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_history_json(history))
        handle.write("\n")


def load_history(path: str) -> History:
    """Read a history from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return history_from_json(handle.read())
