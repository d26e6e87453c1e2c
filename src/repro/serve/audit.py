"""Append-only JSONL request log for the serving daemon.

Every submission — accepted, coalesced onto an in-flight run, served
from the artifact store, or rejected — appends one JSON line, so the
full request history of a daemon is one greppable file
(``requests.log.jsonl`` inside the store directory).  Writes are
serialized under a lock and flushed per line; the log is an audit
trail, not a hot path.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional

from repro.serve.clock import wall_now

__all__ = ["AuditLog"]


class AuditLog:
    """One JSONL line per request, flushed as it happens."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = self.path.open("a", encoding="utf-8")
        self.entries = 0

    def record(
        self,
        event: str,
        *,
        run_id: Optional[str] = None,
        spec_hash: Optional[str] = None,
        protocol: Optional[str] = None,
        status: Optional[str] = None,
        client: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Append one audit line (``ts`` is wall-clock epoch seconds)."""
        entry: Dict[str, Any] = {"ts": wall_now(), "event": event}
        for key, value in (
            ("run_id", run_id),
            ("spec_hash", spec_hash),
            ("protocol", protocol),
            ("status", status),
            ("client", client),
            ("detail", detail),
        ):
            if value is not None:
                entry[key] = value
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.entries += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
