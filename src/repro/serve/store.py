"""Content-addressed artifact store with a retention policy.

Artifacts (the canonical JSON text of a
:class:`~repro.runtime.execute.RunArtifact`, written byte for byte)
are stored on disk keyed by their ``history_hash`` — one file
per distinct history, so resubmitting a spec (or two specs that
happen to produce the same history) never duplicates bytes.  A
retention policy bounds the store: when either the entry count or the
total byte budget is exceeded, the least recently *used* artifacts
are evicted (reads refresh recency, so hot verdicts survive).

The store is safe for concurrent use from the daemon's worker
threads; all index mutations happen under one lock and file writes go
through a same-directory temp file + ``os.replace`` so readers never
observe a torn artifact.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

__all__ = ["ArtifactStore", "RetentionPolicy", "StoreError"]


class StoreError(ReproError):
    """The artifact store could not read or write an entry."""


class RetentionPolicy:
    """Bounds on the artifact store (``None`` = unbounded).

    Attributes:
        max_entries: maximum number of stored artifacts.
        max_bytes: maximum total serialized size.
    """

    __slots__ = ("max_entries", "max_bytes")

    def __init__(
        self,
        max_entries: Optional[int] = 512,
        max_bytes: Optional[int] = 256 * 1024 * 1024,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise StoreError(
                f"max_entries must be >= 1 (or None), got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise StoreError(
                f"max_bytes must be >= 1 (or None), got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }


class ArtifactStore:
    """Disk store of artifact JSON, keyed by content hash.

    ``put`` is idempotent per key; ``get`` refreshes the entry's LRU
    position.  Existing files are re-indexed at startup (ordered by
    mtime, oldest first) so a restarted daemon keeps its artifacts.
    """

    def __init__(
        self,
        root: os.PathLike,
        policy: Optional[RetentionPolicy] = None,
    ) -> None:
        self.root = Path(root)
        self.policy = policy or RetentionPolicy()
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: key -> size in bytes, in least-recently-used-first order.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self._load_existing()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def put(self, key: str, text: str) -> str:
        """Store an artifact's JSON ``text`` under ``key``, as is;
        returns the file path."""
        self._check_key(key)
        payload = text.encode("utf-8")
        path = self._path(key)
        with self._lock:
            if key in self._index:
                # Same content hash -> same artifact; refresh recency.
                self._index.move_to_end(key)
                return str(path)
            tmp = path.with_suffix(".tmp")
            try:
                tmp.write_bytes(payload)
                os.replace(tmp, path)
            except OSError as exc:
                raise StoreError(
                    f"cannot write artifact {key}: {exc}"
                ) from exc
            self._index[key] = len(payload)
            self._bytes += len(payload)
            self._evict_over_budget()
        return str(path)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored artifact dict, or None when absent/evicted."""
        self._check_key(key)
        path = self._path(key)
        with self._lock:
            if key not in self._index:
                return None
            self._index.move_to_end(key)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"artifact {key} is unreadable: {exc}"
            ) from exc

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> List[str]:
        """Stored keys, least recently used first."""
        with self._lock:
            return list(self._index)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._index),
                "bytes": self._bytes,
                "evictions": self.evictions,
                "policy": self.policy.to_dict(),
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_key(key: str) -> None:
        # Keys are hex digests; anything else risks path traversal.
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise StoreError(
                f"artifact key must be a lowercase hex digest, got "
                f"{key!r}"
            )

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _load_existing(self) -> None:
        entries = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.stem, stat.st_size))
        for _mtime, key, size in sorted(entries):
            self._index[key] = size
            self._bytes += size
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        # Caller holds the lock (or is the constructor).
        policy = self.policy
        while self._index and (
            (
                policy.max_entries is not None
                and len(self._index) > policy.max_entries
            )
            or (
                policy.max_bytes is not None
                and self._bytes > policy.max_bytes
            )
        ):
            key, size = self._index.popitem(last=False)
            self._bytes -= size
            self.evictions += 1
            try:
                self._path(key).unlink()
            except OSError:
                # The index entry is gone either way; a leftover file
                # is re-indexed (and re-evicted) on the next startup.
                continue
