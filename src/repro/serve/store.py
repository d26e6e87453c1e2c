"""The serving layer's one store: spec hash → finished artifact.

Every run the simulator executes is a pure function of its
:class:`~repro.runtime.spec.RunSpec`, and the spec fixes both the run
and the condition it is checked under, so a served artifact's identity
is :meth:`RunSpec.spec_hash` (the history hash is only its evidence:
one history can hold under m-SC and not under m-lin).  Each artifact
is one file, ``<root>/<spec_hash>.json``, holding the bytes of
:meth:`RunArtifact.to_json` as they are, written once through a
same-directory temp file and ``os.replace`` so readers never observe
a torn artifact.

An artifact is held only as that text, never as a parsed dict: the
HTTP layer splices it into its responses as it is.  Two tiers sit
under one lock, which no file write or read holds.  The memory tier is
an LRU of :class:`Stored` entries (``memory_entries``) that serves
repeat submissions without I/O.  The disk tier is bounded by a
:class:`RetentionPolicy` (entries and bytes, least recently *used*
evicted first: reads from either tier refresh recency) and re-indexed
from disk at startup, so a restarted daemon still answers ``cached``.
Evicting an entry removes it from both tiers.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Set

from repro.errors import ReproError

__all__ = ["ArtifactStore", "RetentionPolicy", "StoreError", "Stored"]

_HEX = frozenset("0123456789abcdef")


class StoreError(ReproError):
    """The artifact store could not read or write an entry."""


class Stored(NamedTuple):
    """One artifact as the store holds it."""

    #: the canonical JSON text, the file's bytes as they are.
    text: str
    #: its ``history_hash`` member, so a cache hit needs no parse.
    history_hash: Optional[str]


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
    """Artifacts keyed by spec hash: a memory LRU over a retained disk
    tier.

    ``lookup`` is a submission's read and counts a hit (``disk_hits``
    when the memory tier missed) or a miss; ``get`` is the same read
    uncounted.  Only finished, successful runs are ``put``.
    """

    def __init__(
        self,
        root: os.PathLike,
        policy: Optional[RetentionPolicy] = None,
        memory_entries: int = 256,
    ) -> None:
        self.root = Path(root)
        self.policy = policy or RetentionPolicy()
        self.memory_entries = memory_entries
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: key -> size in bytes, in least-recently-used-first order.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        #: key -> held artifact, least recently used first; a subset
        #: of ``_index``.
        self._memory: "OrderedDict[str, Stored]" = OrderedDict()
        #: keys whose file a ``put`` is writing, outside the lock.
        self._writing: Set[str] = set()
        self._bytes = 0
        self.evictions = 0
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self._load_existing()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def put(self, key: str, text: str, history_hash: Optional[str]) -> str:
        """Store a finished artifact's canonical JSON ``text`` (whose
        ``history_hash`` member is ``history_hash``) in memory and on
        disk as is; returns the file path."""
        self._check_key(key)
        path = self._path(key)
        entry = Stored(text, history_hash)
        with self._lock:
            if key in self._index:
                self._touch(key, entry)
                return str(path)
            if key in self._writing:
                return str(path)  # another put is writing the same bytes
            self._writing.add(key)
        # Write outside the lock: each syscall drops the GIL, and taking
        # it back can wait a whole switch interval behind a worker that
        # is running a simulation, while submissions' lookups queue on
        # this lock.  A key being written is not indexed yet, so no
        # eviction unlinks it meanwhile.
        payload = text.encode("utf-8")
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except OSError as exc:
            with self._lock:
                self._writing.discard(key)
            raise StoreError(f"cannot write artifact {key}: {exc}") from exc
        with self._lock:
            self._writing.discard(key)
            self._index[key] = len(payload)
            self._bytes += len(payload)
            self._touch(key, entry)
            self._evict_over_budget()
        return str(path)

    def get(self, key: str) -> Optional[Stored]:
        """The held artifact, or None when absent or evicted."""
        return self._read(key, count=False)

    def lookup(self, key: str) -> Optional[Stored]:
        """:meth:`get`, counted as one submission's hit or miss."""
        return self._read(key, count=True)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def stats(self) -> Dict[str, Any]:
        """The disk tier: ``/metrics``' ``serve.store`` block."""
        with self._lock:
            return {
                "entries": len(self._index),
                "bytes": self._bytes,
                "evictions": self.evictions,
                "policy": self.policy.to_dict(),
            }

    def cache_stats(self) -> Dict[str, Any]:
        """Submission lookups: ``/metrics``' ``serve.cache`` block."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "memory_entries": len(self._memory),
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _read(self, key: str, count: bool) -> Optional[Stored]:
        self._check_key(key)
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._touch(key, entry)
                self.hits += count
                return entry
            if key not in self._index:
                self.misses += count
                return None
        # Memory miss on a retained key: read the disk tier outside the
        # lock.  It is parsed once, for its history hash and so that a
        # file evicted, torn or foreign meanwhile reads as a miss.
        entry = self._load(key)
        with self._lock:
            if entry is None or key not in self._index:
                self.misses += count
                return None
            self._touch(key, entry)
            self.hits += count
            self.disk_hits += count
        return entry

    def _load(self, key: str) -> Optional[Stored]:
        try:
            text = self._path(key).read_text(encoding="utf-8")
            artifact = json.loads(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(artifact, dict):
            return None
        return Stored(text, artifact.get("history_hash"))

    def _touch(self, key: str, entry: Stored) -> None:
        # Caller holds the lock; ``key`` is indexed.
        self._index.move_to_end(key)
        self._memory[key] = entry
        self._memory.move_to_end(key)
        if len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    @staticmethod
    def _check_key(key: str) -> None:
        # Keys are hex digests; anything else risks path traversal.
        if not key or not _HEX.issuperset(key):
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
            self._memory.pop(key, None)
            self._bytes -= size
            self.evictions += 1
            try:
                self._path(key).unlink()
            except OSError:
                # The index entry is gone either way; a leftover file
                # is re-indexed (and re-evicted) on the next startup.
                continue
