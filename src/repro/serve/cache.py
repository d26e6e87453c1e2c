"""Verdict cache: canonical spec hash → finished ``RunArtifact`` dict.

Every run the simulator executes is a pure function of its
:class:`~repro.runtime.spec.RunSpec` (that is the whole point of the
deterministic kernel), so a finished artifact can be replayed to any
later submission of a semantically identical spec.  The cache keys on
:meth:`RunSpec.spec_hash` — the canonical, defaults-materialized form
— holds a bounded number of artifacts in memory (LRU), and writes
every entry through to disk so a restarted daemon starts warm.

Only *successful* executions are cached; a failed run (worker crash,
fault-policy error) must re-execute on resubmission.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["VerdictCache"]


class VerdictCache:
    """Disk-backed LRU of spec-hash → artifact dict.

    ``memory_entries`` bounds the in-memory tier only; the disk tier
    holds every verdict ever cached (it lives inside the store
    directory, whose retention is managed separately by the
    operator).  A memory miss that hits disk repopulates the memory
    tier, so steady-state repeat traffic is served without I/O.
    """

    def __init__(
        self,
        root: os.PathLike,
        memory_entries: int = 256,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.memory_entries = max(1, int(memory_entries))
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The cached artifact for this spec hash, or None."""
        with self._lock:
            cached = self._memory.get(spec_hash)
            if cached is not None:
                self._memory.move_to_end(spec_hash)
                self.hits += 1
                return cached
        # Memory miss: try the disk tier outside the lock (read-only).
        path = self._path(spec_hash)
        try:
            artifact = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # Absent or torn disk entry == a miss; the run simply
            # re-executes and rewrites it.
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
            self.disk_hits += 1
            self._remember(spec_hash, artifact)
        return artifact

    def put(
        self, spec_hash: str, artifact: Dict[str, Any], text: str
    ) -> None:
        """Cache a finished artifact: ``artifact`` in memory, its JSON
        ``text`` written through to disk as is."""
        path = self._path(spec_hash)
        tmp = path.with_suffix(".tmp")
        with self._lock:
            self._remember(spec_hash, artifact)
            try:
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, path)
            except OSError:
                # Disk tier is an optimization; the memory entry is
                # already live and the next daemon start just runs cold.
                return

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "memory_entries": len(self._memory),
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remember(self, spec_hash: str, artifact: Dict[str, Any]) -> None:
        # Caller holds the lock.
        self._memory[spec_hash] = artifact
        self._memory.move_to_end(spec_hash)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _path(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}.json"
