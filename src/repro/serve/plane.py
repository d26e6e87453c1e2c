"""The verification control plane behind ``python -m repro serve``.

:class:`ControlPlane` owns everything the HTTP layer exposes: a
bounded queue drained by a worker-thread pool (each worker drives
:func:`repro.runtime.execute`), the artifact store keyed by canonical
spec hash, the JSONL audit log, and a
:class:`~repro.obs.metrics.MetricsRegistry` of serving metrics.

Submission semantics (the interesting part):

* a spec whose canonical hash is in the **artifact store** never
  executes — the submission returns a terminal ``cached`` run that
  carries the stored artifact;
* a spec whose hash matches an **in-flight** run coalesces onto it —
  N concurrent clients submitting one spec cost one execution and
  all observe the same run id and artifact bytes;
* anything else is enqueued, executed by a worker, stored once under
  its spec hash and marked ``done`` — or ``failed``, and failures are
  deliberately *not* stored so a resubmission retries.

The simulator itself is single-threaded per run and shares no state
across clusters, so runs execute concurrently; the one global the
runtime touches — the :mod:`repro.obs` tracer/metrics slots — is
serialized under ``_OBS_LOCK`` for the (rare) specs that ask for
tracing or metrics.
"""

from __future__ import annotations

import queue
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.runtime import RunSpec, execute
from repro.runtime.registry import get_protocol, get_workload
from repro.serve.audit import AuditLog
from repro.serve.clock import tick, wall_now
from repro.serve.store import ArtifactStore, RetentionPolicy, Stored

__all__ = [
    "ControlPlane",
    "QueueFullError",
    "RunRecord",
    "ServeConfig",
    "SubmitError",
]

#: Serializes runs that install the process-global obs tracer/metrics.
_OBS_LOCK = threading.Lock()


class SubmitError(ReproError):
    """The submission is malformed (HTTP 400)."""


class QueueFullError(ReproError):
    """The run queue is at capacity (HTTP 503; retry later)."""


class ServeConfig:
    """Daemon knobs, one place (CLI flags map 1:1 onto these)."""

    __slots__ = (
        "host",
        "port",
        "workers",
        "store_dir",
        "queue_depth",
        "cache_entries",
        "retain_entries",
        "retain_bytes",
        "max_run_records",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        workers: int = 2,
        store_dir: str = "repro-store",
        queue_depth: int = 64,
        cache_entries: int = 256,
        retain_entries: Optional[int] = 512,
        retain_bytes: Optional[int] = 256 * 1024 * 1024,
        max_run_records: int = 4096,
    ) -> None:
        # queue.Queue(maxsize=0) is unbounded: load shedding would
        # silently switch off.
        for name, value in (
            ("workers", workers),
            ("queue_depth", queue_depth),
            ("cache_entries", cache_entries),
        ):
            if value < 1:
                raise SubmitError(f"{name} must be >= 1, got {value}")
        self.host = host
        self.port = port
        self.workers = workers
        self.store_dir = store_dir
        self.queue_depth = queue_depth
        self.cache_entries = cache_entries
        self.retain_entries = retain_entries
        self.retain_bytes = retain_bytes
        self.max_run_records = max_run_records


class RunRecord:
    """One submission's lifecycle, from queue to terminal state.

    The record is read by HTTP handler threads while a worker thread
    drives it through ``queued -> running -> done/failed``, so every
    mutable field lives behind the record's own lock: readers go
    through the locked properties, writers through the three
    transition methods.  ``to_dict`` snapshots all fields under one
    lock acquisition so a client never observes a torn state (e.g.
    ``status == "done"`` with ``run_seconds`` still ``None``).

    A terminal record's artifact is the canonical JSON text the store
    holds — the same object, not a copy — so records and the memory
    tier together cost one text per artifact, never a parsed dict.

    Lock ordering: ``ControlPlane._lock`` may be held while taking a
    record's lock (``state_summary`` does), never the reverse.
    """

    TERMINAL = ("done", "failed", "cached")

    __slots__ = (
        "run_id",
        "spec",
        "spec_hash",
        "submitted_at",
        "event",
        "_lock",
        "_status",
        "_artifact",
        "_history_hash",
        "_error",
        "_started_at",
        "_finished_at",
        "_run_seconds",
        "_trace",
    )

    def __init__(self, run_id: str, spec: RunSpec, spec_hash: str) -> None:
        self.run_id = run_id
        self.spec = spec
        self.spec_hash = spec_hash
        self.submitted_at = wall_now()
        self.event = threading.Event()
        self._lock = threading.Lock()
        self._status = "queued"
        self._artifact: Optional[str] = None
        self._history_hash: Optional[str] = None
        self._error: Optional[str] = None
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._run_seconds: Optional[float] = None
        self._trace: Optional[List[Dict[str, Any]]] = None

    # -- locked reads ---------------------------------------------------

    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    @property
    def artifact(self) -> Optional[str]:
        """The artifact's canonical JSON text once the run succeeded."""
        with self._lock:
            return self._artifact

    @property
    def history_hash(self) -> Optional[str]:
        with self._lock:
            return self._history_hash

    @property
    def error(self) -> Optional[str]:
        with self._lock:
            return self._error

    @property
    def started_at(self) -> Optional[float]:
        with self._lock:
            return self._started_at

    @property
    def finished_at(self) -> Optional[float]:
        with self._lock:
            return self._finished_at

    @property
    def run_seconds(self) -> Optional[float]:
        with self._lock:
            return self._run_seconds

    @property
    def trace(self) -> Optional[List[Dict[str, Any]]]:
        with self._lock:
            return self._trace

    @property
    def terminal(self) -> bool:
        with self._lock:
            return self._status in self.TERMINAL

    # -- transitions (worker / submit thread) ---------------------------

    def mark_running(self) -> None:
        with self._lock:
            self._status = "running"
            self._started_at = wall_now()

    def finish(
        self,
        text: str,
        history_hash: Optional[str],
        trace: Optional[List[Dict[str, Any]]],
        run_seconds: float,
    ) -> None:
        with self._lock:
            self._artifact = text
            self._history_hash = history_hash
            self._trace = trace
            self._run_seconds = run_seconds
            self._finished_at = wall_now()
            self._status = "done"

    def fail(self, error: str, run_seconds: float) -> None:
        with self._lock:
            self._error = error
            self._run_seconds = run_seconds
            self._finished_at = wall_now()
            self._status = "failed"

    def complete_cached(self, stored: Stored) -> None:
        """Terminal from birth: the artifact store had the answer."""
        with self._lock:
            self._artifact, self._history_hash = stored
            self._finished_at = self.submitted_at
            self._run_seconds = 0.0
            self._status = "cached"
        self.event.set()

    def to_dict(self, *, include_artifact: bool = True) -> Dict[str, Any]:
        """One consistent snapshot; its ``artifact`` is the canonical
        JSON *text* (None until the run is terminal), for the HTTP
        layer to splice in as it is."""
        with self._lock:
            terminal = self._status in self.TERMINAL
            info: Dict[str, Any] = {
                "run_id": self.run_id,
                "status": self._status,
                "protocol": self.spec.protocol,
                "workload": self.spec.workload,
                "seed": self.spec.seed,
                "spec_hash": self.spec_hash,
                "history_hash": self._history_hash,
                "error": self._error,
                "submitted_at": self.submitted_at,
                "started_at": self._started_at,
                "finished_at": self._finished_at,
                "run_seconds": self._run_seconds,
                "traced": self._trace is not None,
            }
            if include_artifact:
                info["artifact"] = self._artifact if terminal else None
            return info


class ControlPlane:
    """Worker pool + store + audit behind one submit() call."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        root = Path(self.config.store_dir)
        self.store = ArtifactStore(
            root / "artifacts",
            RetentionPolicy(
                max_entries=self.config.retain_entries,
                max_bytes=self.config.retain_bytes,
            ),
            memory_entries=self.config.cache_entries,
        )
        self.audit = AuditLog(root / "requests.log.jsonl")
        self.registry = MetricsRegistry()
        self.started_at = wall_now()
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue(
            maxsize=self.config.queue_depth
        )
        self._records: Dict[str, RunRecord] = {}
        self._order: List[str] = []
        self._inflight: Dict[str, str] = {}
        self._seq = 0
        self._verdicts: Dict[Tuple[str, str], int] = {}
        self._threads: List[threading.Thread] = []
        # Fill the registries up front so worker threads never race a
        # first-touch import of the protocol/workload modules.
        get_protocol("msc")
        get_workload("random")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._threads:
                return  # already started; a second pool would race the queue
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                for index in range(self.config.workers)
            ]
            threads = list(self._threads)
        for thread in threads:
            thread.start()

    def stop(self) -> None:
        # Swap the pool out under the lock; join outside it so a
        # worker draining its last run can still use the plane.
        with self._lock:
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=30.0)
        self.audit.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, data: Mapping[str, Any], client: Optional[str] = None
    ) -> Tuple[RunRecord, str]:
        """Submit one spec; returns ``(record, outcome)``.

        ``outcome`` is ``"cached"``, ``"coalesced"`` or ``"queued"``.
        Raises :class:`SubmitError` on a malformed spec and
        :class:`QueueFullError` when the queue is at capacity.
        """
        if not isinstance(data, Mapping):
            raise SubmitError("submission body must be a JSON object")
        try:
            spec = RunSpec.from_dict(data)
            # Resolve both registry names now so a typo is a 4xx at
            # submit time, not a failed run discovered by polling.
            get_protocol(spec.protocol)
            get_workload(spec.workload)
        except ReproError as exc:
            self.registry.counter("serve.submissions", outcome="rejected").inc()
            self.audit.record(
                "reject", client=client, detail=str(exc)
            )
            raise SubmitError(str(exc)) from exc
        spec_hash = spec.spec_hash()
        with self._lock:
            cached = self.store.lookup(spec_hash)
            if cached is not None:
                record = self._new_record(spec, spec_hash)
                record.complete_cached(cached)
                outcome = "cached"
            else:
                inflight_id = self._inflight.get(spec_hash)
                if inflight_id is not None:
                    record = self._records[inflight_id]
                    outcome = "coalesced"
                else:
                    record = self._new_record(spec, spec_hash)
                    try:
                        self._queue.put_nowait(record.run_id)
                    except queue.Full:
                        self._drop_record(record)
                        self.registry.counter(
                            "serve.submissions", outcome="shed"
                        ).inc()
                        self.audit.record(
                            "shed",
                            spec_hash=spec_hash,
                            protocol=spec.protocol,
                            client=client,
                        )
                        raise QueueFullError(
                            f"run queue is full "
                            f"({self.config.queue_depth} deep); retry"
                        ) from None
                    self._inflight[spec_hash] = record.run_id
                    outcome = "queued"
        self.registry.counter("serve.submissions", outcome=outcome).inc()
        self.audit.record(
            "submit",
            run_id=record.run_id,
            spec_hash=spec_hash,
            protocol=spec.protocol,
            status=record.status,
            client=client,
            detail=outcome,
        )
        return record, outcome

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def run_record(self, run_id: str) -> Optional[RunRecord]:
        with self._lock:
            return self._records.get(run_id)

    def wait(self, run_id: str, timeout: float = 60.0) -> Optional[RunRecord]:
        """Block until the run reaches a terminal state (or timeout);
        None at once for an unknown run id."""
        record = self.run_record(run_id)
        if record is None:
            return None
        record.event.wait(timeout)
        return record

    def artifact(self, spec_hash: str) -> Optional[str]:
        """The stored artifact's canonical JSON text, or None."""
        stored = self.store.get(spec_hash)
        return stored.text if stored is not None else None

    def trace_records(self, run_id: str) -> Optional[List[Dict[str, Any]]]:
        record = self.run_record(run_id)
        return record.trace if record is not None else None

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The obs-registry snapshot plus the serving state summary."""
        snapshot = self.registry.snapshot()
        snapshot["serve"] = self.state_summary()
        return snapshot

    def state_summary(self) -> Dict[str, Any]:
        """Queue/store/verdict state for /metrics and the dashboard."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = by_status.get(record.status, 0) + 1
            verdicts = {
                f"{protocol}/{outcome}": count
                for (protocol, outcome), count in sorted(
                    self._verdicts.items()
                )
            }
            recent = [
                self._records[run_id].to_dict(include_artifact=False)
                for run_id in self._order[-20:]
            ]
        return {
            "uptime_s": wall_now() - self.started_at,
            "workers": self.config.workers,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "runs_by_status": by_status,
            "verdicts": verdicts,
            "cache": self.store.cache_stats(),
            "store": self.store.stats(),
            "audit_entries": self.audit.entries,
            "recent_runs": recent,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _new_record(self, spec: RunSpec, spec_hash: str) -> RunRecord:
        # Caller holds the lock.
        self._seq += 1
        run_id = f"r{self._seq:06d}-{spec_hash[:8]}"
        record = RunRecord(run_id, spec, spec_hash)
        self._records[run_id] = record
        self._order.append(run_id)
        self._prune_records()
        return record

    def _drop_record(self, record: RunRecord) -> None:
        # Caller holds the lock.
        self._records.pop(record.run_id, None)
        if self._order and self._order[-1] == record.run_id:
            self._order.pop()

    def _prune_records(self) -> None:
        # Caller holds the lock.  Drop the oldest *terminal* records
        # beyond the bound; queued/running runs are never dropped.
        excess = len(self._order) - self.config.max_run_records
        if excess <= 0:
            return
        kept: List[str] = []
        for run_id in self._order:
            record = self._records.get(run_id)
            if record is None:
                continue
            if excess > 0 and record.terminal:
                del self._records[run_id]
                excess -= 1
            else:
                kept.append(run_id)
        self._order = kept

    def _worker(self) -> None:
        while True:
            run_id = self._queue.get()
            try:
                if run_id is None:
                    return
                record = self.run_record(run_id)
                if record is not None:
                    self._execute(record)
            finally:
                if run_id is not None:
                    record = self.run_record(run_id)
                    if record is not None:
                        with self._lock:
                            if self._inflight.get(record.spec_hash) == run_id:
                                del self._inflight[record.spec_hash]
                        record.event.set()
                self._queue.task_done()

    def _execute(self, record: RunRecord) -> None:
        record.mark_running()
        started = tick()
        spec = record.spec
        try:
            if spec.tracing or spec.metrics:
                with _OBS_LOCK:
                    artifact = execute(spec)
            else:
                artifact = execute(spec)
            # The canonical text, encoded once, is what goes to disk,
            # what the memory tier and the record share and what the
            # HTTP layer serves, byte for byte.  Persist before
            # flipping status: a client that sees "done" must find the
            # artifact in the store too (a store that cannot write
            # fails the run).
            text = artifact.to_json()
            self.store.put(record.spec_hash, text, artifact.history_hash)
        except Exception as exc:  # a failed run, not a dead daemon
            run_seconds = tick() - started
            error = f"{type(exc).__name__}: {exc}"
            record.fail(error, run_seconds)
            self.registry.counter(
                "serve.runs", result="failed", protocol=spec.protocol
            ).inc()
            self._count_verdict(spec.protocol, "failed")
            self.audit.record(
                "failed",
                run_id=record.run_id,
                spec_hash=record.spec_hash,
                protocol=spec.protocol,
                detail=error,
            )
        else:
            trace = (
                artifact.tracer.records()
                if artifact.tracer is not None
                else None
            )
            run_seconds = tick() - started
            record.finish(
                text, artifact.history_hash, trace, run_seconds
            )
            outcome = "ok" if artifact.ok else "violated"
            self.registry.counter(
                "serve.runs", result=outcome, protocol=spec.protocol
            ).inc()
            self._count_verdict(spec.protocol, outcome)
            self.audit.record(
                "done",
                run_id=record.run_id,
                spec_hash=record.spec_hash,
                protocol=spec.protocol,
                status=outcome,
            )
        self.registry.histogram(
            "serve.run.seconds",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0),
        ).observe(run_seconds)

    def _count_verdict(self, protocol: str, outcome: str) -> None:
        with self._lock:
            key = (protocol, outcome)
            self._verdicts[key] = self._verdicts.get(key, 0) + 1
