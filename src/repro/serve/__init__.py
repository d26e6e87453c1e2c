"""repro.serve — the verification control plane.

A dependency-free HTTP daemon that turns the runtime layer's
``RunSpec → execute() → RunArtifact`` pipeline into a long-running
service: specs arrive over HTTP, run on a bounded worker pool, and
each artifact is stored once under its *canonical spec hash*
(:meth:`~repro.runtime.spec.RunSpec.spec_hash`), which identifies
both the run and the condition it is checked under.  That one store
answers repeat submissions, an append-only JSONL audit log records
every request, and live metrics + an HTML dashboard expose the
serving state.

An artifact is held in one form only: the canonical JSON text of
:meth:`~repro.runtime.execute.RunArtifact.to_json`, the stored file's
bytes.  The memory tier and every terminal :class:`RunRecord` share
that one string, and the HTTP layer splices it into its responses
as it is.  A client awaits a queued run with one blocking
``GET /v1/runs/<id>?wait=<s>``, not by polling.

Surfaces:

* ``python -m repro serve [--port --workers --store DIR]`` — the CLI;
* :class:`ServeDaemon` — embeddable daemon (tests, benchmarks);
* :class:`ServeClient` — stdlib urllib client;
* ``benchmarks/bench_serve.py`` — the load generator.

See ``docs/serving.md`` for the endpoint reference and the store's
retention semantics.
"""

from __future__ import annotations

from repro.serve.audit import AuditLog
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.daemon import ServeDaemon
from repro.serve.dashboard import render_dashboard
from repro.serve.plane import (
    ControlPlane,
    QueueFullError,
    RunRecord,
    ServeConfig,
    SubmitError,
)
from repro.serve.store import ArtifactStore, RetentionPolicy, StoreError

__all__ = [
    "ArtifactStore",
    "AuditLog",
    "ControlPlane",
    "QueueFullError",
    "RetentionPolicy",
    "RunRecord",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeDaemon",
    "StoreError",
    "SubmitError",
    "render_dashboard",
]
