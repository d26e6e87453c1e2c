"""The HTTP face of the control plane: ``python -m repro serve``.

A stdlib :class:`~http.server.ThreadingHTTPServer` (one thread per
connection, daemon threads) routing onto a :class:`ControlPlane`:

========================  =============================================
``POST /v1/runs``         submit a RunSpec JSON; 202 + run id (200 on a
                          store hit, artifact included)
``GET /v1/runs/<id>``     run status; the artifact once terminal;
                          ``?wait=<s>`` first blocks until the run is
                          terminal, up to ``MAX_WAIT_S``
``GET /v1/artifacts/<h>`` stored artifact by spec hash
``GET /metrics``          MetricsRegistry snapshot + serving summary
``GET /trace/<id>``       recorded tracer spans of a traced run
``GET /``                 HTML dashboard
``GET /healthz``          liveness probe
========================  =============================================

Error mapping: malformed submissions are 400, unknown ids/hashes 404,
a full run queue 503 — never a 500 for a *failed run* (that is a
``status: failed`` on a 200; the daemon itself stayed healthy).

An artifact is never parsed or re-encoded here: the store holds its
canonical JSON text, and every body that carries it splices that text
in as it is (:func:`_with_artifact`).

On startup the daemon writes ``serve.json`` (bound host/port/pid)
into the store directory so tooling launched against ``--port 0``
can discover the ephemeral port.
"""

from __future__ import annotations

import json
import math
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.serve.dashboard import render_dashboard
from repro.serve.plane import ControlPlane, QueueFullError, ServeConfig, SubmitError

__all__ = ["ServeDaemon"]

#: Submission bodies beyond this are rejected outright (a RunSpec with
#: an explicit fault plan is a few KiB; 2 MiB is generous).
MAX_BODY_BYTES = 2 * 1024 * 1024

#: The longest one ``GET /v1/runs/<id>?wait=`` blocks; a client that
#: wants longer asks again.
MAX_WAIT_S = 20.0


def _with_artifact(fields: Dict[str, Any], text: Optional[str]) -> str:
    """``fields`` as sorted-key JSON with an ``artifact`` member: the
    stored canonical ``text`` spliced in as it is (``null`` for None).

    ``artifact`` sorts before every other field of a run or a
    submission, so it goes first.
    """
    rest = json.dumps(fields, sort_keys=True)
    return '{"artifact": %s, %s' % (text or "null", rest[1:])


def _wait_seconds(query: str) -> Optional[float]:
    """The ``wait`` parameter of a query string: None when absent,
    capped at :data:`MAX_WAIT_S`; ValueError unless it is one finite,
    non-negative number."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if values is None:
        return None
    if len(values) != 1:
        raise ValueError("give wait once")
    try:
        seconds = float(values[0])
    except ValueError:
        raise ValueError(f"wait must be a number, got {values[0]!r}") from None
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(
            f"wait must be a finite number >= 0, got {values[0]!r}"
        )
    return min(seconds, MAX_WAIT_S)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.plane``."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # A response goes out as two writes (header block, then body).
    # With Nagle on, the body waits for the client's delayed ACK of
    # the header segment: ~40 ms per exchange on a keep-alive
    # connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def plane(self) -> ControlPlane:
        return self.server.plane  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging belongs to the audit log, not stderr.
        pass

    def _send(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send(
            status, json.dumps(payload, sort_keys=True), "application/json"
        )

    def _send_html(self, status: int, text: str) -> None:
        self._send(status, text, "text/html; charset=utf-8")

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "invalid Content-Length")
            return None
        if length <= 0:
            self._error(400, "submission body is empty")
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/v1/runs":
            self._error(404, f"no POST route {self.path!r}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"submission is not valid JSON: {exc}")
            return
        if not isinstance(data, dict):
            self._error(400, "submission must be a JSON object")
            return
        try:
            record, outcome = self.plane.submit(
                data, client=self.client_address[0]
            )
        except SubmitError as exc:
            self._error(400, str(exc))
            return
        except QueueFullError as exc:
            self._error(503, str(exc))
            return
        payload = {
            "run_id": record.run_id,
            "status": record.status,
            "outcome": outcome,
            "spec_hash": record.spec_hash,
        }
        if outcome == "cached":
            self._send(
                200,
                _with_artifact(payload, record.artifact),
                "application/json",
            )
        else:
            self._send_json(202, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, _, query = self.path.partition("?")
        if path in ("/", "/index.html"):
            self._send_html(
                200, render_dashboard(self.plane.state_summary())
            )
        elif path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/metrics":
            self._send_json(200, self.plane.metrics_snapshot())
        elif path.startswith("/v1/runs/"):
            self._get_run(path[len("/v1/runs/"):], query)
        elif path.startswith("/v1/artifacts/"):
            self._get_artifact(path[len("/v1/artifacts/"):])
        elif path.startswith("/trace/"):
            self._get_trace(path[len("/trace/"):])
        else:
            self._error(404, f"no route {path!r}")

    def _get_run(self, run_id: str, query: str) -> None:
        try:
            wait = _wait_seconds(query)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if wait is None:
            record = self.plane.run_record(run_id)
        else:
            record = self.plane.wait(run_id, timeout=wait)
        if record is None:
            self._error(404, f"unknown run {run_id!r}")
            return
        info = record.to_dict()
        text = info.pop("artifact")
        self._send(
            200,
            '{"run": %s}' % _with_artifact(info, text),
            "application/json",
        )

    def _get_artifact(self, spec_hash: str) -> None:
        try:
            artifact = self.plane.artifact(spec_hash)
        except Exception as exc:  # bad key shape
            self._error(400, str(exc))
            return
        if artifact is None:
            self._error(
                404,
                f"no artifact {spec_hash!r} (never stored, or "
                "evicted by the retention policy)",
            )
            return
        self._send(200, artifact, "application/json")

    def _get_trace(self, run_id: str) -> None:
        record = self.plane.run_record(run_id)
        if record is None:
            self._error(404, f"unknown run {run_id!r}")
            return
        if record.trace is None:
            self._error(
                404,
                f"run {run_id!r} was not traced; submit the spec "
                'with "tracing": true',
            )
            return
        self._send_json(
            200, {"run_id": run_id, "spans": record.trace}
        )


class ServeDaemon:
    """Owns the HTTP server + control plane pair.

    ``start()`` binds, spins up the worker pool and serves in a
    background thread; ``serve_forever()`` is the foreground variant
    the CLI uses.  Either way ``stop()`` drains cleanly.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.plane = ControlPlane(self.config)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.plane = self.plane  # type: ignore[attr-defined]
        # start()/stop() may be called from different threads (a test
        # harness tearing down a daemon its setup started); the serve
        # thread handle is handed over under this lock.
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._write_endpoint_file()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``--port 0`` to the real one)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _write_endpoint_file(self) -> None:
        # Discovery hook for tooling that launched us with --port 0.
        path = Path(self.config.store_dir) / "serve.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "host": self.host,
                    "port": self.port,
                    "url": self.url,
                    "pid": os.getpid(),
                },
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    def start(self) -> None:
        """Serve in a background thread (tests, benchmarks)."""
        self.plane.start()
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        with self._lock:
            self._thread = thread
        thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI)."""
        self.plane.start()
        try:
            self._httpd.serve_forever()
        finally:
            self.plane.stop()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)
            self.plane.stop()

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
