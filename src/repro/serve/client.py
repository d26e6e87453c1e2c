"""``repro.serve.client`` — a stdlib client for the serving daemon.

Everything speaks plain JSON over :mod:`urllib.request`, so scripts,
CI jobs and the load generator need no third-party HTTP stack:

    from repro.runtime import RunSpec
    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8642")
    submitted = client.submit(RunSpec(protocol="mlin", ops=8))
    artifact = client.wait(submitted["run_id"])["artifact"]

Server-reported errors raise :class:`ServeClientError` carrying the
HTTP status and the daemon's ``error`` message.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Union

from repro.errors import ReproError
from repro.runtime import RunSpec
from repro.serve.clock import sleep, tick

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(ReproError):
    """An HTTP error from the daemon (carries ``.status``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Thin JSON client over one daemon base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Raw HTTP
    # ------------------------------------------------------------------

    def _request(
        self,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                payload = response.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass  # non-JSON error body; keep the raw text
            raise ServeClientError(exc.code, detail) from None
        except urllib.error.URLError as exc:
            raise ServeClientError(0, f"cannot reach {url}: {exc.reason}")
        return json.loads(payload.decode("utf-8"))

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def submit(
        self, spec: Union[RunSpec, Dict[str, Any]]
    ) -> Dict[str, Any]:
        """POST one spec; returns the submission response.

        The response carries ``run_id``, ``status``, ``outcome``
        (``queued``/``coalesced``/``cached``) and, on a cache hit,
        the ``artifact`` itself.
        """
        body = spec.to_dict() if isinstance(spec, RunSpec) else spec
        return self._request("/v1/runs", body=body)

    def run(self, run_id: str) -> Dict[str, Any]:
        """GET one run's status (+ artifact once terminal)."""
        return self._request(f"/v1/runs/{run_id}")["run"]

    def wait(
        self,
        run_id: str,
        timeout: float = 60.0,
        poll_interval: float = 0.02,
    ) -> Dict[str, Any]:
        """Block until the run is terminal; returns the run dict.

        Each request waits on the daemon (``?wait=``), so a run that
        finishes within one request's wait costs one GET.
        ``poll_interval`` only paces the next request after one came
        back non-terminal (the daemon's wait cap, or half this
        client's socket timeout, ran out first).
        """
        deadline = tick() + timeout
        while True:
            wait = min(max(deadline - tick(), 0.0), self.timeout / 2)
            info = self._request(f"/v1/runs/{run_id}?wait={wait:.3f}")["run"]
            if info["status"] in ("done", "failed", "cached"):
                return info
            if tick() >= deadline:
                raise ServeClientError(
                    0,
                    f"run {run_id} still {info['status']} after "
                    f"{timeout}s",
                )
            sleep(poll_interval)

    def submit_and_wait(
        self,
        spec: Union[RunSpec, Dict[str, Any]],
        timeout: float = 60.0,
    ) -> Dict[str, Any]:
        """Submit, then wait; cache hits return without a second
        request."""
        submitted = self.submit(spec)
        if submitted["outcome"] == "cached":
            return {
                "run_id": submitted["run_id"],
                "status": "cached",
                "artifact": submitted["artifact"],
                "spec_hash": submitted["spec_hash"],
            }
        return self.wait(submitted["run_id"], timeout=timeout)

    def artifact(self, spec_hash: str) -> Dict[str, Any]:
        """GET a stored artifact by its spec hash."""
        return self._request(f"/v1/artifacts/{spec_hash}")

    def trace(self, run_id: str) -> Dict[str, Any]:
        """GET the tracer spans of a traced run."""
        return self._request(f"/trace/{run_id}")

    def metrics(self) -> Dict[str, Any]:
        """GET the daemon's metrics snapshot."""
        return self._request("/metrics")

    def healthy(self) -> bool:
        """True when the daemon answers its liveness probe."""
        try:
            return bool(self._request("/healthz").get("ok"))
        except (ServeClientError, OSError):
            return False

    def wait_healthy(self, timeout: float = 20.0) -> bool:
        """Poll /healthz until the daemon is up (startup helper)."""
        deadline = tick() + timeout
        while tick() < deadline:
            if self.healthy():
                return True
            sleep(0.05)
        return False
