"""``GET /v1/runs/<id>?wait=<s>``: a miss waits instead of polling.

The request blocks on the run's completion event, up to the daemon's
``MAX_WAIT_S``, so a run that finishes in time costs one GET.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime import RunSpec
from repro.serve import daemon as daemon_module
from repro.serve import plane as plane_module

SPEC = RunSpec(protocol="mlin", ops=3, seed=21)


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def gate(monkeypatch):
    """Hold every run at the start of its execution until set."""
    opened = threading.Event()
    execute = plane_module.execute

    def gated(spec):
        opened.wait(30.0)
        return execute(spec)

    monkeypatch.setattr(plane_module, "execute", gated)
    yield opened
    opened.set()  # let the workers drain before the daemon stops


def test_a_queued_run_answers_terminal_in_one_get(client, daemon, gate):
    run_id = client.submit(SPEC)["run_id"]
    threading.Timer(0.2, gate.set).start()
    status, body = _get(f"{daemon.url}/v1/runs/{run_id}?wait=20")
    assert status == 200
    assert body["run"]["status"] == "done"
    assert body["run"]["artifact"]["ok"] is True


def test_client_wait_is_one_request(client, gate, monkeypatch):
    run_id = client.submit(SPEC.with_(seed=22))["run_id"]
    paths = []
    request = client._request

    def counted(path, body=None):
        paths.append(path)
        return request(path, body)

    monkeypatch.setattr(client, "_request", counted)
    threading.Timer(0.2, gate.set).start()
    assert client.wait(run_id, poll_interval=0.002)["status"] == "done"
    assert len(paths) == 1 and "?wait=" in paths[0]


def test_unknown_run_is_404_at_once(daemon):
    start = time.perf_counter()
    status, body = _get(f"{daemon.url}/v1/runs/r999999-deadbeef?wait=20")
    assert status == 404
    assert "unknown run" in body["error"]
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "query", ["wait=", "wait=abc", "wait=-1", "wait=nan", "wait=inf",
              "wait=1&wait=2"],
)
def test_bad_wait_is_400(client, daemon, query):
    run_id = client.submit_and_wait(SPEC)["run_id"]
    status, body = _get(f"{daemon.url}/v1/runs/{run_id}?{query}")
    assert status == 400
    assert "wait" in body["error"]


def test_the_wait_cap_holds(client, daemon, gate, monkeypatch):
    monkeypatch.setattr(daemon_module, "MAX_WAIT_S", 0.3)
    run_id = client.submit(SPEC.with_(seed=23))["run_id"]
    start = time.perf_counter()
    status, body = _get(f"{daemon.url}/v1/runs/{run_id}?wait=100")
    elapsed = time.perf_counter() - start
    assert status == 200
    assert body["run"]["status"] in ("queued", "running")
    assert body["run"]["artifact"] is None
    assert 0.25 <= elapsed < 10.0
