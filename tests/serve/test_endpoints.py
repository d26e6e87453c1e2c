"""Endpoint contract tests over a live localhost daemon.

Submit/poll/artifact/metrics/trace/dashboard — every route the docs
promise, exercised through the real HTTP surface with the stdlib
client.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
import urllib.request

import pytest

from repro.core.serialize import canonical_json
from repro.runtime import RunSpec, execute
from repro.serve import (
    ServeClientError,
    ServeConfig,
    StoreError,
    SubmitError,
)

SPEC = RunSpec(protocol="mlin", ops=4, seed=3)


def _get_raw(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, response.read()


def test_submit_poll_artifact_roundtrip(client):
    submitted = client.submit(SPEC)
    assert submitted["outcome"] == "queued"
    assert submitted["status"] in ("queued", "running", "done")
    assert submitted["spec_hash"] == SPEC.spec_hash()

    run = client.wait(submitted["run_id"])
    assert run["status"] == "done"
    assert run["error"] is None
    artifact = run["artifact"]
    assert artifact["ok"] is True
    assert artifact["protocol"] == "mlin"
    assert artifact["spec"] == SPEC.to_dict()
    assert run["run_seconds"] > 0

    # The artifact is retrievable by the spec hash the POST returned.
    stored = client.artifact(submitted["spec_hash"])
    assert stored == artifact


def test_stored_files_are_the_artifact_bytes(client, daemon, tmp_path):
    """An executed run writes one file, ``RunArtifact.to_json()`` as is,
    and the history a client fetches hashes to its ``history_hash``."""
    run = client.submit_and_wait(SPEC)
    assert run["status"] == "done"
    text = execute(SPEC).to_json()  # deterministic: the same run
    files = [
        path
        for path in (tmp_path / "store").rglob("*.json")
        if path.name != "serve.json"
    ]
    assert [path.name for path in files] == [f"{SPEC.spec_hash()}.json"]
    assert files[0].read_bytes() == text.encode("utf-8")
    assert daemon.plane.store.stats()["bytes"] == len(text.encode("utf-8"))

    fetched = client.artifact(SPEC.spec_hash())
    assert fetched == json.loads(text)
    payload = canonical_json(fetched["history"]).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    assert digest == run["artifact"]["history_hash"]


def test_one_history_two_conditions_two_artifacts(client):
    """Specs that differ only in ``verify.condition`` share a history
    but not an artifact: each spec hash serves its own verdict."""
    specs = {
        condition: RunSpec.from_dict(
            {"protocol": "mlin", "ops": 4, "seed": 7,
             "verify": {"condition": condition}}
        )
        for condition in ("m-sc", "m-lin")
    }
    runs = {c: client.submit_and_wait(s) for c, s in specs.items()}
    assert runs["m-sc"]["artifact"]["history_hash"] == (
        runs["m-lin"]["artifact"]["history_hash"]
    )
    for condition, spec in specs.items():
        assert runs[condition]["status"] == "done"
        fetched = client.artifact(spec.spec_hash())
        assert [v["condition"] for v in fetched["verdicts"]] == [condition]
        assert fetched == runs[condition]["artifact"]


def test_cached_resubmission_short_circuits(client):
    first = client.submit_and_wait(SPEC)
    assert first["status"] == "done"
    again = client.submit(SPEC)
    assert again["outcome"] == "cached"
    assert again["status"] == "cached"
    # The cached response carries the artifact inline -- no polling.
    assert again["artifact"] == first["artifact"]
    metrics = client.metrics()
    assert metrics["serve"]["cache"]["hits"] >= 1
    assert metrics["serve"]["cache"]["hit_rate"] > 0


def test_keep_alive_connection_does_not_stall(client, daemon):
    # Header block and body are separate writes; with Nagle on, each
    # exchange on a reused connection waited ~40 ms for a delayed ACK
    # (20 exchanges: 0.8 s).  A cached round trip is ~1 ms.
    client.submit_and_wait(SPEC)
    body = json.dumps(SPEC.to_dict()).encode("utf-8")
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10.0)
    try:
        start = time.perf_counter()
        for _ in range(20):
            conn.request("POST", "/v1/runs", body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["outcome"] == "cached"
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 0.5


def test_metrics_snapshot_shape(client):
    client.submit_and_wait(SPEC)
    metrics = client.metrics()
    assert set(metrics) >= {"counters", "gauges", "histograms", "serve"}
    serve = metrics["serve"]
    assert serve["queue_capacity"] > 0
    assert serve["workers"] == 2
    assert serve["runs_by_status"].get("done", 0) >= 1
    assert serve["verdicts"].get("mlin/ok", 0) >= 1
    assert serve["store"]["entries"] >= 1
    assert set(serve["store"]) == {"entries", "bytes", "evictions", "policy"}
    assert set(serve["cache"]) == {
        "memory_entries", "hits", "disk_hits", "misses", "hit_rate"
    }
    assert serve["audit_entries"] >= 1
    assert any(
        name.startswith("serve.runs") for name in metrics["counters"]
    )


def test_trace_endpoint_returns_spans(client):
    traced = SPEC.with_(tracing=True, seed=11)
    run = client.submit_and_wait(traced)
    assert run["status"] == "done"
    spans = client.trace(run["run_id"])
    assert spans["run_id"] == run["run_id"]
    assert len(spans["spans"]) > 0
    # Untraced runs 404 on /trace/<id> rather than answering empty.
    plain = client.submit_and_wait(SPEC.with_(seed=12))
    with pytest.raises(ServeClientError) as excinfo:
        client.trace(plain["run_id"])
    assert excinfo.value.status == 404


def test_dashboard_renders_state(client, daemon):
    client.submit_and_wait(SPEC)
    status, body = _get_raw(daemon.url + "/")
    page = body.decode("utf-8")
    assert status == 200
    assert "verification control plane" in page
    assert "cache hit rate" in page
    assert "mlin" in page


def test_healthz(client):
    assert client.healthy()


@pytest.mark.parametrize("field", ["workers", "queue_depth", "cache_entries"])
def test_config_rejects_non_positive_sizes(field):
    # queue_depth=0 would build an unbounded queue.Queue (no 503 load
    # shedding); cache_entries=0 used to be clamped to 1 silently.
    with pytest.raises(SubmitError, match=field):
        ServeConfig(**{field: 0})


def test_malformed_spec_is_400(client):
    for bad in (
        {"workload": "random"},  # no protocol
        {"protocol": "no-such-protocol"},
        {"protocol": "mlin", "workload": "no-such-workload"},
        {"protocol": "mlin", "n": -1},
        {"protocol": "mlin", "bogus_field": 1},
        # A shim that can never deliver is refused, not queued.
        {"protocol": "mlin", "faults": {"ack_timeout": 0.0}},
        # Retired or misspelt nested keys are named, not ignored.
        {"protocol": "mlin", "verify": {"mode": "sharded"}},
        {"protocol": "mlin", "verify": {"workers": 4}},
        {"protocol": "mlin", "latency": {"kind": "fixed", "parms": [1]}},
    ):
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400, bad


@pytest.mark.parametrize(
    "bad",
    [
        {"n": "3"},
        {"seed": "x"},
        {"verify": {"window": "3"}},
        {"verify": {"window": True}},
        {"verify": {"window": 2.5}},
    ],
)
def test_malformed_numbers_are_400(client, bad):
    # A wrong type is answered, not a dropped connection, and a bool
    # or a fraction never passes for an int.
    with pytest.raises(ServeClientError) as excinfo:
        client.submit({"protocol": "msc", **bad})
    assert excinfo.value.status == 400, bad


def test_unknown_condition_is_400(client):
    # Refused at submission, naming the table's conditions, instead of
    # queued and failed by the worker.
    with pytest.raises(ServeClientError) as excinfo:
        client.submit({"protocol": "msc", "verify": {"condition": "m-foo"}})
    assert excinfo.value.status == 400
    assert "m-causal" in str(excinfo.value)


def test_invalid_json_body_is_400(daemon):
    request = urllib.request.Request(
        daemon.url + "/v1/runs",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 400
    detail = json.loads(excinfo.value.read())
    assert "JSON" in detail["error"]


def test_unknown_ids_are_404(client):
    with pytest.raises(ServeClientError) as excinfo:
        client.run("r999999-deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServeClientError) as excinfo:
        client.artifact("ab" * 32)
    assert excinfo.value.status == 404
    with pytest.raises(ServeClientError) as excinfo:
        client.trace("r999999-deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServeClientError) as excinfo:
        client._request("/no/such/route")
    assert excinfo.value.status == 404


def test_failed_runs_report_failed_not_500(client):
    # Crash faults on a protocol with no crash tolerance are rejected
    # by the runtime at *execution* time (FaultPolicyError), so the
    # submission is accepted and the run must land as status=failed.
    from repro.runtime import FaultSpec

    spec = RunSpec(protocol="lock", ops=2, faults=FaultSpec(seed=1))
    run = client.wait(client.submit(spec)["run_id"])
    assert run["status"] == "failed"
    assert "FaultPolicyError" in run["error"]
    # Failures are not cached: a resubmission re-executes.
    again = client.submit(spec)
    assert again["outcome"] in ("queued", "coalesced")
    client.wait(again["run_id"])


def test_store_write_failure_fails_the_run(client, daemon, monkeypatch):
    # The run must land as failed (and stay unstored), not sit in
    # "running" with its waiters blocked.
    def refuse(key, text, history_hash):
        raise StoreError(f"cannot write artifact {key}: disk full")

    monkeypatch.setattr(daemon.plane.store, "put", refuse)
    run = client.wait(client.submit(SPEC)["run_id"], timeout=30.0)
    assert run["status"] == "failed"
    assert "disk full" in run["error"]
    assert SPEC.spec_hash() not in daemon.plane.store


def test_audit_log_records_every_submission(client, daemon):
    client.submit_and_wait(SPEC)
    client.submit(SPEC)  # cached
    log_path = (
        daemon.plane.audit.path
    )
    lines = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
        if line
    ]
    events = [entry["event"] for entry in lines]
    assert "submit" in events
    assert "done" in events
    assert all("ts" in entry for entry in lines)
    cached = [
        entry
        for entry in lines
        if entry["event"] == "submit" and entry.get("detail") == "cached"
    ]
    assert cached, "cache-hit submission missing from the audit log"


def test_an_ill_formed_control_history_is_a_finished_violated_run(client):
    """A baseline's recorded history that is not even well formed is
    that run's verdict: the daemon answers it as done, not failed."""
    spec = RunSpec(
        protocol="local", workload="zipfian", n=6,
        objects=tuple(f"x{i}" for i in range(8)), ops=20, seed=0,
    )
    run = client.submit_and_wait(spec)
    assert run["status"] == "done"
    assert run["error"] is None
    artifact = run["artifact"]
    assert artifact["ok"] is False
    assert artifact["violations"][0].startswith(
        "recorded history: MalformedHistoryError: "
    )
