"""Concurrent-client determinism over the live daemon.

The control plane's promise: N clients racing one spec cost one
execution, and every client reads byte-identical artifact JSON.
"""

from __future__ import annotations

import json
import threading

from repro.runtime import RunSpec
from repro.serve import ServeClient

#: Big enough that 8 submissions land before the first run finishes.
SLOW_SPEC = RunSpec(protocol="msc", n=4, ops=12, seed=5)


def _executed_runs(metrics) -> int:
    return sum(
        value
        for name, value in metrics["counters"].items()
        if name.startswith("serve.runs{")
    )


def test_same_spec_from_eight_threads_executes_once(daemon, client):
    results = [None] * 8
    errors = []

    def submit(index: int) -> None:
        try:
            local = ServeClient(daemon.url, timeout=60.0)
            submitted = local.submit(SLOW_SPEC)
            run = local.wait(submitted["run_id"], timeout=120.0)
            results[index] = (submitted, run)
        except Exception as exc:  # surfaced below with context
            errors.append(f"client {index}: {exc}")

    threads = [
        threading.Thread(target=submit, args=(index,))
        for index in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors, errors
    assert all(result is not None for result in results)

    # One execution total: every non-first submission either
    # coalesced onto the in-flight run or hit the artifact store.
    metrics = client.metrics()
    assert _executed_runs(metrics) == 1
    outcomes = sorted(sub["outcome"] for sub, _run in results)
    assert outcomes.count("queued") == 1
    assert all(
        outcome in ("queued", "coalesced", "cached")
        for outcome in outcomes
    )

    # Byte-identical artifacts across every client.
    payloads = {
        json.dumps(run["artifact"], sort_keys=True)
        for _sub, run in results
    }
    assert len(payloads) == 1
    artifact = results[0][1]["artifact"]
    assert artifact["ok"] is True
    assert artifact["history_hash"]


def test_distinct_seeds_run_independently(daemon, client):
    specs = [SLOW_SPEC.with_(seed=seed, ops=3) for seed in range(4)]
    results = [None] * len(specs)

    def submit(index: int) -> None:
        local = ServeClient(daemon.url, timeout=60.0)
        results[index] = local.submit_and_wait(specs[index], timeout=120.0)

    threads = [
        threading.Thread(target=submit, args=(index,))
        for index in range(len(specs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert all(run["status"] == "done" for run in results)
    hashes = {run["artifact"]["history_hash"] for run in results}
    assert len(hashes) == len(specs), "distinct seeds must not collide"


def test_resubmission_after_completion_is_cache_hit_with_same_bytes(
    client,
):
    spec = SLOW_SPEC.with_(ops=4, seed=21)
    first = client.submit_and_wait(spec, timeout=120.0)
    second = client.submit_and_wait(spec, timeout=120.0)
    assert second["status"] == "cached"
    assert json.dumps(first["artifact"], sort_keys=True) == json.dumps(
        second["artifact"], sort_keys=True
    )
