"""An artifact is its canonical bytes, from the worker to the wire.

The worker encodes ``RunArtifact.to_json()`` once; the disk file, the
memory tier and every terminal run record hold that text, and the HTTP
layer splices it into its responses without parsing or re-encoding it.
"""

from __future__ import annotations

import gc
import json
import urllib.request

from repro.runtime import RunSpec, execute
from repro.serve import ControlPlane, ServeConfig

SPEC = RunSpec(protocol="msc", ops=4, seed=5)


def _get_raw(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        assert response.status == 200
        return response.read()


def test_served_bytes_are_the_stored_bytes(client, daemon, tmp_path):
    run = client.submit_and_wait(SPEC)
    assert run["status"] == "done"
    key = SPEC.spec_hash()
    text = execute(SPEC).to_json()
    stored = tmp_path / "store" / "artifacts" / f"{key}.json"
    body = _get_raw(f"{daemon.url}/v1/artifacts/{key}")
    assert body == stored.read_bytes() == text.encode("utf-8")
    # The POST-hit and the GET-run carry the same artifact.
    hit = client.submit(SPEC)
    assert hit["outcome"] == "cached"
    assert hit["artifact"] == run["artifact"] == json.loads(text)
    assert client.run(hit["run_id"])["artifact"] == run["artifact"]


def _parsed_artifacts(roots):
    """Every dict reachable from ``roots`` that looks like a parsed
    artifact (it has a ``verdicts`` member)."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict) and "verdicts" in obj:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_records_share_the_store_text(tmp_path):
    plane = ControlPlane(
        ServeConfig(store_dir=str(tmp_path / "store"), workers=2)
    )
    plane.start()
    try:
        specs = [
            RunSpec(protocol=("msc", "mlin")[seed % 2], ops=3, seed=seed)
            for seed in range(4)
        ]
        records = []
        for spec in specs + specs:  # every spec runs once, then hits
            record, _outcome = plane.submit(spec.to_dict())
            records.append(plane.wait(record.run_id))
        assert [r.status for r in records] == ["done"] * 4 + ["cached"] * 4
        for record in records:
            entry = plane.store._memory[record.spec_hash]
            assert record.artifact is entry.text
            assert record.history_hash == entry.history_hash
            assert entry.history_hash == (
                json.loads(entry.text)["history_hash"]
            )
        assert _parsed_artifacts([plane.store, *records]) == []
    finally:
        plane.stop()
