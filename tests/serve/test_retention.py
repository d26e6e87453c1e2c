"""Retention policy and store/cache unit behaviour.

The artifact store is bounded (entries/bytes, LRU eviction); the
verdict cache is a bounded memory tier over an unbounded disk tier.
Evicted artifacts must 404 over HTTP while fresh ones stay served.
"""

from __future__ import annotations

import json

import pytest

from repro.core.serialize import canonical_json
from repro.runtime import RunSpec
from repro.serve import (
    ArtifactStore,
    RetentionPolicy,
    ServeClient,
    ServeClientError,
    StoreError,
    VerdictCache,
)
from tests.serve.conftest import make_daemon


def _artifact(tag: str) -> dict:
    return {"history_hash": tag, "payload": "x" * 64}


def _text(tag: str) -> str:
    return canonical_json(_artifact(tag))


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        store.put(key, _text(key))
        assert store.get(key) == _artifact(key)
        assert key in store
        assert store.get("cd" * 32) is None

    def test_entry_count_eviction_is_lru(self, tmp_path):
        store = ArtifactStore(
            tmp_path, RetentionPolicy(max_entries=2, max_bytes=None)
        )
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        store.put(keys[0], _text(keys[0]))
        store.put(keys[1], _text(keys[1]))
        # Touch the oldest so the *middle* entry becomes the victim.
        store.get(keys[0])
        store.put(keys[2], _text(keys[2]))
        assert store.get(keys[1]) is None
        assert store.get(keys[0]) is not None
        assert store.get(keys[2]) is not None
        assert store.evictions == 1
        assert len(store) == 2
        # The evicted file is gone from disk too.
        assert len(list(store.root.glob("*.json"))) == 2

    def test_byte_budget_eviction(self, tmp_path):
        store = ArtifactStore(
            tmp_path, RetentionPolicy(max_entries=None, max_bytes=300)
        )
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        for key in keys:
            store.put(key, _text(key))
        assert store.stats()["bytes"] <= 300
        assert store.get(keys[0]) is None, "oldest must be evicted"
        assert store.get(keys[2]) is not None

    def test_reindex_on_restart(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        store.put(key, _text(key))
        reopened = ArtifactStore(tmp_path)
        assert reopened.get(key) == _artifact(key)
        assert len(reopened) == 1

    def test_non_hex_keys_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("../escape", "UPPER", "", "zz"):
            with pytest.raises(StoreError):
                store.put(bad, "{}")


class TestVerdictCache:
    def test_memory_lru_falls_back_to_disk(self, tmp_path):
        cache = VerdictCache(tmp_path, memory_entries=1)
        cache.put("a" * 64, {"verdict": 1}, '{"verdict":1}')
        # evicts 'a' from memory
        cache.put("b" * 64, {"verdict": 2}, '{"verdict":2}')
        assert len(cache) == 1
        # 'a' is served from the disk tier and repopulates memory.
        assert cache.get("a" * 64) == {"verdict": 1}
        assert cache.disk_hits == 1
        assert cache.get("c" * 64) is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert 0 < stats["hit_rate"] < 1

    def test_warm_start_from_disk(self, tmp_path):
        VerdictCache(tmp_path).put(
            "a" * 64, {"verdict": 7}, '{"verdict":7}'
        )
        reopened = VerdictCache(tmp_path)
        assert reopened.get("a" * 64) == {"verdict": 7}


class TestRetentionOverHTTP:
    def test_evicted_artifacts_404_while_fresh_ones_serve(self, tmp_path):
        daemon = make_daemon(tmp_path, retain_entries=2)
        daemon.start()
        try:
            client = ServeClient(daemon.url, timeout=30.0)
            assert client.wait_healthy(10.0)
            hashes = []
            for seed in range(3):
                run = client.submit_and_wait(
                    RunSpec(protocol="mlin", ops=3, seed=seed),
                    timeout=120.0,
                )
                assert run["status"] == "done"
                hashes.append(run["artifact"]["history_hash"])
            assert len(set(hashes)) == 3
            # Two retained, the least recently used evicted.
            assert daemon.plane.store.stats()["entries"] == 2
            assert daemon.plane.store.evictions == 1
            with pytest.raises(ServeClientError) as excinfo:
                client.artifact(hashes[0])
            assert excinfo.value.status == 404
            assert "retention" in str(excinfo.value)
            for fresh in hashes[1:]:
                assert client.artifact(fresh)["history_hash"] == fresh
            # The verdict cache still answers the evicted spec -- the
            # verdict tier and the artifact tier age independently.
            again = client.submit(RunSpec(protocol="mlin", ops=3, seed=0))
            assert again["outcome"] == "cached"
        finally:
            daemon.stop()

    def test_endpoint_discovery_file(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            state = json.loads(
                (tmp_path / "store" / "serve.json").read_text()
            )
            assert state["port"] == daemon.port
            assert state["url"] == daemon.url
        finally:
            daemon._httpd.server_close()
