"""Retention policy and artifact-store unit behaviour.

The store is a bounded memory tier over a disk tier bounded by
entries/bytes (LRU eviction from both); both hold an artifact as its
canonical JSON text, never as a parsed dict.  Evicted artifacts must 404
over HTTP, and their specs re-execute, while fresh ones stay served.
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
)
from repro.serve.store import Stored
from tests.serve.conftest import make_daemon


def _artifact(tag: str) -> Stored:
    text = canonical_json({"history_hash": tag, "payload": "x" * 64})
    return Stored(text, tag)


def _put(store: ArtifactStore, key: str) -> None:
    store.put(key, *_artifact(key))


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        _put(store, key)
        assert store.get(key) == _artifact(key)
        assert key in store
        assert store.get("cd" * 32) is None
        # Uncounted reads: only submissions' lookups are hits/misses.
        assert store.cache_stats()["hits"] == 0
        assert store.cache_stats()["misses"] == 0

    def test_entry_count_eviction_is_lru(self, tmp_path):
        store = ArtifactStore(
            tmp_path, RetentionPolicy(max_entries=2, max_bytes=None)
        )
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        _put(store, keys[0])
        _put(store, keys[1])
        # Touch the oldest so the *middle* entry becomes the victim.
        store.get(keys[0])
        _put(store, keys[2])
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
            _put(store, key)
        assert store.stats()["bytes"] <= 300
        assert store.get(keys[0]) is None, "oldest must be evicted"
        assert store.get(keys[2]) is not None

    def test_reindex_on_restart(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        _put(store, key)
        reopened = ArtifactStore(tmp_path)
        assert reopened.get(key) == _artifact(key)
        assert len(reopened) == 1

    def test_non_hex_keys_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("../escape", "UPPER", "", "zz"):
            with pytest.raises(StoreError):
                store.put(bad, "{}", None)

    def test_memory_lru_falls_back_to_disk(self, tmp_path):
        store = ArtifactStore(tmp_path, memory_entries=1)
        store.put("a" * 64, '{"verdict":1}', None)
        # evicts 'a' from memory, not from disk
        store.put("b" * 64, '{"verdict":2}', None)
        assert store.cache_stats()["memory_entries"] == 1
        assert len(store) == 2
        # 'a' is served from the disk tier and repopulates memory.
        assert store.lookup("a" * 64) == Stored('{"verdict":1}', None)
        assert store.disk_hits == 1
        assert store.lookup("a" * 64) == Stored('{"verdict":1}', None)
        assert store.disk_hits == 1
        assert store.lookup("c" * 64) is None
        stats = store.cache_stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert 0 < stats["hit_rate"] < 1

    def test_warm_start_from_disk(self, tmp_path):
        ArtifactStore(tmp_path).put(
            "a" * 64, '{"history_hash":"h7","verdict":7}', "h7"
        )
        reopened = ArtifactStore(tmp_path)
        # The disk read parses once, for the history hash.
        assert reopened.lookup("a" * 64) == Stored(
            '{"history_hash":"h7","verdict":7}', "h7"
        )
        assert reopened.disk_hits == 1

    def test_torn_or_foreign_file_is_a_miss(self, tmp_path):
        for key, text in (("a" * 64, '{"history_hash":'), ("b" * 64, "[1]")):
            (tmp_path / f"{key}.json").write_text(text, encoding="utf-8")
        store = ArtifactStore(tmp_path)
        assert len(store) == 2
        assert store.lookup("a" * 64) is None
        assert store.lookup("b" * 64) is None
        assert store.cache_stats()["misses"] == 2
        assert store.cache_stats()["memory_entries"] == 0

    def test_eviction_leaves_both_tiers(self, tmp_path):
        store = ArtifactStore(
            tmp_path, RetentionPolicy(max_entries=1, max_bytes=None)
        )
        _put(store, "aa" * 32)
        _put(store, "bb" * 32)
        # The evicted entry was still in the memory tier; it must not
        # be served from there either.
        assert store.lookup("aa" * 32) is None
        assert store.cache_stats()["memory_entries"] == 1
        assert [p.stem for p in tmp_path.glob("*.json")] == ["bb" * 32]


class TestRetentionOverHTTP:
    def test_evicted_artifacts_404_while_fresh_ones_serve(self, tmp_path):
        daemon = make_daemon(tmp_path, retain_entries=2)
        daemon.start()
        try:
            client = ServeClient(daemon.url, timeout=30.0)
            assert client.wait_healthy(10.0)
            specs = [RunSpec(protocol="mlin", ops=3, seed=s) for s in range(3)]
            for spec in specs:
                run = client.submit_and_wait(spec, timeout=120.0)
                assert run["status"] == "done"
            keys = [spec.spec_hash() for spec in specs]
            # Two retained, the least recently used evicted.
            assert daemon.plane.store.stats()["entries"] == 2
            assert daemon.plane.store.evictions == 1
            with pytest.raises(ServeClientError) as excinfo:
                client.artifact(keys[0])
            assert excinfo.value.status == 404
            assert "retention" in str(excinfo.value)
            for spec, fresh in zip(specs[1:], keys[1:]):
                assert client.artifact(fresh)["spec"] == spec.to_dict()
            # One budget bounds everything the store writes, and the
            # evicted spec is gone from every tier: it re-executes.
            files = list((tmp_path / "store").rglob("*.json"))
            artifacts = [p for p in files if p.name != "serve.json"]
            assert len(artifacts) <= 2
            again = client.submit(specs[0])
            assert again["outcome"] == "queued"
            assert client.wait(again["run_id"])["status"] == "done"
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
