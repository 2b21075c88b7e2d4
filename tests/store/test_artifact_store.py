"""Tests for the persistent content-addressed artifact store."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.store import ArtifactStore, default_store_dir, resolve_store
from repro.store.artifacts import SCHEMA_VERSION


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("search", ("chain", "abc", 4, 2))
        store.put("search", key, {"nodes": (1, 2), "merit": 6.0})
        assert store.get("search", key) == {"nodes": (1, 2), "merit": 6.0}
        assert store.stats.puts == 1
        assert store.stats.hits == 1

    def test_disk_tier_survives_the_instance(self, tmp_path):
        first = ArtifactStore(tmp_path)
        key = first.key("app", ("fir", 16))
        first.put("app", key, [1, 2, 3])
        second = ArtifactStore(tmp_path)
        assert second.get("app", key) == [1, 2, 3]
        assert second.stats.hits == 1
        # Every read goes to the backend: no in-process copy.
        assert second.get("app", key) == [1, 2, 3]
        assert second.stats.hits == 2

    def test_miss_is_counted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("app", "0" * 64) is None
        assert store.stats.misses == 1

    def test_kinds_do_not_collide(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = ("x", 1)
        assert store.key("app", payload) != store.key("search", payload)

    def test_contains_without_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("search", "k")
        assert not store.contains("search", key)
        store.put("search", key, 42)
        fresh = ArtifactStore(tmp_path)
        assert fresh.contains("search", key)
        assert fresh.stats.hits == fresh.stats.misses == 0

    def test_none_payload_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("app", store.key("app", "k"), None)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for k in range(8):
            store.put("search", store.key("search", k), k)
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []


class TestCorruption:
    """Damaged artifacts must read as misses, never crash."""

    def _entry_path(self, store, kind, key):
        return store.base / kind / key[:2] / f"{key}.pkl"

    @pytest.mark.parametrize("damage", [
        b"",                              # truncated to nothing
        b"garbage that is not pickle",    # not a pickle at all
        pickle.dumps("no header"),        # foreign pickle
        pickle.dumps((("repro-store", SCHEMA_VERSION + 1), "app", 1)),
    ])
    def test_damaged_file_is_a_miss(self, tmp_path, damage):
        store = ArtifactStore(tmp_path)
        key = store.key("app", "victim")
        store.put("app", key, {"ok": True})
        self._entry_path(store, "app", key).write_bytes(damage)
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("app", key) is None
        assert fresh.stats.errors == 1
        assert fresh.stats.misses == 1
        # The bad file was dropped; the slot can be rewritten and read.
        fresh.put("app", key, {"ok": True})
        assert ArtifactStore(tmp_path).get("app", key) == {"ok": True}

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("app", "victim")
        store.put("app", key, list(range(1000)))
        path = self._entry_path(store, "app", key)
        path.write_bytes(path.read_bytes()[:20])
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("app", key) is None
        assert fresh.stats.errors == 1


class TestMaintenance:
    def test_info_counts_per_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("app", store.key("app", 1), "a")
        store.put("search", store.key("search", 1), "s1")
        store.put("search", store.key("search", 2), "s2")
        info = store.info()
        assert info.entries == 3
        assert info.kinds == {"app": 1, "search": 2}
        assert info.bytes > 0

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("app", 1)
        store.put("app", key, "a")
        assert store.clear() == 1
        assert store.get("app", key) is None
        assert store.info().entries == 0

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        # A writer killed between tmp-write and os.replace leaves an
        # orphan; gc must reclaim it (but not in-flight tmps).
        import time

        store = ArtifactStore(tmp_path)
        store.put("app", store.key("app", 1), "x")
        slot = store.base / "app" / "zz"
        slot.mkdir(parents=True)
        orphan = slot / ".dead.123.0.tmp"
        orphan.write_bytes(b"junk")
        ancient = time.time() - 7200
        os.utime(orphan, (ancient, ancient))
        inflight = slot / ".live.456.0.tmp"
        inflight.write_bytes(b"inflight")
        _removed, freed = store.gc(max_age_days=30)
        assert not orphan.exists()
        assert inflight.exists()
        assert freed >= 4

    def test_gc_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        old_key = store.key("app", "old")
        new_key = store.key("app", "new")
        store.put("app", old_key, "old")
        store.put("app", new_key, "new")
        old_path = store.base / "app" / old_key[:2] / f"{old_key}.pkl"
        ancient = os.path.getmtime(old_path) - 90 * 86400
        os.utime(old_path, (ancient, ancient))
        removed, freed = store.gc(max_age_days=30)
        assert removed == 1
        assert freed > 0
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("app", old_key) is None
        assert fresh.get("app", new_key) == "new"


class TestEnvironment:
    def test_env_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "custom"))
        assert default_store_dir() == tmp_path / "custom"
        store = resolve_store("auto")
        assert store is not None and store.root == tmp_path / "custom"

    @pytest.mark.parametrize("value", ["0", "off", "none", "", "  "])
    def test_env_disables_store(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STORE", value)
        assert default_store_dir() is None
        assert resolve_store("auto") is None

    def test_resolve_disabled_and_passthrough(self, tmp_path):
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        store = ArtifactStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(tmp_path).root == tmp_path
