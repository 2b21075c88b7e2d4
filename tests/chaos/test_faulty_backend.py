"""Tests for the fault-injecting store medium wrapper."""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan, FaultSpec, FaultyBackend
from repro.store import (
    ArtifactStore,
    BackendError,
    SQLiteBackend,
    StoreUnavailable,
)


@pytest.fixture
def inner(tmp_path):
    medium = SQLiteBackend(tmp_path / "store.sqlite")
    yield medium
    medium.close()


KEY = "cd" * 32


class TestInjection:
    def test_zero_fault_plan_is_identity(self, inner):
        faulty = FaultyBackend(inner, FaultPlan(seed=0))
        faulty.store("app", KEY, b"payload")
        assert faulty.load("app", KEY) == b"payload"
        assert faulty.contains("app", KEY)
        assert sorted(faulty.keys()) == [("app", KEY)]
        assert faulty.injected == 0
        assert faulty.spec == inner.spec

    def test_error_raises_backend_error(self, inner):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="store", kind="error", ops=("load",)),))
        faulty = FaultyBackend(inner, plan)
        faulty.store("app", KEY, b"x")      # store op untouched
        with pytest.raises(BackendError):
            faulty.load("app", KEY)
        assert faulty.injected == 1

    def test_unavailable_raises_store_unavailable(self, inner):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="store", kind="unavailable",
                      ops=("contains",)),))
        faulty = FaultyBackend(inner, plan)
        with pytest.raises(StoreUnavailable):
            faulty.contains("app", KEY)

    def test_windowed_outage_recovers(self, inner):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="store", kind="error", until=2),))
        faulty = FaultyBackend(inner, plan)
        with pytest.raises(BackendError):
            faulty.load("app", KEY)
        with pytest.raises(BackendError):
            faulty.contains("app", KEY)
        faulty.store("app", KEY, b"x")      # op index 2: healthy again
        assert faulty.load("app", KEY) == b"x"

    def test_corrupt_load_damages_the_blob(self, inner):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="store", kind="corrupt", ops=("load",),
                      limit=1),))
        faulty = FaultyBackend(inner, plan)
        faulty.store("app", KEY, b"payload-bytes-here")
        damaged = faulty.load("app", KEY)
        assert damaged != b"payload-bytes-here"
        # limit=1: the medium itself was never changed.
        assert faulty.load("app", KEY) == b"payload-bytes-here"


class TestPolicyLayerSurvives:
    def test_corrupt_read_is_a_miss_then_rewritable(self, inner):
        # The full contract: a corrupted blob reads as a miss through
        # ArtifactStore (never wrong data), the slot is dropped, and a
        # recompute re-put restores it.
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="store", kind="corrupt", ops=("load",),
                      limit=1),))
        store = ArtifactStore(FaultyBackend(inner, plan))
        key = store.key("search", {"q": 1})
        store.put("search", key, {"answer": 42})
        assert store.get("search", key) is None
        assert store.stats.errors == 1
        store.put("search", key, {"answer": 42})
        assert store.get("search", key) == {"answer": 42}

    def test_injected_errors_never_escape_the_store(self, inner):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="store", kind="error", probability=0.5),))
        store = ArtifactStore(FaultyBackend(inner, plan),
                              degrade_after=0)
        for i in range(30):
            key = store.key("search", {"i": i})
            store.put("search", key, {"i": i})
            value = store.get("search", key)
            assert value in (None, {"i": i})  # miss or truth, never junk
        assert store.stats.errors > 0
