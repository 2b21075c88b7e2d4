"""Store-server outage conformance: restarts cost retries, permanent
outages cost degraded mode — never an exception or wrong data."""

from __future__ import annotations

import time

import pytest

from repro.store import (
    ArtifactStore,
    NetworkBackend,
    SQLiteBackend,
    StoreServer,
    StoreUnavailable,
)


def _restart_on(port: int, backend) -> StoreServer:
    """Bind a fresh server on *port*, tolerating TIME_WAIT lag."""
    for _ in range(50):
        try:
            return StoreServer(backend, host="127.0.0.1",
                               port=port).start()
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"port {port} never became bindable")


KEY = "12" * 32


class _CountingClient(NetworkBackend):
    """A network client that counts the operations it sends."""

    operations = 0

    def _roundtrip(self, message):
        self.operations += 1
        return super()._roundtrip(message)


class TestResolveRetries:
    # Clients connect lazily: constructing one opens no socket.
    def test_default_budget(self):
        assert NetworkBackend("tcp://127.0.0.1:9").retries == 3

    def test_explicit_argument_wins(self):
        assert NetworkBackend("tcp://127.0.0.1:9", retries=2).retries == 2

    def test_negative_clamps_to_zero(self):
        assert NetworkBackend("tcp://127.0.0.1:9", retries=-4).retries == 0


class TestServerRestart:
    def test_restart_between_operations_is_invisible(self, tmp_path):
        # Kill and rebind the server between two operations: the
        # client pays retries (visible in retry_count), never raises,
        # and the artifacts written before the outage survive it.
        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        port = int(server.address.rsplit(":", 1)[1])
        client = NetworkBackend(server.spec, retries=8,
                                backoff_s=0.02)
        store = ArtifactStore(client)
        try:
            store.put("search", KEY, {"answer": 42})
            server.shutdown()
            server = _restart_on(port, inner)
            assert store.get("search", KEY) == {"answer": 42}
            assert client.retry_count >= 1
            assert store.stats.errors == 0   # absorbed, not surfaced
        finally:
            server.shutdown()
            client.close()
            inner.close()

    def test_shutdown_severs_established_connections(self, tmp_path):
        # An established, idle connection must die with the server —
        # with only the listening socket closed, the next operation
        # would hang out its full timeout instead of failing fast.
        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        client = NetworkBackend(server.spec, retries=0)
        try:
            client.store("app", KEY, b"x")   # connection established
            server.shutdown()
            start = time.perf_counter()
            with pytest.raises(StoreUnavailable):
                client.load("app", KEY)
            assert time.perf_counter() - start < 5.0
        finally:
            client.close()
            inner.close()

    def test_mid_sweep_restart_keeps_every_row(self, tmp_path):
        # The acceptance scenario: a store-backed cluster sweep with
        # the server killed and rebound mid-run finishes with rows
        # bit-identical to a serial fault-free sweep.
        import threading

        from repro.explore import SweepSpec, run_sweep

        spec = SweepSpec(workloads=("fir",), ports=((2, 1), (4, 2)),
                         ninstrs=(2,), algorithms=("iterative",),
                         limit=100_000, n=8)
        ref_store = ArtifactStore(
            f"sqlite:{tmp_path / 'reference.sqlite'}")
        reference = run_sweep(spec, store=ref_store, workers=1)

        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        port = int(server.address.rsplit(":", 1)[1])
        holder = {"server": server}

        def _bounce():
            time.sleep(0.1)
            holder["server"].shutdown()
            time.sleep(0.2)
            holder["server"] = _restart_on(port, inner)

        client = NetworkBackend(server.spec, retries=8,
                                backoff_s=0.02)
        store = ArtifactStore(client)
        bouncer = threading.Thread(target=_bounce, daemon=True)
        bouncer.start()
        try:
            outcome = run_sweep(spec, store=store, workers=2)
        finally:
            bouncer.join(timeout=10)
            holder["server"].shutdown()
            client.close()

        def _strip(rows):
            return [{k: v for k, v in row.items()
                     if k != "elapsed_s"} for row in rows]
        assert _strip(outcome.rows) == _strip(reference.rows)
        assert outcome.failed_units == []
        # The served medium converged on the reference key set.
        assert sorted(inner.keys()) \
            == sorted(ref_store.backend.keys())
        inner.close()


class TestDegradedMode:
    def test_dead_server_flips_the_store_to_pass_through(self,
                                                         tmp_path):
        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        client = NetworkBackend(server.spec, retries=0,
                                backoff_s=0.01)
        store = ArtifactStore(client, degrade_after=2, probe_every=3)
        store.put("app", KEY, b"seed")
        server.shutdown()
        assert store.get("app", KEY) is None     # error 1
        assert store.get("app", KEY) is None     # error 2 -> degraded
        assert store.degraded
        assert store.stats.degraded_events == 1
        before = store.stats.degraded_skips
        store.get("app", KEY)
        assert store.stats.degraded_skips > before
        client.close()
        inner.close()

    def test_search_cache_still_serves_while_the_store_is_down(
            self, tmp_path):
        # The store is persistence only; what a process computed while
        # the store is down is still served, from the SearchCache dict,
        # without touching the dead medium again.
        from repro.core import Constraints
        from repro.core.select_iterative import CollapseChain
        from repro.explore import SearchCache
        from repro.hwmodel import CostModel
        from repro.pipeline import prepare_application

        dfg = prepare_application("fir", n=16).hot_dfg
        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        client = _CountingClient(server.spec, retries=0)
        server.shutdown()
        store = ArtifactStore(client, degrade_after=1, probe_every=100)
        cache = SearchCache(backing=store)
        cons = Constraints(nin=4, nout=2)
        first = CollapseChain(dfg, cons, CostModel(), None, cache).link(0)
        assert store.degraded
        operations = client.operations
        second = CollapseChain(dfg, cons, CostModel(), None, cache).link(0)
        assert second.cut.nodes == first.cut.nodes
        assert second.cut.merit == first.cut.merit
        assert cache.stats.hits == 1
        assert client.operations == operations
        client.close()
        inner.close()

    def test_probe_recovers_after_the_server_returns(self, tmp_path):
        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        port = int(server.address.rsplit(":", 1)[1])
        client = NetworkBackend(server.spec, retries=0,
                                backoff_s=0.01)
        store = ArtifactStore(client, degrade_after=1, probe_every=2)
        server.shutdown()
        assert store.get("app", KEY) is None
        assert store.degraded
        server = _restart_on(port, inner)
        # Every probe_every-th skipped operation goes through; one
        # success recovers the store.
        for _ in range(4):
            store.contains("app", KEY)
        assert not store.degraded
        server.shutdown()
        client.close()
        inner.close()
