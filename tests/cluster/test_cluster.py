"""Tests for the leader/worker sweep fabric."""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time

import pytest

from repro.cluster import ClusterLeader, scheduled_map, worker_loop
from repro.cluster.worker import _sleep_unit, resolve_callable
from repro.explore import SweepSpec, run_sweep
from repro.store import ArtifactStore
from repro.wire import (MAGIC, connect, parse_address, recv_msg,
                        send_msg, set_fault_hook)


def _echo(payload):
    return ("ran", payload)


def _free_port() -> int:
    """A loopback port nothing listens on (bound once, then freed)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestLeaderProtocol:
    def test_thread_worker_drains_queue(self):
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               list(range(5)),
                               size_hints=[5, 4, 3, 2, 1]).start()
        try:
            done = worker_loop(leader.address, name="t1")
            assert done == 5
            assert leader.wait(timeout=5)
            results, reports = leader.results()
            assert results == [("ran", i) for i in range(5)]
            assert {r.worker for r in reports} == {"t1"}
            # Largest-first hand-out: one puller sees strict hint order.
            assert [r.index for r in reports] == [0, 1, 2, 3, 4]
        finally:
            leader.shutdown()

    def test_two_workers_share_one_queue(self):
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               list(range(20))).start()
        try:
            threads = [
                threading.Thread(target=worker_loop,
                                 args=(leader.address,),
                                 kwargs={"name": f"t{i}"})
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert leader.wait(timeout=5)
            results, reports = leader.results()
            assert results == [("ran", i) for i in range(20)]
            assert len(reports) == 20
        finally:
            leader.shutdown()

    def test_unit_lost_to_a_dead_worker_is_requeued(self):
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               ["a", "b"]).start()
        try:
            # A worker claims the first unit, then dies without
            # reporting: its connection close must requeue the unit.
            sock = connect(leader.address, timeout=5.0)
            send_msg(sock, ("hello", "doomed", False))
            assert recv_msg(sock)[0] == "welcome"
            send_msg(sock, ("get",))
            tag, index, _payload = recv_msg(sock)
            assert tag == "unit"
            sock.close()
            done = worker_loop(leader.address, name="rescuer")
            assert done == 2
            assert leader.wait(timeout=5)
            results, reports = leader.results()
            assert results == [("ran", "a"), ("ran", "b")]
            assert {r.worker for r in reports} == {"rescuer"}
        finally:
            leader.shutdown()

    def test_duplicate_results_are_ignored(self):
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               ["x"]).start()
        try:
            leader.complete(0, ("ran", "x"), 0.1, "w1")
            leader.complete(0, ("ran", "x"), 0.2, "w2")
            results, reports = leader.results()
            assert results == [("ran", "x")]
            assert len(reports) == 1
            assert reports[0].worker == "w1"
        finally:
            leader.shutdown()

    def test_worker_started_before_the_leader_binds(self):
        # The worker comes first: its connect is refused until the
        # leader listens, and it retries inside its window.
        port = _free_port()
        done = []
        early = threading.Thread(
            target=lambda: done.append(worker_loop(
                f"127.0.0.1:{port}", name="early", connect_window=10.0)),
            daemon=True)
        early.start()
        time.sleep(0.3)
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               ["a", "b"], port=port).start()
        try:
            early.join(timeout=10)
            assert done == [2]
            assert leader.wait(timeout=5)
            assert leader.results()[0] == [("ran", "a"), ("ran", "b")]
        finally:
            leader.shutdown()

    def test_refused_connect_gives_up_after_its_window(self):
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            worker_loop(f"127.0.0.1:{_free_port()}", connect_window=0.3)
        assert time.monotonic() - start >= 0.3

    def test_resolve_callable_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_callable("no_colon_here")
        with pytest.raises(ValueError):
            resolve_callable("repro.cluster.leader:DEFAULT_PORT")


class TestRunCluster:
    """scheduled_map's local topology: a leader plus forked workers."""

    def test_local_workers_match_serial(self):
        payloads = [0.0, 0.01, 0.0, 0.02]
        results, reports = scheduled_map(
            _sleep_unit, payloads, size_hints=[1, 2, 1, 3], workers=2)
        assert results == payloads
        assert sorted(r.index for r in reports) == [0, 1, 2, 3]
        assert all(r.elapsed_s >= 0.0 for r in reports)
        assert all(r.worker.startswith("local") for r in reports)

    def test_zero_workers_run_inline(self):
        # One worker means zero forks: the leader drains the queue.
        results, reports = scheduled_map(_sleep_unit, [0.0, 0.0],
                                         workers=1)
        assert results == [0.0, 0.0]
        assert {r.worker for r in reports} == {"leader-inline"}

    def test_empty_payloads(self):
        assert scheduled_map(_sleep_unit, [], workers=2) == ([], [])


class _FrameLog:
    """Wire fault hook that records every frame sent in this process
    (leader handler threads and thread-run workers alike).  Forked
    workers inherit the hook; the pid check keeps their frames out."""

    def __init__(self):
        self.frames = []
        self._pid = os.getpid()

    def __call__(self, _sock, op, frame):
        # list.append is atomic; a lock could be inherited held by a
        # forked worker and deadlock its first send.
        if op == "send" and os.getpid() == self._pid:
            self.frames.append(frame)

    def messages(self, tag):
        """``(frame size, message)`` for each sent frame tagged *tag*."""
        skip = len(MAGIC) + 4
        decoded = [(len(f), pickle.loads(f[skip:])) for f in self.frames]
        return [(size, m) for size, m in decoded if m[0] == tag]

    def __enter__(self):
        self._previous = set_fault_hook(self)
        return self

    def __exit__(self, *exc):
        set_fault_hook(self._previous)


class TestUnitFrames:
    """Forked local workers inherit the unit list and are sent indices;
    every other worker is sent each unit's payload."""

    BLOB = bytes(64 * 1024)

    def test_forked_workers_receive_indices_only(self):
        items = [self.BLOB + bytes([i]) for i in range(6)]
        with _FrameLog() as log:
            results, reports = scheduled_map(_echo, items, workers=2)
        assert results == [_echo(item) for item in items]
        assert all(r.worker.startswith("local") for r in reports)
        units = log.messages("unit")
        assert sorted(m[1] for _size, m in units) == list(range(6))
        assert all(m == ("unit", m[1]) for _size, m in units)
        # No frame the leader sent carries a payload.
        assert log.frames and max(len(f) for f in log.frames) < 256

    def test_thread_worker_without_payloads_receives_them(self):
        items = [self.BLOB + bytes([i]) for i in range(3)]
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               items).start()
        try:
            with _FrameLog() as log:
                assert worker_loop(leader.address, name="remote",
                                   timeout=10) == 3
            assert leader.wait(timeout=5)
            assert leader.results()[0] == [_echo(i) for i in items]
        finally:
            leader.shutdown()
        units = log.messages("unit")
        assert [m[2] for _size, m in units] == items
        assert all(size > len(self.BLOB) for size, _m in units)

    def test_out_of_range_index_is_quarantined(self):
        # The worker holds one payload; the leader hands out three.
        leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                               ["a", "b", "c"], max_attempts=1).start()
        try:
            done = worker_loop(leader.address, name="short",
                               timeout=10, payloads=["a"])
            assert done == 1
            assert leader.wait(timeout=5)
            results, reports = leader.results()
        finally:
            leader.shutdown()
        assert results == [("ran", "a"), None, None]
        failed = sorted(r.index for r in reports if r.status == "error")
        assert failed == [1, 2]
        assert all("IndexError" in r.error
                   for r in reports if r.status == "error")


def _small_spec():
    return SweepSpec(
        workloads=("fir", "crc32"),
        ports=((2, 1), (4, 2)),
        ninstrs=(2,),
        algorithms=("iterative", "maxmiso"),
        limit=100_000,
        n=16,
    )


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


class TestClusterSweep:
    """The tentpole invariant: a sharded sweep is bit-identical to a
    serial one — same rows (modulo wall time), same store key set."""

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serial-store")
        store = ArtifactStore(f"sqlite:{root / 'store.sqlite'}")
        outcome = run_sweep(_small_spec(), store=store)
        return outcome, store

    def test_cluster_two_workers_bit_identical(self, serial,
                                               tmp_path_factory):
        serial_outcome, serial_store = serial
        root = tmp_path_factory.mktemp("cluster-store")
        store = ArtifactStore(f"sqlite:{root / 'store.sqlite'}")
        outcome = run_sweep(_small_spec(), store=store, workers=2)
        assert _strip_timing(outcome.rows) == \
            _strip_timing(serial_outcome.rows)
        # The persistent media hold the same artifact key sets: the
        # leader merged exactly the entries the serial warm phase
        # wrote.
        assert sorted(store.backend.keys()) == \
            sorted(serial_store.backend.keys())

    def test_cluster_warm_identity_on_warm_store(self, serial):
        # Re-sweeping the serial store through the cluster path hits
        # the pre-warmed artifacts: zero warm units, identical rows.
        serial_outcome, serial_store = serial
        outcome = run_sweep(_small_spec(), store=serial_store,
                            workers=2)
        assert outcome.warm_units == 0
        assert _strip_timing(outcome.rows) == \
            _strip_timing(serial_outcome.rows)

    def test_unit_telemetry_reaches_the_outcome(self, tmp_path):
        store = ArtifactStore(f"sqlite:{tmp_path / 'store.sqlite'}")
        outcome = run_sweep(_small_spec(), store=store, workers=2)
        assert outcome.warm_units > 0
        assert len(outcome.unit_reports) == outcome.warm_units
        for record in outcome.unit_reports:
            assert set(record) == {"index", "size_hint", "elapsed_s",
                                   "worker", "status", "attempts",
                                   "error"}
            assert record["status"] == "ok"
            assert record["size_hint"] > 0
            assert record["elapsed_s"] >= 0
        indexes = sorted(r["index"] for r in outcome.unit_reports)
        assert indexes == list(range(outcome.warm_units))


class TestRemoteWorkerSweep:
    def test_listen_plus_remote_worker(self, tmp_path):
        # Leader accepts on an ephemeral port with no local workers; a
        # thread plays the remote `repro worker --connect` node.
        store = ArtifactStore(f"sqlite:{tmp_path / 'store.sqlite'}")
        joined = []

        def _lurk():
            # Poll until the leader is accepting, then serve it.
            address = None
            while address is None:
                address = _found_address.get("addr")
            joined.append(worker_loop(address, name="remote"))

        _found_address: dict = {}
        seen_lines = []

        def _echo_line(line):
            seen_lines.append(line)
            if "repro worker --connect" in line:
                _found_address["addr"] = line.rsplit(
                    "--connect ", 1)[1].rstrip(")")

        lurker = threading.Thread(target=_lurk, daemon=True)
        lurker.start()
        outcome = run_sweep(_small_spec(), store=store, workers=1,
                            listen="127.0.0.1:0", echo=_echo_line)
        lurker.join(timeout=10)
        assert joined and joined[0] == outcome.warm_units
        assert {r["worker"] for r in outcome.unit_reports} == {"remote"}
        assert len(outcome.rows) == len(_small_spec().expand())


def test_parse_address_forms():
    assert parse_address("127.0.0.1:9", default_port=1) \
        == ("127.0.0.1", 9)
    assert parse_address("tcp://h:9", default_port=1) == ("h", 9)
    assert parse_address("h", default_port=7) == ("h", 7)


def test_leader_port_is_reusable_after_shutdown():
    leader = ClusterLeader("tests.cluster.test_cluster:_echo",
                           []).start()
    host, port = parse_address(leader.address)
    leader.shutdown()
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind((host, port))
    probe.close()
