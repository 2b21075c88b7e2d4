"""Both network tiers run on ``wire.FrameServer``: the same teardown
and the same answer to an op they do not know, parametrised over the
store server and the cluster leader."""

from __future__ import annotations

import socket

import pytest

from repro.cluster import ClusterLeader
from repro.store import DirectoryBackend, StoreServer
from repro.wire import connect, parse_address, recv_msg, send_msg


def _echo(payload):
    return payload


def _store_tier(tmp_path):
    """A store server, a request it answers, and its unknown-op reply
    tag."""
    server = StoreServer(DirectoryBackend(tmp_path / "tree"),
                         host="127.0.0.1", port=0).start()
    return server, ("contains", "app", "00" * 32), ("ok", False), "err"


def _leader_tier(tmp_path):
    """A cluster leader, a request it answers, and its unknown-op reply
    tag."""
    leader = ClusterLeader("tests.test_frame_server:_echo",
                           ["a"]).start()
    welcome = ("welcome", {"fn": "tests.test_frame_server:_echo",
                           "units": 1})
    return leader, ("hello", "probe", False), welcome, "error"


TIERS = pytest.mark.parametrize("tier", [_store_tier, _leader_tier],
                                ids=["store", "leader"])


@TIERS
def test_shutdown_severs_idle_clients_and_refuses_connects(tier,
                                                           tmp_path):
    server, request, reply, _tag = tier(tmp_path)
    address = server.address
    sock = connect(address, timeout=5.0)
    try:
        send_msg(sock, request)       # accepted and being served
        assert recv_msg(sock) == reply
        server.shutdown()
        sock.settimeout(1.0)
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass
    finally:
        sock.close()
        server.shutdown()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(parse_address(address), timeout=1.0)


@TIERS
def test_unknown_op_is_an_error_reply_and_serving_goes_on(tier,
                                                          tmp_path):
    server, request, reply, tag = tier(tmp_path)
    sock = connect(server.address, timeout=5.0)
    try:
        send_msg(sock, ("ping",))
        answer = recv_msg(sock)
        assert answer[0] == tag and "ping" in answer[1]
        send_msg(sock, request)
        assert recv_msg(sock) == reply
    finally:
        sock.close()
        server.shutdown()


@pytest.mark.parametrize("frame", [
    ("hello", "probe"),                         # two-field hello
    ("hello", "probe", "yes"),                  # flag is not a bool
    ("result", 7, "value", 0.1, "w"),           # no unit 7
    ("result", "0", "value", 0.1, "w"),         # index is not an int
    ("result", True, "value", 0.1, "w"),        # nor is a bool
    ("error", 0, "boom", "slow", "w"),          # elapsed not a number
    ("get", "extra"),
    (),
    "hello",
], ids=repr)
def test_leader_answers_a_malformed_frame_with_an_error(frame,
                                                        monkeypatch):
    raised = []
    monkeypatch.setattr("threading.excepthook", raised.append)
    leader = ClusterLeader("tests.test_frame_server:_echo",
                           ["a"]).start()
    sock = connect(leader.address, timeout=5.0)
    try:
        send_msg(sock, frame)
        answer = recv_msg(sock)
        assert answer[0] == "error" and isinstance(answer[1], str)
        send_msg(sock, ("hello", "probe", False))
        assert recv_msg(sock)[0] == "welcome"
    finally:
        sock.close()
        leader.shutdown()
    assert raised == []
    assert leader.pending_count() == 1
