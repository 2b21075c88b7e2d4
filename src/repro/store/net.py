"""The thin TCP store tier: ``repro store serve`` and its client.

A :class:`StoreServer` wraps any local backend (directory or sqlite)
and serves it over the framed-pickle wire protocol
(:mod:`repro.wire`); a :class:`NetworkBackend` is the matching client,
plugging into :class:`~repro.store.artifacts.ArtifactStore` like any
other medium.  Together they give processes on several *nodes* one
shared artifact medium: a session or sweep on any node reads and
writes ``tcp://host:port`` while the server keeps the entries in one
underlying file tree or database.

The server relays opaque blobs — artifact payloads are never unpickled
server-side, so the policy layer's schema/corruption handling runs
only in the clients that actually consume the bytes.  Each connection
is served by a daemon thread and may issue any number of requests;
client operations reconnect once on a dropped socket, then degrade to
:class:`~repro.store.backend.BackendError` (which the policy layer
counts as a miss/dropped write — the fabric keeps working, just
colder).
"""

from __future__ import annotations

import random
import socket
import socketserver
import threading
import time
import zlib
from typing import Iterator, Optional, Tuple

from ..wire import WireError, connect, parse_address, recv_msg, send_msg
from .backend import BackendError, StoreBackend, StoreInfo, StoreUnavailable

#: Default port of ``repro store serve`` (and of ``tcp://HOST`` specs
#: that omit one).
DEFAULT_PORT = 9723

#: Socket timeout for client operations, seconds.
CLIENT_TIMEOUT = 30.0

#: Connectivity retries after the first attempt, per operation.
DEFAULT_RETRIES = 3


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):  # noqa: D102 - socketserver plumbing
        backend = self.server.backend      # type: ignore[attr-defined]
        sock = self.request
        sock.settimeout(self.server.idle_timeout)  # type: ignore
        self.server.track(sock)            # type: ignore[attr-defined]
        try:
            while True:
                try:
                    message = recv_msg(sock)
                except (WireError, OSError):
                    return
                if message is None:        # clean disconnect
                    return
                try:
                    reply = ("ok", self._dispatch(backend, message))
                except (BackendError, WireError) as exc:
                    reply = ("err", str(exc))
                except Exception as exc:   # never kill the server
                    reply = ("err", f"{type(exc).__name__}: {exc}")
                try:
                    send_msg(sock, reply)
                except (WireError, OSError):
                    return
        finally:
            self.server.untrack(sock)      # type: ignore[attr-defined]

    @staticmethod
    def _dispatch(backend: StoreBackend, message: Tuple):
        op = message[0]
        if op == "load":
            return backend.load(message[1], message[2])
        if op == "store":
            backend.store(message[1], message[2], message[3])
            return None
        if op == "contains":
            return backend.contains(message[1], message[2])
        if op == "delete":
            backend.delete(message[1], message[2])
            return None
        if op == "keys":
            return list(backend.keys())
        if op == "info":
            info = backend.info()
            return (info.root, info.entries, info.bytes, info.kinds)
        if op == "clear":
            return backend.clear()
        if op == "gc":
            return backend.gc(message[1])
        if op == "ping":
            return {"spec": backend.spec}
        raise WireError(f"unknown store op {op!r}")


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._conn_lock = threading.Lock()
        self._conns: set = set()

    def server_close(self):
        # shutdown() before close(): a forked worker process inherits
        # a duplicate of this listening FD, and with close() alone the
        # kernel socket would stay listening through the dup — clients
        # would connect into a backlog nobody accepts and eat their
        # full timeout instead of an instant refusal.  shutdown() acts
        # on the kernel socket itself, dups and all.
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        super().server_close()

    def track(self, sock) -> None:
        with self._conn_lock:
            self._conns.add(sock)

    def untrack(self, sock) -> None:
        with self._conn_lock:
            self._conns.discard(sock)

    def close_connections(self) -> None:
        """Sever every live client connection (handler threads see a
        socket error on their next receive and exit)."""
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class StoreServer:
    """Serve a local backend over TCP (the ``repro store serve`` verb).

    ``StoreServer(backend).start()`` binds and serves in a daemon
    thread (tests, embedding in a leader process);
    :meth:`serve_forever` blocks instead (the CLI).  ``port=0`` picks
    an ephemeral port, reported by :attr:`address`.
    """

    def __init__(self, backend: StoreBackend, host: str = "0.0.0.0",
                 port: int = DEFAULT_PORT,
                 idle_timeout: float = 600.0) -> None:
        """Bind immediately; serving starts with :meth:`start` or
        :meth:`serve_forever`."""
        self.backend = backend
        self._server = _Server((host, port), _Handler)
        self._server.backend = backend           # type: ignore[attr-defined]
        self._server.idle_timeout = idle_timeout  # type: ignore
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The bound ``HOST:PORT`` (resolves ``port=0`` bindings)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def spec(self) -> str:
        """Client spec for this server, with a connectable host: the
        wildcard bind address is rewritten to the loopback."""
        host, port = self._server.server_address[:2]
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return f"tcp://{host}:{port}"

    def start(self) -> "StoreServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-store-server", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._server.serve_forever(poll_interval=0.5)

    def shutdown(self) -> None:
        """Stop serving: close the listening socket AND sever every
        live client connection (idempotent).  Clients mid-request see
        a dropped socket — exactly what a killed server process looks
        like — and fall back on their retry budget."""
        self._server.shutdown()
        self._server.server_close()
        self._server.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class NetworkBackend(StoreBackend):
    """TCP client medium: every operation is one framed round-trip.

    Holds a persistent connection (re-established per attempt after a
    drop); concurrent use from one process is serialised by a lock —
    separate processes each open their own client.

    **Retry contract.**  Connectivity failures — connect refused, a
    socket dropped mid-round-trip, a malformed frame — are retried up
    to *retries* times with exponential backoff and deterministic
    jitter (seeded from the spec, so a replayed chaos run backs off
    identically), then raise
    :class:`~repro.store.backend.StoreUnavailable`.  Safe because
    every store operation is idempotent: content-addressed blobs make
    a re-sent ``store`` a byte-identical overwrite and a re-sent read
    side-effect-free.  A server that *answers* with ``("err", ...)``
    is authoritative — that raises plain ``BackendError`` with no
    retry (the server already executed or rejected the operation).
    ``retry_count`` accumulates the retries actually spent, which is
    how a mid-sweep server restart becomes visible in telemetry.
    """

    def __init__(self, spec: str, timeout: float = CLIENT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff_s: float = 0.05,
                 backoff_max_s: float = 2.0) -> None:
        """Parse ``tcp://HOST:PORT`` (port defaults to
        :data:`DEFAULT_PORT`); connects lazily on first use.

        *retries* is the connectivity-retry budget per operation
        (negative counts as 0); *backoff_s* is the
        first retry's base delay, doubling per retry and capped at
        *backoff_max_s*, each scaled by jitter in [0.5, 1.0)."""
        host, port = parse_address(spec, default_port=DEFAULT_PORT)
        self.address = f"{host}:{port}"
        self.spec = f"tcp://{self.address}"
        self.root = self.spec
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.retry_count = 0
        self._rng = random.Random(zlib.crc32(self.spec.encode()))
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        """Delay before retry *attempt* (1-based): exponential with
        deterministic jitter — two clients hammering a restarting
        server desynchronise, and a replayed run sleeps identically."""
        base = min(self.backoff_max_s,
                   self.backoff_s * (2.0 ** (attempt - 1)))
        return base * (0.5 + 0.5 * self._rng.random())

    def _roundtrip(self, message: Tuple):
        with self._lock:
            last_exc: Optional[Exception] = None
            for attempt in range(self.retries + 1):
                if attempt:
                    self.retry_count += 1
                    time.sleep(self._backoff(attempt))
                try:
                    if self._sock is None:
                        self._sock = connect(self.address, self.timeout)
                    send_msg(self._sock, message)
                    reply = recv_msg(self._sock)
                    if reply is None:
                        raise WireError("server closed the connection")
                    break
                except (WireError, OSError) as exc:
                    self._close_locked()
                    last_exc = exc
            else:
                raise StoreUnavailable(
                    f"store {self.spec} unavailable after "
                    f"{self.retries + 1} attempt(s): {last_exc}")
        status, value = reply
        if status != "ok":
            # The server answered: authoritative, never retried.
            raise BackendError(f"store {self.spec}: {value}")
        return value

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def load(self, kind: str, key: str):
        """Fetch one blob (``None`` on a remote miss)."""
        return self._roundtrip(("load", kind, key))

    def store(self, kind: str, key: str, blob: bytes) -> None:
        """Ship one blob to the server."""
        self._roundtrip(("store", kind, key, blob))

    def contains(self, kind: str, key: str) -> bool:
        """Remote presence check (no blob transfer)."""
        return bool(self._roundtrip(("contains", kind, key)))

    def delete(self, kind: str, key: str) -> None:
        """Best-effort remote removal (unreachable server: no-op).

        Only *connectivity* failures are swallowed — a server that
        answered and rejected the delete raises, like every other
        operation (silently dropping a protocol error hid real
        server-side failures)."""
        try:
            self._roundtrip(("delete", kind, key))
        except StoreUnavailable:
            pass

    def keys(self) -> Iterator[Tuple[str, str]]:
        """Every remote ``(kind, key)`` pair, in one reply."""
        yield from [tuple(pair) for pair in self._roundtrip(("keys",))]

    def info(self) -> StoreInfo:
        """The server backend's counts (its root, not the client's)."""
        root, entries, size, kinds = self._roundtrip(("info",))
        return StoreInfo(root=root, entries=entries, bytes=size,
                         kinds=dict(kinds))

    def clear(self) -> int:
        """Clear the server's medium; returns entries removed."""
        return int(self._roundtrip(("clear",)))

    def gc(self, max_age_days: float) -> Tuple[int, int]:
        """Run the age sweep server-side."""
        removed, freed = self._roundtrip(("gc", max_age_days))
        return int(removed), int(freed)

    def ping(self) -> dict:
        """Server liveness + its backend spec (connection check)."""
        return dict(self._roundtrip(("ping",)))

    def close(self) -> None:
        """Drop the client connection (reopened lazily on next use)."""
        with self._lock:
            self._close_locked()
