"""Length-prefixed pickle frames and the one server that speaks them.

Both network tiers of the distributed fabric — the artifact-store
server (:mod:`repro.store.net`) and the sweep cluster leader
(:mod:`repro.cluster`) — exchange small control tuples over TCP.  This
module is the single place the framing lives: a 4-byte big-endian
length prefix followed by a pickled message.  Messages are plain
tuples of strings, numbers, ``bytes`` blobs and nested tuples — the
artifact payloads themselves travel as opaque byte strings and are
never unpickled by the server.

:class:`FrameServer` is the one TCP server both tiers run on: a
blocking ``accept`` loop that gives each connection a daemon thread
running the tier's message loop, and a ``shutdown`` that refuses new
connections at once and severs the live ones.

The protocol is for a *trusted* network (your own cluster): pickle is
not hardened against adversarial peers, exactly like the on-disk store
tier is not hardened against adversarial files.  A magic preamble on
every frame rejects accidental cross-protocol connections early.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Callable, Optional, Tuple

#: Frame preamble: rejects accidental connections from foreign
#: protocols (an HTTP client, a stray health checker) with a clean
#: error instead of a pickle traceback.
MAGIC = b"rpw1"

#: Frames above this size are refused — artifact payloads are small
#: pickles (node sets, stats dicts); anything larger is a protocol
#: error, not a legitimate message.
MAX_FRAME = 256 * 1024 * 1024

_LEN = struct.Struct(">I")


class WireError(ConnectionError):
    """A malformed frame or a peer that vanished mid-message."""


#: Process-wide fault-injection hook for the chaos fabric
#: (:mod:`repro.chaos`): called as ``hook(sock, op, frame)`` with
#: ``op="send"`` (full frame bytes) before a frame ships and
#: ``op="recv"`` (``frame=None``) before one is read.  The hook may
#: sleep (stall), close the socket and raise (reset), or send a frame
#: prefix and raise (truncation).  ``None`` — the default — is zero
#: overhead beyond one attribute test.  Process-wide on purpose: it
#: reaches server handler threads too, which is how the chaos runner
#: breaks connections it never sees.
_FAULT_HOOK: Optional[Callable] = None


def set_fault_hook(hook: Optional[Callable]) -> Optional[Callable]:
    """Install (or clear with ``None``) the wire fault hook; returns
    the previous hook so scopes can nest/restore."""
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    return previous


def send_msg(sock: socket.socket, message: Tuple) -> None:
    """Send one framed message (magic + length + pickle) on *sock*."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise WireError(f"frame of {len(payload)} bytes exceeds "
                        f"MAX_FRAME ({MAX_FRAME})")
    frame = MAGIC + _LEN.pack(len(payload)) + payload
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(sock, "send", frame)
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Exactly *count* bytes, or ``None`` on a clean EOF at a frame
    boundary (mid-frame EOF raises :class:`WireError`)."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(min(count - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise WireError("peer closed the connection mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Optional[Tuple]:
    """Receive one framed message, or ``None`` on a clean disconnect."""
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(sock, "recv", None)
    head = _recv_exact(sock, len(MAGIC) + _LEN.size)
    if head is None:
        return None
    if head[:len(MAGIC)] != MAGIC:
        raise WireError(f"bad frame magic {head[:len(MAGIC)]!r}")
    (length,) = _LEN.unpack(head[len(MAGIC):])
    if length > MAX_FRAME:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise WireError("peer closed the connection mid-frame")
    try:
        return pickle.loads(payload)
    except Exception as exc:       # pickle raises a small zoo here
        raise WireError(f"undecodable frame: {exc}")


def parse_address(text: str, default_port: int = 0) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``HOST``) into a ``(host, port)`` pair."""
    text = text.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port = text.rpartition(":")
    if not sep:
        return text or "127.0.0.1", default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(f"bad address {text!r} (expected HOST:PORT)")


def connect(address: str, timeout: float = 30.0) -> socket.socket:
    """A connected TCP socket to ``HOST:PORT`` with *timeout* applied
    to every subsequent send/recv as well as the connect itself."""
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(timeout)
    return sock


class FrameServer:
    """A threaded TCP server: each connection gets a daemon thread
    that runs ``serve(sock)``, the tier's message loop.

    Binds in the constructor (``port=0`` picks an ephemeral port,
    reported by :attr:`address`).  :meth:`serve_forever` blocks in
    ``accept`` on the calling thread; :meth:`start` runs it on a daemon
    thread.  A :class:`WireError` or ``OSError`` out of ``serve`` ends
    only that connection.  Accepted sockets time out after
    *idle_timeout* seconds without traffic.
    """

    def __init__(self, serve: Callable[[socket.socket], None],
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: Optional[float] = None) -> None:
        """Bind and listen on ``(host, port)`` (``SO_REUSEADDR``)."""
        self._serve = serve
        self.idle_timeout = idle_timeout
        self._sock = socket.create_server((host, port))
        host, port = self._sock.getsockname()[:2]
        if host == "0.0.0.0":
            host = "127.0.0.1"
        #: ``HOST:PORT`` clients connect to (wildcard → loopback).
        self.address = f"{host}:{port}"
        self._lock = threading.Lock()
        self._conns: set = set()
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "FrameServer":
        """Accept on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"repro-server-{self.address}",
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` (which wakes the
        blocked ``accept`` at once — no poll interval)."""
        while True:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return
            conn.settimeout(self.idle_timeout)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            self._serve(conn)
        except (WireError, OSError):
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def shutdown(self) -> None:
        """Stop serving (idempotent): refuse new connections, then
        sever every live one — its peer sees EOF or a reset, exactly
        what a killed server process looks like.

        The listening socket is shut down, not just closed: a forked
        worker process inherits a duplicate of its descriptor, and
        with ``close()`` alone the kernel socket would stay listening
        through the dup — clients would connect into a backlog nobody
        accepts and wait out their timeout instead of being refused.
        ``shutdown`` acts on the kernel socket, dups and all, and
        wakes the blocked ``accept``."""
        with self._lock:
            self._closed = True
            conns, self._conns = self._conns, set()
        for sock in (self._sock, *conns):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=1.0)
