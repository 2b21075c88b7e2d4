"""The worker side of the sweep cluster (``repro worker``).

A worker is a pull loop: connect to the leader, announce itself, then
repeatedly request a unit, execute it, and send the result back.  The
unit payloads are self-contained, each result travels back to the
leader (a worker opens no store), and the *function* each unit runs is
named by the leader in its welcome message as a ``module:callable``
path — the worker resolves it by import, so the protocol is
transport-level generic while the trust model stays "your own cluster"
(the same trusted-network assumption the store server documents).

A remote ``repro worker --connect`` node receives each unit with its
payload.  A local worker forked by :func:`~repro.cluster.scheduled_map`
already holds the leader's unit list, says so in its hello, and
receives unit indices only — the payloads never cross the socket.

Workers are stateless and disposable: a worker that crashes mid-unit
costs nothing but that unit's recompute — the leader requeues it for
the next puller.  Units are idempotent (content-addressed results), so
the double execution a crash can cause is benign.  A unit whose
*function* raises does not crash the worker: the traceback travels to
the leader as an ``("error", ...)`` report and the worker keeps
pulling — quarantining a poison unit is the leader's decision, not a
fleet-wide cascade.
"""

from __future__ import annotations

import importlib
import itertools
import os
import socket
import time
import traceback
from typing import Callable, Optional, Sequence

from ..chaos.plan import plan_from_env
from ..wire import WireError, connect, recv_msg, send_msg

_name_counter = itertools.count()

#: Seconds :func:`worker_loop` keeps retrying a refused connect, so a
#: worker may be started before its leader listens.
CONNECT_WINDOW_S = 30.0

#: Pause between two refused connects inside that window.
_CONNECT_RETRY_S = 0.1


def default_worker_name() -> str:
    """A worker name unique across hosts, processes *and* loops in one
    process: ``host-pid-counter``.  (The previous ``id(object())``
    scheme collided across forked processes — CPython reuses object
    addresses — making ``UnitReport.worker`` telemetry ambiguous.)"""
    return (f"{socket.gethostname()}-{os.getpid()}"
            f"-{next(_name_counter)}")


def _allow_kill() -> bool:
    """True only in a forked/spawned child process — a chaos ``kill``
    must never take down the main process (tests run ``worker_loop``
    on threads; the CLI runs it in the foreground)."""
    try:
        import multiprocessing
        return multiprocessing.parent_process() is not None
    except (ImportError, AttributeError):
        return False


def resolve_callable(path: str) -> Callable:
    """Import the ``module:callable`` path a leader names for units."""
    module_name, sep, attr = path.partition(":")
    if not sep:
        raise ValueError(f"bad callable path {path!r} "
                         f"(expected module:callable)")
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise ValueError(f"{path!r} is not callable")
    return fn


def _sleep_unit(payload):
    """Calibration unit: sleep for ``payload`` seconds and echo it.

    The scheduler benchmark and the cluster tests use this to measure
    the fabric itself (dispatch, stealing, reassembly) with perfectly
    controlled unit durations, independent of CPU count.
    """
    seconds = payload[0] if isinstance(payload, tuple) else payload
    time.sleep(float(seconds))
    return payload


def _connect(address: str, timeout: float, window: float):
    """``connect`` to *address*, retrying a refused connection until
    *window* seconds have passed (then the refusal propagates)."""
    give_up = time.monotonic() + window
    while True:
        try:
            return connect(address, timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= give_up:
                raise
            time.sleep(_CONNECT_RETRY_S)


def worker_loop(address: str, name: Optional[str] = None,
                timeout: float = 3600.0,
                echo: Optional[Callable[[str], None]] = None, *,
                payloads: Optional[Sequence] = None,
                connect_window: float = CONNECT_WINDOW_S) -> int:
    """Serve one leader until its queue drains; returns units done.

    Connects to ``HOST:PORT``, resolves the unit callable the leader
    announces, then pulls units until the leader answers ``done`` (a
    ``get`` blocks on the leader while the queue is empty but units
    are still outstanding elsewhere).  A worker given *payloads* —
    the leader's own unit list, inherited by a forked local worker —
    announces it in its hello and is sent unit indices only; without
    it every unit arrives with its payload.
    A refused connect is retried for *connect_window* seconds, so the
    worker may start before the leader listens.  Raises
    ``ConnectionError``/``OSError`` if the leader stays unreachable; a
    connection lost mid-run simply ends the loop (the leader requeues
    whatever this worker held).
    """
    say = echo or (lambda _line: None)
    worker_name = name or default_worker_name()
    plan = plan_from_env()
    allow_kill = _allow_kill()
    sock = _connect(address, timeout, connect_window)
    done = 0
    try:
        send_msg(sock, ("hello", worker_name, payloads is not None))
        welcome = recv_msg(sock)
        if not welcome or welcome[0] != "welcome":
            raise WireError(f"unexpected greeting {welcome!r}")
        meta = welcome[1]
        fn = resolve_callable(meta["fn"])
        say(f"{worker_name}: connected to {address}, "
            f"{meta.get('units', '?')} unit(s) pending, fn {meta['fn']}")
        # The leader answers every report with the next unit (or
        # "done"), so a unit costs one round trip.
        send_msg(sock, ("get",))
        while True:
            message = recv_msg(sock)
            if message is None or message[0] == "done":
                break
            if message[0] != "unit":
                raise WireError(f"unexpected reply {message[0]!r}")
            index = message[1]
            start = time.perf_counter()
            try:
                if plan is not None:
                    plan.check_unit(index, allow_kill=allow_kill)
                # A bad index is this unit's failure, not the loop's.
                payload = (message[2] if payloads is None
                           else payloads[index])
                report = ("result", index, fn(payload))
            except Exception:
                # The unit is poison, not the worker: ship the
                # traceback and keep serving — quarantine (or retry)
                # is the leader's call.
                report = ("error", index, traceback.format_exc(limit=20))
            elapsed = time.perf_counter() - start
            send_msg(sock, report + (elapsed, worker_name))
            if report[0] == "result":
                done += 1
                say(f"{worker_name}: unit {index} in {elapsed:.2f}s")
            else:
                say(f"{worker_name}: unit {index} failed "
                    f"in {elapsed:.2f}s")
    finally:
        try:
            sock.close()
        except OSError:
            pass
    say(f"{worker_name}: queue drained, {done} unit(s) done")
    return done


def _local_worker(address: str, index: int, payloads: Sequence) -> None:
    """Module-level process target for the leader's local workers
    (must be importable after ``fork``/``spawn``)."""
    try:
        # The leader listens before it forks: no connect retries.
        worker_loop(address, name=f"local{index}", payloads=payloads,
                    connect_window=0.0)
    except (ConnectionError, OSError, WireError):
        # A leader that already finished (or died) is not the worker's
        # problem; the leader side accounts for lost units.
        pass
