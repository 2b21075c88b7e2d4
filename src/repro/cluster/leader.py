"""The leader side of the sweep cluster, and the sweep's scheduler.

The leader owns the bag of units and serves it on the same
:class:`~repro.wire.FrameServer` the store server runs on: one
message loop (:meth:`ClusterLeader._serve`) per worker connection,
and a shutdown that severs them all.  Scheduling is pull-based work
stealing: the queue is a max-heap on the units' size hints, and
whichever worker asks next receives the largest pending unit — so the
one oversized Optimal block pins exactly one worker while every other
unit drains through the rest, and a fast worker automatically "steals"
the queue share a slow one cannot take.  A worker's ``get`` blocks on
the leader until a unit is available or the run is resolved, so no
worker ever sleeps in a poll loop.  Local workers are forked after the
leader holds the unit list and inherit it, so they are sent
``("unit", index)``; remote workers are sent ``("unit", index,
payload)``.  Robustness invariants:

* a unit is *outstanding* from hand-out to result; if the worker's
  connection drops first, the unit is requeued for the next puller;
* duplicate results for a unit (a worker that reported and then died,
  plus the requeued re-run) are benign: units are pure, so the copies
  are identical and the first one wins;
* a unit whose function *raises* is quarantined, not fatal: the worker
  reports ``("error", index, traceback, elapsed, name)`` and keeps
  serving, the leader retries the unit up to ``max_attempts``
  hand-outs, then records a structured failure (``UnitReport`` with
  ``status="error"``) and the sweep finishes around it — one poison
  unit can no longer cascade through the whole fleet;
* a unit held past ``unit_deadline`` seconds (hung worker) is requeued
  by :meth:`ClusterLeader.expire_deadlines` under the same attempts
  cap, and an overall ``deadline`` on :func:`scheduled_map` abandons
  whatever is unresolved (recorded as failures) instead of hanging;
* :func:`scheduled_map` is never stranded — if every worker dies (or
  none could be forked), the leader runs the leftovers in-process,
  so the cluster path degrades to serial, never to a hang.

:func:`scheduled_map` is the one function that dispatches sweep units.
Serial runs go through the same leader (drained inline, with no
socket and no thread), so they share the attempt, quarantine and
report semantics of parallel ones.  Results are reassembled in unit
order (``None`` for failed units), bit-identical to a serial map over
the payloads, with per-unit telemetry
(:class:`~repro.core.parallel.UnitReport`) in completion order.
"""

from __future__ import annotations

import heapq
import threading
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.parallel import UnitReport, resolve_workers
from ..wire import FrameServer, parse_address, recv_msg, send_msg
from .worker import resolve_callable

__all__ = ["ClusterLeader", "scheduled_map"]

#: Default port of ``repro sweep --listen`` (store server uses 9723).
DEFAULT_PORT = 9724

#: Field types of the frames a worker sends: ``hello`` (name,
#: holds_payloads), ``get``, ``result``/``error`` (index, result or
#: traceback, elapsed, worker).
_FRAMES = {
    "hello": (str, str, bool),
    "get": (str,),
    "result": (str, int, object, (int, float), str),
    "error": (str, int, str, (int, float), str),
}

#: Failures that mean "cannot fork local workers here" — the leader
#: then runs the units itself instead of giving up.
_SPAWN_ERRORS = (OSError, ImportError, NotImplementedError,
                 PermissionError, ValueError)


class ClusterLeader:
    """Unit queue + result collector, optionally behind a
    :class:`~repro.wire.FrameServer`.

    Serves *payloads* largest-first (by *size_hints*) to connecting
    workers, which execute the module-level callable named by
    *fn_path* (``module:callable``).  ``take``/``complete``/``requeue``
    are the scheduling core — also used directly by the leader's own
    inline drain — and are thread-safe.  Nothing is bound until
    :meth:`start`, so a leader drained inline opens no socket.
    """

    def __init__(self, fn_path: Optional[str], payloads: Sequence,
                 size_hints: Optional[Sequence[float]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: float = 3600.0,
                 max_attempts: int = 3,
                 unit_deadline: Optional[float] = None) -> None:
        """Stage *payloads* for serving; call :meth:`start` to listen.

        ``port=0`` binds an ephemeral port (read it back from
        :attr:`address`).  *max_attempts* caps how often one unit is
        handed out before it is quarantined as failed; *unit_deadline*
        (seconds) is how long a unit may stay outstanding on one worker
        before :meth:`expire_deadlines` takes it back.
        """
        self.fn_path = fn_path
        self.idle_timeout = idle_timeout
        self.max_attempts = max(1, max_attempts)
        self.unit_deadline = unit_deadline
        self._payloads = list(payloads)
        hints = (list(size_hints) if size_hints is not None
                 else [0.0] * len(self._payloads))
        if len(hints) != len(self._payloads):
            raise ValueError("size_hints length mismatch")
        self._hints = [float(h) for h in hints]
        # Max-heap on hint, ties broken by unit order.
        self._pending = [(-self._hints[i], i)
                         for i in range(len(self._payloads))]
        heapq.heapify(self._pending)
        #: index -> (worker, monotonic hand-out time)
        self._outstanding: dict = {}
        self._results: dict = {}
        self._failed: dict = {}
        self._attempts: dict = {}
        self._reports: List[UnitReport] = []
        # One condition guards all state; takers wait on it for a
        # pending unit or the end of the run.
        self._cond = threading.Condition()
        self._closed = False
        self._done = threading.Event()
        if not self._payloads:
            self._done.set()
        self._bind = (host, port)
        self._server: Optional[FrameServer] = None

    # ------------------------------------------------------------------
    # Scheduling core (thread-safe; shared by handlers and inline drain).
    # ------------------------------------------------------------------
    def take(self, worker: str, timeout: Optional[float] = None
             ) -> Tuple[str, Optional[int], object]:
        """Claim the largest pending unit for *worker*.

        Blocks while the queue is empty but units are still outstanding
        elsewhere (one may be requeued yet).  Returns ``("unit", index,
        payload)``, or ``("done", None, None)`` once every unit is
        resolved (result or recorded failure) or the leader shut down,
        or ``("wait", None, None)`` if *timeout* seconds pass first.
        Every hand-out counts one attempt against the unit's
        ``max_attempts`` budget.
        """
        give_up = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._pending:
                    _neg, index = heapq.heappop(self._pending)
                    self._attempts[index] = self._attempts.get(index, 0) + 1
                    self._outstanding[index] = (worker, time.monotonic())
                    return "unit", index, self._payloads[index]
                if self._closed or self._resolved_locked():
                    return "done", None, None
                remaining = (None if give_up is None
                             else give_up - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return "wait", None, None
                self._cond.wait(remaining)

    def _resolved_locked(self) -> bool:
        return (len(self._results) + len(self._failed)
                >= len(self._payloads))

    def _check_done_locked(self) -> None:
        if self._resolved_locked():
            self._done.set()
            self._cond.notify_all()

    def complete(self, index: int, result, elapsed: float,
                 worker: str) -> None:
        """Record *result* for unit *index* (duplicates are ignored —
        idempotent units make re-runs after a requeue identical).  A
        late success from a worker that outlived the unit's failure
        verdict supersedes it: a real result always beats a failure
        record."""
        with self._cond:
            self._outstanding.pop(index, None)
            if index in self._results:
                return
            if index in self._failed:
                del self._failed[index]
                self._reports = [r for r in self._reports
                                 if not (r.index == index
                                         and r.status != "ok")]
            self._results[index] = result
            self._reports.append(UnitReport(
                index=index, size_hint=self._hints[index],
                elapsed_s=float(elapsed), worker=worker,
                attempts=self._attempts.get(index, 1)))
            self._check_done_locked()

    def fail(self, index: int, error: str, elapsed: float,
             worker: str) -> None:
        """Record one failed execution of unit *index*.

        Requeues the unit while hand-outs remain under
        ``max_attempts``; at the cap the unit is quarantined — a
        structured ``status="error"`` report with the last traceback —
        and the run finishes around it."""
        with self._cond:
            self._outstanding.pop(index, None)
            self._retry_locked(index, error, elapsed, worker)

    def requeue(self, index: int) -> None:
        """Return a lost unit (worker died mid-run) to the queue —
        under the same attempts cap as :meth:`fail`, so a unit that
        kills every worker that touches it is eventually quarantined
        instead of cycling forever."""
        with self._cond:
            self._outstanding.pop(index, None)
            self._retry_locked(
                index, f"unit lost with worker after "
                       f"{self._attempts.get(index, 0)} attempt(s)",
                0.0, "leader")

    def _retry_locked(self, index: int, error: str, elapsed: float,
                      worker: str) -> None:
        """Requeue unresolved unit *index* while hand-outs remain under
        ``max_attempts``, else quarantine it with *error*."""
        if index in self._results or index in self._failed:
            return
        if self._attempts.get(index, 0) < self.max_attempts:
            heapq.heappush(self._pending, (-self._hints[index], index))
            self._cond.notify()
            return
        self._quarantine_locked(index, error, elapsed, worker)

    def _quarantine_locked(self, index: int, error: str, elapsed: float,
                           worker: str) -> None:
        self._failed[index] = str(error)
        self._reports.append(UnitReport(
            index=index, size_hint=self._hints[index],
            elapsed_s=float(elapsed), worker=worker,
            status="error", attempts=self._attempts.get(index, 0),
            error=str(error)))
        self._check_done_locked()

    def expire_deadlines(self) -> int:
        """Requeue units outstanding past ``unit_deadline`` (hung or
        stalled worker); returns how many were taken back.  The
        original worker's late result, if it ever lands, is absorbed
        by :meth:`complete`'s dedup."""
        if self.unit_deadline is None:
            return 0
        now = time.monotonic()
        expired = 0
        with self._cond:
            for index, (worker, since) in list(self._outstanding.items()):
                if now - since < self.unit_deadline:
                    continue
                self._outstanding.pop(index, None)
                expired += 1
                self._retry_locked(
                    index, f"unit deadline of {self.unit_deadline}s "
                           f"exceeded on {worker}",
                    self.unit_deadline, worker)
        return expired

    def abandon(self, reason: str) -> int:
        """Fail every unresolved unit with *reason* and finish the run
        (the overall-deadline path); returns units abandoned."""
        with self._cond:
            self._pending = []
            self._outstanding.clear()
            abandoned = 0
            for index in range(len(self._payloads)):
                if index in self._results or index in self._failed:
                    continue
                # The last quarantine resolves the run and wakes takers.
                self._quarantine_locked(index, reason, 0.0, "leader")
                abandoned += 1
            return abandoned

    def pending_count(self) -> int:
        """Units not yet handed out (outstanding ones excluded)."""
        with self._cond:
            return len(self._pending)

    def failed(self) -> dict:
        """``{index: error}`` for every quarantined unit so far."""
        with self._cond:
            return dict(self._failed)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "ClusterLeader":
        """Bind and start accepting workers on a daemon thread; returns
        self."""
        self._server = FrameServer(self._serve, *self._bind,
                                   self.idle_timeout).start()
        return self

    def _serve(self, sock) -> None:
        """One connected worker: hello → welcome, get → unit, then each
        result (or error) report → the next unit, until EOF.  A unit
        the worker still holds when its connection ends is requeued."""
        claimed: Optional[int] = None
        name = "?"
        holds_payloads = False
        try:
            while True:
                message = recv_msg(sock)
                if message is None:
                    return
                problem = self._malformed(message)
                if problem is not None:
                    send_msg(sock, ("error", problem))
                    continue
                op = message[0]
                if op == "hello":
                    # A forked local worker inherited the payload list
                    # and says so; it is sent unit indices only.
                    _tag, name, holds_payloads = message
                    send_msg(sock, ("welcome", {
                        "fn": self.fn_path,
                        "units": self.pending_count(),
                    }))
                else:
                    # A report is answered with the next unit, like a
                    # get: one round trip per unit.
                    if op == "result":
                        _tag, index, result, elapsed, reporter = message
                        self.complete(index, result, elapsed, reporter)
                    elif op == "error":
                        _tag, index, error, elapsed, reporter = message
                        self.fail(index, error, elapsed, reporter)
                    claimed = None
                    status, index, payload = self.take(name)
                    if status == "unit":
                        claimed = index
                        send_msg(sock, ("unit", index) if holds_payloads
                                 else ("unit", index, payload))
                    else:
                        send_msg(sock, ("done",))
        finally:
            if claimed is not None:
                self.requeue(claimed)

    def _malformed(self, message) -> Optional[str]:
        """Why *message* is not a frame :meth:`_serve` accepts (op,
        arity, field types, a unit index in range), or ``None``."""
        if not isinstance(message, tuple) or not message:
            return "a frame is a non-empty tuple"
        op = message[0]
        fields = _FRAMES.get(op) if isinstance(op, str) else None
        if fields is None:
            return f"unknown op {op!r}"
        if (len(message) != len(fields)
                or not all(map(isinstance, message, fields))):
            return f"malformed {op!r} frame"
        if len(fields) == 5 and not 0 <= message[1] < len(self._payloads):
            return f"{op!r} names no unit: index {message[1]!r}"
        return None

    @property
    def address(self) -> str:
        """``host:port`` workers connect to (wildcard → loopback)."""
        return self._server.address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every unit has a result (or *timeout*)."""
        return self._done.wait(timeout)

    def run_pending_inline(self, fn: Callable,
                           poll_s: float = 0.05) -> int:
        """Drain the queue in the calling process, running *fn*.

        The serial path, and the fallback when no workers could be
        forked or all of them died: the leader claims and executes
        units itself until every unit is resolved, waiting up to
        *poll_s* at a time (expiring deadlines in between) while units
        are outstanding on still-connected remote workers.  Inline
        units are quarantined exactly like remote ones (an exception
        consumes one attempt, never propagates), and a chaos plan's
        unit faults still apply — minus process kills, which degrade
        to poison.  Returns the units run inline successfully.
        """
        from ..chaos.plan import plan_from_env

        plan = plan_from_env()
        ran = 0
        while True:
            status, index, payload = self.take("leader-inline",
                                               timeout=poll_s)
            if status == "done":
                return ran
            if status == "wait":
                self.expire_deadlines()
                continue
            start = time.perf_counter()
            try:
                if plan is not None:
                    plan.check_unit(index, allow_kill=False)
                result = fn(payload)
            except Exception:
                self.fail(index, traceback.format_exc(limit=20),
                          time.perf_counter() - start, "leader-inline")
                continue
            self.complete(index, result,
                          time.perf_counter() - start, "leader-inline")
            ran += 1

    def results(self) -> Tuple[List, List[UnitReport]]:
        """``(results in unit order, reports in completion order)`` —
        call after :meth:`wait` returns true.  Quarantined units hold
        ``None`` in the results list; their reports carry
        ``status="error"``."""
        with self._cond:
            ordered = [self._results.get(i)
                       for i in range(len(self._payloads))]
            return ordered, list(self._reports)

    def shutdown(self) -> None:
        """Stop accepting workers, sever the connected ones and wake
        every blocked taker (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()


def _callable_path(fn: Callable) -> str:
    """The ``module:qualname`` path workers import *fn* by.

    Raises ``ValueError`` unless the path resolves back to *fn* itself
    (a lambda, a nested function or a bound method does not)."""
    path = (f"{getattr(fn, '__module__', None)}:"
            f"{getattr(fn, '__qualname__', None)}")
    try:
        resolved = resolve_callable(path)
    except (ImportError, AttributeError, ValueError):
        resolved = None
    if resolved is not fn:
        raise ValueError(
            f"{fn!r} cannot run on worker processes: they import it as "
            f"{path!r}, which does not resolve to it (use a "
            f"module-level function)")
    return path


def scheduled_map(
    fn: Callable,
    items: Sequence,
    workers: Optional[int] = None,
    size_hints: Optional[Sequence[float]] = None,
    listen: Optional[str] = None,
    echo: Optional[Callable[[str], None]] = None,
    poll_s: float = 0.1,
    max_attempts: int = 3,
    unit_deadline: Optional[float] = None,
    deadline: Optional[float] = None,
) -> Tuple[List, List[UnitReport]]:
    """Work-stealing ``map`` of *fn* over *items*: results in input
    order, per-unit reports in completion order.

    Units are handed out largest-first by *size_hints* (input order
    without hints).  ``resolve_workers(workers) >= 2`` forks that many
    local worker processes (at most one per item); *listen*
    (``HOST:PORT``) additionally accepts remote ``repro worker
    --connect`` nodes.  *fn* must then be a module-level callable —
    workers import it by its ``module:qualname`` path — or
    ``ValueError`` is raised.  With no forks and no *listen*, the
    leader drains the queue inline: no socket, no thread, same
    semantics.

    A unit whose function failed on ``max_attempts`` hand-outs
    resolves to ``None`` with a ``status="error"`` report instead of
    propagating.  Never hangs: units lost to a dead worker are
    requeued (same attempts cap), units outstanding past
    *unit_deadline* seconds are taken back from their worker, an
    overall *deadline* (seconds) abandons whatever is unresolved, and
    if no workers remain (or none could be forked) the leftovers run
    in the calling process.
    """
    say = echo or (lambda _line: None)
    count = resolve_workers(workers)
    fn_path = _callable_path(fn) if count >= 2 or listen else None
    forks = min(count, len(items)) if count >= 2 else 0
    host, port = ("127.0.0.1", 0)
    if listen:
        host, port = parse_address(listen, default_port=DEFAULT_PORT)
    leader = ClusterLeader(fn_path, items, size_hints=size_hints,
                           host=host, port=port,
                           max_attempts=max_attempts,
                           unit_deadline=unit_deadline)
    started = time.monotonic()
    procs: List = []
    try:
        if items and (forks >= 2 or listen):
            leader.start()
            procs = _fork_workers(leader.address, forks, items)
            if listen:
                say(f"cluster: leader on {leader.address} "
                    f"({len(items)} unit(s), {len(procs)} local "
                    f"worker(s); repro worker --connect "
                    f"{leader.address})")
        if not procs and not listen:
            # Nothing will ever pull: run everything in-process.
            leader.run_pending_inline(fn)
        while not leader.wait(timeout=poll_s):
            leader.expire_deadlines()
            if (deadline is not None
                    and time.monotonic() - started >= deadline):
                abandoned = leader.abandon(
                    f"cluster deadline of {deadline}s exceeded")
                say(f"cluster: overall deadline of {deadline}s "
                    f"exceeded; abandoned {abandoned} unit(s)")
                break
            if procs and not any(p.is_alive() for p in procs):
                # Every local worker died (crash, OOM-kill).  Their
                # closed sockets requeued whatever they held; finish
                # the leftovers here rather than hang.
                say("cluster: local workers exited early; "
                    "running remaining units inline")
                leader.run_pending_inline(fn)
        for proc in procs:
            proc.join(timeout=10.0)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        leader.shutdown()
    failed = leader.failed()
    if failed:
        say(f"cluster: {len(failed)} unit(s) failed after "
            f"{max_attempts} attempt(s): {sorted(failed)}")
    return leader.results()


def _fork_workers(address: str, count: int, items: Sequence) -> List:
    """Start *count* local worker processes against *address*; returns
    those that started (none where processes cannot be forked).

    Each worker is handed *items*, so the leader sends it unit indices
    only: under ``fork`` the list is inherited without a copy, under
    ``spawn`` it is pickled once per worker rather than once per unit.
    """
    procs: List = []
    try:
        import multiprocessing
        for i in range(count):
            proc = multiprocessing.Process(
                target=_spawn_target, args=(address, i, items),
                daemon=True)
            proc.start()
            procs.append(proc)
    except _SPAWN_ERRORS:
        procs = [p for p in procs if p.is_alive()]
    return procs


def _spawn_target(address: str, index: int, items: Sequence) -> None:
    """Module-level fork target (kept here so ``scheduled_map`` and the
    worker loop stay importable under ``spawn`` start methods)."""
    from .worker import _local_worker
    _local_worker(address, index, items)
