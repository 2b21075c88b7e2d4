"""Leader/worker sweep sharding over TCP (DESIGN.md §15).

A sweep is a bag of independent, idempotent *(model, workload, Nin,
Nout)* evaluation groups whose search results are content-addressed —
exactly the shape that shards across machines.  This package is the
fabric:

* :class:`~repro.cluster.leader.ClusterLeader` — owns the unit queue,
  hands units out **largest-first** to whichever worker asks next
  (work stealing by construction: an idle worker pulls the next unit,
  so one oversized Optimal block occupies one worker while every
  other unit drains through the rest), requeues units lost to a dead
  worker, and records per-unit telemetry.  It serves workers on
  :class:`repro.wire.FrameServer`, the same TCP server the store tier
  (``repro store serve``) runs on;
* :func:`~repro.cluster.worker.worker_loop` — the worker side:
  connect, pull, execute, report, repeat (``repro worker --connect``);
* :func:`~repro.cluster.leader.scheduled_map` — the one function that
  dispatches sweep units: start a leader, fork N local worker processes
  (``repro sweep --workers N``), optionally also listen for remote
  workers (``--listen HOST:PORT``), collect everything.  With one
  worker and no listener the leader drains the queue inline — no
  socket, no thread, the same quarantine and report semantics.

Results are bit-identical to a serial sweep regardless of topology:
units are pure functions of their payload, the returned rows and entry
lists are the only communication medium (workers open no store; the
leader alone writes it), and the leader places every group's rows in
grid order.
"""

from .leader import ClusterLeader, scheduled_map
from .worker import worker_loop

__all__ = ["ClusterLeader", "scheduled_map", "worker_loop"]
