"""The worker-count knob and the per-unit telemetry record.

A sweep's evaluation groups (one per *(model, workload, Nin, Nout)*:
walk each block's collapse chain, then evaluate the group's points on
it) are the only parallel work in the toolchain, and one scheduler
runs them: :func:`repro.cluster.scheduled_map`, the cluster
leader with optional forked local workers.  This module holds the two
small pieces that scheduler shares with its callers:

* :func:`resolve_workers` — how many worker processes ``workers=`` (or
  the ``REPRO_WORKERS`` environment variable) asks for;
* :class:`UnitReport` — who ran one unit, for how long, and whether it
  ended quarantined (``SweepOutcome.unit_reports``).

The selection strategies themselves are plain serial loops; a group
unit runs them one after another on its chains.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Optional

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Number of worker processes to use.

    Precedence: explicit argument, then ``REPRO_WORKERS``, then 1
    (serial).  ``0`` and negative values mean "one per CPU".  An
    unparsable ``REPRO_WORKERS`` value falls back to serial with a
    one-line warning on stderr — silently ignoring a typo'd knob cost
    real debugging time.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            print(f"warning: unparsable {WORKERS_ENV}={env!r} ignored; "
                  f"running serial (use an integer; 0 = one per CPU)",
                  file=sys.stderr)
            return 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


@dataclass
class UnitReport:
    """Telemetry of one scheduled unit: who ran it, for how long.

    ``status`` is ``"ok"`` for a completed unit or ``"error"`` for one
    the cluster leader quarantined after exhausting its attempts
    (``error`` then carries the last traceback/reason and ``attempts``
    how many times it was handed out)."""

    index: int
    size_hint: float
    elapsed_s: float
    worker: str
    status: str = "ok"
    attempts: int = 1
    error: Optional[str] = None

    def as_dict(self) -> dict:
        """Flat JSON-ready record (the sweep artifact's telemetry).  The
        fields are scalars, so a shallow copy of them in declaration
        order is the record; ``dataclasses.asdict`` would deep-copy."""
        return dict(self.__dict__)
