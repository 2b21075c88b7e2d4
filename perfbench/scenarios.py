"""The benchmark's three workloads: set-up, one timed repetition, oracle.

Every workload times two operations per repetition, a cold one and a
warm one, and returns them as ``cold_s`` / ``warm_s`` with an
``ise_speedup`` figure and the counts its per-layer table needs:

* :class:`Toolchain` -- ``Session(store=<fresh dir>).speedup`` over all
  eight programs after ``clear_code_memo()`` (cold), then the same call
  from a new ``Session`` on the same store (warm).
* :class:`Sweep` -- the 256-point grid (8 programs x Nin 2-5 x Nout 1-2
  x Ninstr 4, 16 x iterative/area) through ``run_sweep`` with two worker
  processes and a fresh search cache (cold), then again on the now
  filled cache (warm: evaluation only).
* :class:`Batch` -- ``measure_batch`` of every program over fixed lane
  counts, baseline and ISE-rewritten module on the same lanes, right
  after ``clear_code_memo()`` (cold: includes codegen), then again
  (warm).

Correctness is checked outside the timed regions; an op (a speedup
row, a grid point, a lane) that fails its oracle counts in ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from typing import Dict, List, Optional

from repro.exec import speedup as speedup_mod
from repro.explore.cache import SearchCache
from repro.explore.grid import SweepSpec
from repro.explore.runner import run_sweep
from repro.interp.compile import clear_code_memo, code_memo_stats
from repro.session import Session
import repro.cluster  # noqa: F401  (imported lazily by the program)

from calibration import Clock

BACKEND = "compiled"

#: Lanes per program, chosen so that each program's ISE-rewritten batch
#: takes a similar time (~0.15 s at its default size on a 2-CPU x86
#: container).  Fixed: never derived from elapsed time or input size.
LANES = {"adpcm-decode": 3, "adpcm-encode": 2, "gsm": 1, "fir": 4,
         "crc32": 3, "g721": 2, "sha": 3, "mixer": 5}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _digest(rows: List[dict]) -> str:
    """Digest of sweep rows without their wall-clock column."""
    stripped = [{k: v for k, v in row.items() if k != "elapsed_s"}
                for row in rows]
    blob = json.dumps(stripped, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _dirs, names in os.walk(root) for name in names)


class Toolchain:
    """Cold and warm ``repro speedup --workloads all`` (module doc)."""

    name = "toolchain"
    workers = 1

    def __init__(self, sizes: Dict[str, int], workdir: str) -> None:
        self.sizes = sizes
        self.workdir = workdir
        self.rows: Optional[List[dict]] = None
        self.store: Optional[str] = None

    def setup(self) -> None:
        """Nothing but the store root: the cold pass is the workload."""
        os.makedirs(self.workdir, exist_ok=True)

    def _speedup(self, clock: Clock, name: str, session: Session,
                 sample: dict) -> list:
        rows = []
        for program, n in self.sizes.items():
            with clock.op(name, sample):
                rows.extend(session.speedup([program], n=n))
        return rows

    def rep(self, tracer) -> dict:
        sample: dict = {}
        clock = Clock(tracer)
        store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        clear_code_memo()
        cold = Session(store=store, workers=1, backend=BACKEND)
        cold_rows = self._speedup(clock, "cold_s", cold, sample)
        store_bytes = _dir_bytes(store)
        warm = Session(store=store, workers=1, backend=BACKEND)
        warm_rows = self._speedup(clock, "warm_s", warm, sample)

        records = [row.as_dict() for row in cold_rows]
        if self.rows is None:
            self.rows = records
        cold_stats, warm_stats = cold.stats()["store"], warm.stats()["store"]
        ops = cold_rows + warm_rows
        bad = sum(1 for row in ops
                  if row.status != "ok" or not row.identical)
        notes = []
        if cold_stats["hits"] or warm_stats["misses"]:
            notes.append(f"store not cold/warm: cold hits "
                         f"{cold_stats['hits']}, warm misses "
                         f"{warm_stats['misses']}")
        if [row.as_dict() for row in warm_rows] != records:
            notes.append("warm rows differ from cold rows")
        if records != self.rows:
            notes.append("rows differ from the first repetition")
        if notes:
            bad = len(ops)
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = store

        memo = code_memo_stats()
        sample.update(
            attempted=len(ops), failed=bad, notes=notes,
            ise_speedup=geomean(row.measured_speedup for row in cold_rows),
            layers={
                "exec.steps_baseline": sum(r.steps_baseline for r in ops),
                "exec.steps_ise": sum(r.steps_ise for r in ops),
                "store.hits": cold_stats["hits"] + warm_stats["hits"],
                "store.misses": cold_stats["misses"] + warm_stats["misses"],
                "store.puts": cold_stats["puts"] + warm_stats["puts"],
                "store.bytes": store_bytes,
                "interp.compile.compiled": memo.compiled,
                "interp.compile.hits": memo.hits,
                "interp.compile.regions": memo.regions,
                "interp.compile.fallbacks": memo.fallbacks,
            })
        return sample

    def check(self, reps: int) -> dict:
        """``Session.check`` of every program (IR verifier, selection
        checker on every cut, rewrite check); a program that fails it
        fails its rows in every repetition."""
        session = Session(store=self.store, workers=1, backend=BACKEND)
        failing = [program for program, n in self.sizes.items()
                   if not session.check(program, n=n).ok]
        shutil.rmtree(self.store, ignore_errors=True)
        return {"failed": 2 * reps * len(failing),
                "notes": [f"check failed: {p}" for p in failing]}


class Sweep:
    """The 256-point design-space grid, two workers (module doc)."""

    name = "sweep"
    workers = 2

    def __init__(self, sizes: Dict[str, int], workdir: str) -> None:
        self.sizes = sizes
        self.spec = SweepSpec(
            workloads=tuple(sizes),
            ports=tuple((nin, nout) for nin in (2, 3, 4, 5)
                        for nout in (1, 2)),
            ninstrs=(4, 16), algorithms=("iterative", "area"))
        self.points = len(self.spec.expand())
        self.digest: Optional[str] = None
        self.apps: dict = {}

    def setup(self) -> None:
        """Prepare (compile, optimise, profile) every program."""
        session = Session(store=False, workers=1, backend=BACKEND)
        self.apps = {program: session.prepare(program, n=n)
                     for program, n in self.sizes.items()}

    def _sweep(self, cache: SearchCache, workers: int):
        return run_sweep(self.spec, cache=cache, workers=workers,
                         backend=BACKEND,
                         prepare=lambda name, _n, _unroll: self.apps[name])

    def rep(self, tracer) -> dict:
        sample: dict = {}
        clock = Clock(tracer)
        cache = SearchCache()
        with clock.op("cold_s", sample):
            cold = self._sweep(cache, self.workers)
        with clock.op("warm_s", sample):
            warm = self._sweep(cache, self.workers)

        digest = _digest(cold.rows)
        if self.digest is None:
            self.digest = digest
        notes = []
        if _digest(warm.rows) != digest:
            notes.append("warm sweep rows differ from cold sweep rows")
        if digest != self.digest:
            notes.append("sweep rows differ from the first repetition")
        if cold.failed_units:
            notes.append(f"{len(cold.failed_units)} warm unit(s) failed")
        ops = len(cold.rows) + len(warm.rows)
        busy = sum(r["elapsed_s"] for r in cold.unit_reports)
        capacity = cold.warm_s * self.workers
        sample.update(
            attempted=ops, failed=ops if notes else 0, notes=notes,
            ise_speedup=geomean(row["speedup"] for row in cold.rows),
            layers={
                "explore.warm_s": cold.warm_s,
                "explore.points_s": cold.points_s + warm.points_s,
                "explore.warm_units": cold.warm_units,
                "explore.cache.hits": cold.cache_stats["hits"]
                + warm.cache_stats["hits"],
                "explore.cache.misses": cold.cache_stats["misses"]
                + warm.cache_stats["misses"],
                "explore.cache.entries": cold.cache_entries,
                "core.parallel.busy_s": busy,
                "core.parallel.idle_frac": (1.0 - busy / capacity
                                            if capacity > 0 else 0.0),
                "core.parallel.max_unit_s": max(
                    (r["elapsed_s"] for r in cold.unit_reports),
                    default=0.0),
            })
        return sample

    def check(self, reps: int) -> dict:
        """The serial sweep must give the same rows as the parallel one."""
        serial = _digest(self._sweep(SearchCache(), 1).rows)
        if serial == self.digest:
            return {"failed": 0, "notes": []}
        return {"failed": 2 * reps * self.points,
                "notes": ["parallel sweep rows differ from the serial "
                          "sweep's"]}


class Batch:
    """Baseline and ISE-rewritten batches of every program (module doc)."""

    name = "batch"
    workers = 1

    def __init__(self, sizes: Dict[str, int], workdir: str) -> None:
        self.sizes = sizes
        self.lanes = dict(LANES)
        self.apps: dict = {}
        self.selections: dict = {}

    def setup(self) -> None:
        """Prepare every program and select its instructions (iterative,
        Nin 4, Nout 2, Ninstr 16)."""
        session = Session(store=False, workers=1, backend=BACKEND)
        self.apps = {program: session.prepare(program, n=n)
                     for program, n in self.sizes.items()}
        self.selections = {program: session.select(program, n=n)
                           for program, n in self.sizes.items()}

    def _pass(self, clock: Clock, name: str, sample: dict) -> list:
        results = []
        for program, n in self.sizes.items():
            with clock.op(name, sample):
                results.append(speedup_mod.measure_batch(
                    self.apps[program], self.lanes[program], n=n,
                    selection=self.selections[program], backend=BACKEND))
        return results

    def rep(self, tracer) -> dict:
        sample: dict = {}
        clock = Clock(tracer)
        clear_code_memo()
        cold = self._pass(clock, "cold_s", sample)
        warm = self._pass(clock, "warm_s", sample)

        attempted = failed = 0
        for result in cold + warm:
            lanes = 2 * result.count
            attempted += lanes
            if not result.identical:
                failed += lanes
            else:
                failed += lanes - (result.baseline.verified_count
                                   + result.rewritten.verified_count)
        memo = code_memo_stats()
        sample.update(
            attempted=attempted, failed=failed, notes=[],
            ise_speedup=geomean(r.baseline_seconds / r.rewritten_seconds
                                for r in warm),
            per_program={r.workload: (r.count / r.baseline_seconds,
                                      r.count / r.rewritten_seconds)
                         for r in warm},
            layers={
                "interp.batch.steps_baseline": sum(
                    r.baseline.total_steps for r in cold + warm),
                "interp.batch.steps_rewritten": sum(
                    r.rewritten.total_steps for r in cold + warm),
                "interp.compile.compiled": memo.compiled,
                "interp.compile.hits": memo.hits,
                "interp.compile.regions": memo.regions,
                "interp.compile.fallbacks": memo.fallbacks,
            })
        return sample

    def check(self, reps: int) -> dict:
        """Every lane is checked inside ``measure_batch`` already."""
        return {"failed": 0, "notes": []}


WORKLOADS = {cls.name: cls for cls in (Toolchain, Sweep, Batch)}
