"""End-to-end speedup measurement — the paper's Fig. 9/10 numbers, run.

``measure_selection`` takes a prepared application plus a selection
result, rewrites the program (:mod:`repro.exec.rewrite`), executes the
rewritten module on the driver input, checks its outputs bit-for-bit
against the original program's, and returns measured cycle counts next
to the static estimate.  ``run_speedup`` is the whole-table driver
behind the ``repro speedup`` CLI verb and ``benchmarks/bench_speedup.py``.
``measure_batch`` is the serving-scale variant: one prepared workload
over N input lanes per call (DESIGN.md §12), every lane verified
bit-for-bit against a golden reference image.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ..core import (
    BlockTooLargeError,
    Constraints,
    SearchLimits,
    select_area_constrained,
    select_clubbing,
    select_iterative,
    select_maxmiso,
    select_optimal,
)
from ..core.selection import SelectionResult
from ..hwmodel.latency import CostModel
from ..interp.batch import (
    BatchResult,
    driver_lanes,
    image_verifier,
    run_batch,
)
from ..interp.interpreter import ExecutionLimitExceeded
from ..interp.memory import Memory, TrapError
from ..pipeline import Application, prepare_application
from ..workloads.registry import get_workload
from .cycles import (
    CycleReport,
    block_cycles,
    module_block_costs,
    run_with_cycles,
)
from .rewrite import rewrite_module


@dataclass
class SpeedupRow:
    """One measured workload: the unit of the Fig. 9/10-style table.

    ``measured_speedup`` is ``baseline_cycles / ise_cycles`` from actual
    execution; ``estimated_speedup`` is the selection's static estimate
    (identical when the measurement input matches the profiling input);
    ``identical`` asserts that every memory word and the return value of
    the rewritten run matched the baseline bit-for-bit.  ``status`` is
    ``"ok"`` normally and ``"n/a"`` when the selection itself refused
    the workload (Optimal on an oversized block — the paper's own
    Fig. 11 note); ``n/a`` rows carry zeros and the refusal in
    ``error``.
    """

    workload: str
    algorithm: str
    nin: int
    nout: int
    ninstr: int
    n: int
    num_instructions: int
    rewritten_blocks: int
    skipped_cuts: int
    baseline_cycles: float
    ise_cycles: float
    measured_speedup: float
    estimated_speedup: float
    total_merit: float
    identical: bool
    steps_baseline: int
    steps_ise: int
    status: str = "ok"
    error: str = ""

    def as_dict(self) -> dict:
        """Flat JSON-ready record (benchmark artifact rows); non-finite
        speedups become ``None`` so artifacts stay strict JSON."""
        record = asdict(self)
        for key in ("measured_speedup", "estimated_speedup"):
            if not math.isfinite(record[key]):
                record[key] = None
        return record


@dataclass
class MeasuredSpeedup:
    """Raw measurement of one (application, selection) pair."""

    baseline_cycles: float
    ise_cycles: float
    identical: bool
    num_instructions: int
    rewritten_blocks: int
    skipped_cuts: int
    steps_baseline: int
    steps_ise: int

    @property
    def speedup(self) -> float:
        """Measured cycles ratio (inf when the rewritten run is free)."""
        if self.ise_cycles <= 0:
            return math.inf
        return self.baseline_cycles / self.ise_cycles


def measure_baseline(app: Application, model: Optional[CostModel] = None,
                     n: Optional[int] = None,
                     backend: Optional[str] = None):
    """The *unmodified* program's accounting at input size *n*.

    Returns ``(CycleReport, Memory)`` — the baseline cycles plus a
    fresh copy of the final memory image the rewritten run is compared
    against.  At the size *app* was profiled at, the profiling run is
    the baseline run: both are derived from what
    :func:`repro.pipeline.prepare_application` kept, bit-identical to
    executing the program again.  Any other size — or an app that kept
    no run (built by hand, or pickled by an older store) — executes the
    program once on *backend* (both backends give bit-identical
    reports).
    """
    workload = get_workload(app.name)
    model = model or CostModel()
    size = n if n is not None else workload.default_n
    memory = Memory(app.module)
    if app.profile_image is not None and size == app.profile_n:
        for name, prefix in app.profile_image.items():
            memory.arrays[name][:len(prefix)] = prefix
        costs = module_block_costs(app.module, model)
        report = CycleReport(cycles=block_cycles(app.profile.counts, costs),
                             steps=app.profile.steps,
                             value=app.profile_value)
        return report, memory
    args = workload.driver(memory, size)
    report = run_with_cycles(app.module, app.entry, args,
                             memory=memory, model=model, backend=backend)
    return report, memory


def measure_selection(
    app: Application,
    selection: SelectionResult,
    model: Optional[CostModel] = None,
    n: Optional[int] = None,
    backend: Optional[str] = None,
) -> MeasuredSpeedup:
    """Rewrite *app* with *selection* and measure both programs.

    Args:
        app: prepared application (its module is left untouched; the
            rewrite happens on a clone).
        selection: any ``SelectionResult`` over ``app.dfgs``.
        model: cost model — pass the one the selection used.
        n: measurement input size (default: the workload's); choosing a
            different size than the profiling run shows how well the
            profile generalises.
        backend: execution backend for both runs (``"walk"`` or
            ``"compiled"``; default ``$REPRO_BACKEND``, else compiled)
            — measurements are bit-identical across backends.

    Returns:
        A :class:`MeasuredSpeedup`; ``identical`` is True iff the
        rewritten program's return value and every memory word matched
        the baseline and the workload's golden model accepted the output.
    """
    workload = get_workload(app.name)
    model = model or CostModel()
    size = n if n is not None else workload.default_n

    rewritten = rewrite_module(app.module, selection.cuts, model)

    base, base_memory = measure_baseline(app, model, size, backend=backend)

    ise_memory = Memory(rewritten.module)
    ise_args = workload.driver(ise_memory, size)
    ise = run_with_cycles(rewritten.module, app.entry, ise_args,
                          memory=ise_memory, model=model,
                          cost_overrides=rewritten.block_costs,
                          backend=backend)

    identical = (base.value == ise.value
                 and base_memory.arrays == ise_memory.arrays)
    if identical:
        try:
            workload.verify(ise_memory, size)
        except AssertionError:
            identical = False

    return MeasuredSpeedup(
        baseline_cycles=base.cycles,
        ise_cycles=ise.cycles,
        identical=identical,
        num_instructions=rewritten.num_instructions,
        rewritten_blocks=rewritten.rewritten_blocks,
        skipped_cuts=len(rewritten.skipped),
        steps_baseline=base.steps,
        steps_ise=ise.steps,
    )


@dataclass
class BatchMeasurement:
    """One batched throughput measurement (``Session.run_batch``).

    ``baseline`` holds the per-lane results of executing the prepared
    module over every lane; ``rewritten`` is the same batch on the
    ISE-rewritten module when a selection was given, else ``None``.
    ``identical`` is True iff the reference image from
    :func:`measure_baseline` passed the workload's verifier **and**
    every lane of every batch matched it bit-for-bit (value and all
    memory words).  Timing covers the batch loop including the
    per-lane image check, and in a cold call the codegen of the module
    it runs.
    """

    workload: str
    entry: str
    n: int
    count: int
    backend: str
    baseline: BatchResult
    baseline_seconds: float
    identical: bool
    rewritten: Optional[BatchResult] = None
    rewritten_seconds: float = 0.0

    @property
    def inputs_per_second(self) -> float:
        """Baseline batch throughput (lanes over wall seconds)."""
        return self.count / max(self.baseline_seconds, 1e-9)

    @property
    def rewritten_inputs_per_second(self) -> float:
        """Rewritten batch throughput; 0.0 without a rewritten batch."""
        if self.rewritten is None:
            return 0.0
        return self.count / max(self.rewritten_seconds, 1e-9)

    def as_dict(self) -> dict:
        """Flat JSON-ready record for benchmark artifacts."""
        return {
            "workload": self.workload,
            "entry": self.entry,
            "n": self.n,
            "count": self.count,
            "backend": self.backend,
            "baseline_seconds": self.baseline_seconds,
            "inputs_per_second": self.inputs_per_second,
            "lanes_ok": self.baseline.ok_count,
            "lanes_verified": self.baseline.verified_count,
            "total_steps": self.baseline.total_steps,
            "identical": self.identical,
            "rewritten_seconds": (self.rewritten_seconds
                                  if self.rewritten is not None else None),
            "rewritten_inputs_per_second": (
                self.rewritten_inputs_per_second
                if self.rewritten is not None else None),
            "rewritten_lanes_verified": (
                self.rewritten.verified_count
                if self.rewritten is not None else None),
        }


def measure_batch(app: Application, count: int,
                  model: Optional[CostModel] = None,
                  n: Optional[int] = None,
                  selection: Optional[SelectionResult] = None,
                  backend: Optional[str] = None) -> BatchMeasurement:
    """Execute one prepared workload over *count* input lanes.

    The serving-scale counterpart of :func:`measure_selection`: the
    driver runs **once** (:func:`repro.interp.batch.driver_lanes`), the
    reference image from :func:`measure_baseline` (the app's profiling
    run at its profiling size) is checked against the workload's golden
    model, and then the full batch runs with every lane held to it
    bit-for-bit (:func:`repro.interp.batch.image_verifier`) — so the
    reported throughput is for *verified* lanes, not unchecked ones.
    With a *selection* the ISE-rewritten module runs the same lanes
    against the same reference image (rewrites preserve globals and, by
    the bit-exactness obligation, the final memory state).  A cold
    call's ``baseline_seconds`` includes compiling the baseline module,
    as ``rewritten_seconds`` includes compiling the rewritten one.
    """
    workload = get_workload(app.name)
    model = model or CostModel()
    size = n if n is not None else workload.default_n
    lanes = driver_lanes(app.module, workload.driver, size, count)

    try:
        report, reference = measure_baseline(app, model, size,
                                             backend=backend)
    except (TrapError, ExecutionLimitExceeded) as exc:
        raise RuntimeError(
            f"batch reference lane for {app.name!r} faulted: {exc}"
        ) from exc
    try:
        workload.verify(reference, size)
        identical = True
    except AssertionError:
        identical = False
    check = image_verifier(report.value, reference.arrays)

    start = time.perf_counter()
    baseline = run_batch(app.module, app.entry, lanes, backend=backend,
                         verify=check)
    baseline_seconds = time.perf_counter() - start
    identical = identical and baseline.verified_count == len(lanes)

    rewritten_batch = None
    rewritten_seconds = 0.0
    if selection is not None:
        rewritten = rewrite_module(app.module, selection.cuts, model)
        start = time.perf_counter()
        rewritten_batch = run_batch(rewritten.module, app.entry, lanes,
                                    backend=backend, verify=check)
        rewritten_seconds = time.perf_counter() - start
        identical = (identical
                     and rewritten_batch.verified_count == len(lanes))

    return BatchMeasurement(
        workload=app.name,
        entry=app.entry,
        n=size,
        count=count,
        backend=baseline.backend,
        baseline=baseline,
        baseline_seconds=baseline_seconds,
        identical=identical,
        rewritten=rewritten_batch,
        rewritten_seconds=rewritten_seconds,
    )


#: The selection algorithms, in CLI order: the one list behind
#: ``repro speedup --algo`` and every sweep grid's algorithm axis.
ALGORITHMS = ("iterative", "optimal", "clubbing", "maxmiso", "area")


def dispatch_selection(algorithm, dfgs, cons, model, limits, max_nodes,
                       area_budget, area_method="knapsack", cache=None,
                       max_per_block=32, chains=None):
    """Run one selection algorithm by name (all five families) — the
    single dispatcher behind ``Session.select``, ``repro select``,
    ``repro speedup`` and every sweep point, so every path wires the
    same knobs.  *chains* are shared collapse chains for the iterative
    and area families (a sweep group's); *max_per_block* is the area
    family's candidate-pool depth."""
    if algorithm == "iterative":
        return select_iterative(dfgs, cons, model, limits, cache=cache,
                                chains=chains)
    if algorithm == "optimal":
        return select_optimal(dfgs, cons, model, limits,
                              max_nodes=max_nodes, cache=cache)
    if algorithm == "clubbing":
        return select_clubbing(dfgs, cons, model)
    if algorithm == "maxmiso":
        return select_maxmiso(dfgs, cons, model)
    if algorithm == "area":
        return select_area_constrained(dfgs, cons, area_budget, model,
                                       limits, method=area_method,
                                       max_per_block=max_per_block,
                                       cache=cache, chains=chains)
    known = ", ".join(ALGORITHMS)
    raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}")


def run_speedup(
    workloads: Sequence[str],
    nin: int = 4,
    nout: int = 2,
    ninstr: int = 16,
    algorithm: str = "iterative",
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    n: Optional[int] = None,
    unroll: Optional[int] = None,
    max_nodes: int = 40,
    area_budget: float = 2.0,
    area_method: str = "knapsack",
    cache=None,
    prepare=None,
    backend: Optional[str] = None,
) -> List[SpeedupRow]:
    """Measure end-to-end speedup for every workload in *workloads*.

    For each workload: prepare (compile, profile, verify), select with
    *algorithm* under ``(nin, nout, ninstr)``, rewrite, execute both
    programs on the same input, and assemble a :class:`SpeedupRow`.
    Profiling and measurement share the input size *n*, so measured
    saved cycles equal the selection's merit exactly; the measured
    speedup *ratio* is usually a little below the static estimate
    because the dynamic baseline counts every executed instruction
    while the static one counts only profiled DFG blocks (DESIGN.md
    §9).  ``identical=False`` always means a miscompile.  ``max_nodes``
    guards the ``optimal`` algorithm (``BlockTooLargeError`` beyond
    it); ``area_budget`` (MAC units) applies to ``area``.

    ``cache``/``prepare`` plug the persistent layer in (normally via
    :meth:`repro.session.Session.speedup` — ``prepare`` is a ``(name,
    n, unroll) -> Application`` callable such as the session's
    memoised, store-backed :meth:`~repro.session.Session.prepare`):
    preparation and identification warm-start from earlier
    invocations, and the rows stay bit-identical either way.  No
    baseline program runs: the app's profiling run at the same *n* is
    the baseline run (:func:`measure_baseline`).
    ``backend`` picks the execution engine for every measurement run;
    the resulting table and JSON artifacts are byte-identical under
    both backends, which CI's interpreter gate enforces.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: "
                         + ", ".join(ALGORITHMS))
    model = model or CostModel()
    rows: List[SpeedupRow] = []
    for name in workloads:
        workload = get_workload(name)
        size = n if n is not None else workload.default_n
        if prepare is not None:
            app = prepare(name, size, unroll)
        else:
            app = prepare_application(name, n=size, unroll=unroll,
                                      backend=backend)
        constraints = Constraints(nin=nin, nout=nout, ninstr=ninstr)
        try:
            selection = dispatch_selection(
                algorithm, app.dfgs, constraints, model, limits,
                max_nodes, area_budget, area_method=area_method,
                cache=cache)
        except BlockTooLargeError as exc:
            # Degrade per workload (like `repro compare`'s n/a row)
            # instead of aborting the whole table.
            rows.append(SpeedupRow(
                workload=name, algorithm="Optimal", nin=nin, nout=nout,
                ninstr=ninstr, n=size, num_instructions=0,
                rewritten_blocks=0, skipped_cuts=0, baseline_cycles=0.0,
                ise_cycles=0.0, measured_speedup=0.0,
                estimated_speedup=0.0, total_merit=0.0, identical=True,
                steps_baseline=0, steps_ise=0, status="n/a",
                error=str(exc)))
            continue
        measured = measure_selection(app, selection, model, n=size,
                                     backend=backend)
        rows.append(SpeedupRow(
            workload=name,
            algorithm=selection.algorithm,
            nin=nin,
            nout=nout,
            ninstr=ninstr,
            n=size,
            num_instructions=measured.num_instructions,
            rewritten_blocks=measured.rewritten_blocks,
            skipped_cuts=measured.skipped_cuts,
            baseline_cycles=measured.baseline_cycles,
            ise_cycles=measured.ise_cycles,
            measured_speedup=measured.speedup,
            estimated_speedup=selection.speedup,
            total_merit=selection.total_merit,
            identical=measured.identical,
            steps_baseline=measured.steps_baseline,
            steps_ise=measured.steps_ise,
        ))
    return rows


def format_speedup_table(rows: Sequence[SpeedupRow]) -> str:
    """Fig. 9/10-style text table: one line per measured workload."""
    alg_w = max([10] + [len(row.algorithm) for row in rows])
    header = (f"{'workload':14s} {'algorithm':{alg_w}s} {'instrs':>6s} "
              f"{'base cycles':>12s} {'ISE cycles':>12s} "
              f"{'measured':>9s} {'estimated':>9s}  bit-exact")
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.status != "ok":
            lines.append(f"{row.workload:14s} {row.algorithm:{alg_w}s} "
                         f"n/a ({row.error})")
            continue
        lines.append(
            f"{row.workload:14s} {row.algorithm:{alg_w}s} "
            f"{row.num_instructions:6d} "
            f"{row.baseline_cycles:12.0f} {row.ise_cycles:12.0f} "
            f"{row.measured_speedup:8.3f}x {row.estimated_speedup:8.3f}x"
            f"  {'yes' if row.identical else 'NO'}")
    return "\n".join(lines)
