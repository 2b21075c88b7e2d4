"""The sweep engine: one process invocation, a whole design-space grid.

``run_sweep`` executes a :class:`~repro.explore.grid.SweepSpec` in three
phases:

1. **Prepare** — each workload is compiled, profiled and verified
   exactly once (the seed CLI re-did this per grid point);
2. **Warm** — the unique identification obligations implied by the grid
   are planned at *(block, constraint)* granularity, deduplicated by
   cache key, and handed out largest-first by the cluster leader's
   work-stealing :func:`repro.cluster.scheduled_map` — to ``workers``
   forked local processes, to remote ``repro worker`` nodes
   (``listen=``), or inline when serial.  Each worker fills a local
   :class:`~repro.explore.cache.SearchCache` and returns its entries
   (or spills them into the shared persistent store); the parent
   merges them, which shares the memo across processes — and, through
   a ``tcp://`` or ``sqlite:`` store, across nodes — without OS-level
   shared memory.  A worker warms a *chain* (the block's find-best/
   collapse sequence, deep enough for both the iterative rows and the
   area rows' candidate pools) or a *multi*-cut seed (for Optimal
   rows); per-unit wall time and worker identity land in
   ``SweepOutcome.unit_reports``;
3. **Evaluate** — every grid point runs through the ordinary selection
   algorithms with the shared cache.  Identification is a hit by then,
   and everything on top is polynomial — this is where a sweep over
   ``Ninstr`` or over algorithms gains its order of magnitude.  Each
   (model, workload, Nin, Nout) group of points shares one collapse
   chain per block between its iterative and area rows, dropped when
   the group ends; ``use_cache=False`` shares nothing.

The cache is a pure memo (DESIGN.md §8): rows of a cached sweep are
bit-identical to a cold one, which ``tests/explore/test_sweep.py``
asserts and ``benchmarks/bench_sweep.py`` measures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import (
    BlockTooLargeError,
    Constraints,
    find_best_cuts,
    select_clubbing,
    select_iterative,
    select_maxmiso,
    select_optimal,
)
from ..cluster import scheduled_map
from ..core.select_area import select_area_constrained
from ..core.select_iterative import CollapseChain
from ..core.selection import SelectionResult
from ..hwmodel.merit import cut_area
from ..pipeline import Application, prepare_application
from ..store.artifacts import ArtifactStore
from .cache import SearchCache, dfg_digest
from .grid import SweepPoint, SweepSpec, resolve_model

#: A warm task: ("chain", depth) | ("multi", m).
_WarmTask = Tuple[str, int]


def _warm_unit(job: Tuple) -> List[Tuple[Tuple, object]]:
    """Module-level worker: compute one (block, constraint) unit's
    identification obligations into a local cache and return its
    entries (picklable) for the parent to merge.

    When the job names a persistent store spec (a directory path,
    ``sqlite:PATH`` or ``tcp://HOST:PORT``), the worker's cache spills
    every entry straight into that shared store and returns nothing —
    the parent (and any later process, on any node) reads the entries
    back through its own backing store instead of a pickled round-trip.
    The store is closed before returning, so a ``tcp://`` unit never
    leaves its socket behind for the garbage collector."""
    dfg, nin, nout, model_name, limits, tasks, store_spec = job
    backing = ArtifactStore(store_spec) if store_spec is not None else None
    cache = SearchCache(backing=backing)
    try:
        model = resolve_model(model_name)
        cons = Constraints(nin=nin, nout=nout)
        for kind, arg in tasks:
            if kind == "chain":
                # The first *arg* links: the single-cut entries every
                # iterative and area row of the block reads.
                CollapseChain(dfg, cons, model, limits, cache).link(arg - 1)
            elif kind == "multi":
                find_best_cuts(dfg, cons, arg, model, limits, cache=cache)
    finally:
        if backing is not None:
            backing.close()
    return [] if backing is not None else cache.entries()


#: Relative cost weight of one warm task kind, multiplied by the task
#: argument (chain depth / cut count).  Identification is
#: exponential in block size, so the DFG node count dominates the hint;
#: the weights only rank tasks on the *same* block.
_TASK_WEIGHTS = {"chain": 1.0, "multi": 2.0}


def _unit_hint(job: Tuple) -> float:
    """Scheduling size hint of one warm job: DFG node count times the
    summed task weights.  Hints only need to *rank* units — the
    work-stealing scheduler dispatches largest-first so the plausibly
    longest-running (block, constraint) unit starts immediately
    instead of serializing the tail of the warm phase."""
    dfg, _nin, _nout, _model, _limits, tasks, _store = job
    weight = sum(_TASK_WEIGHTS.get(kind, 1.0) * max(1, arg)
                 for kind, arg in tasks)
    return float(dfg.n) * weight


def _task_covered(task: _WarmTask, cache: SearchCache, dfg, cons,
                  model, limits) -> bool:
    """True when a pre-warmed cache already holds this task's entries.
    The root single-cut entry is a sound proxy for a whole chain: the
    warm phase is the only bulk producer and always completes its
    chain, and anything deeper is filled on demand during evaluation."""
    kind, arg = task
    if kind == "chain":
        return cache.has_single(dfg, cons, model, limits)
    return cache.has_multi(dfg, cons, arg, model, limits)


def _plan_units(
    spec: SweepSpec,
    apps: Dict[str, Application],
    cache: SearchCache,
    store_spec: Optional[str] = None,
) -> List[Tuple]:
    """The unique (block, constraint) warm jobs the grid implies,
    deduplicated by (graph digest, ports, model) and filtered down to
    what *cache* (including its persistent backing tier) does not
    already cover — a pre-warmed store empties the warm phase."""
    # Iterative rows read at most Ninstr links of a block's chain, area
    # rows at most max_per_block.
    chain_depth = max(
        max(spec.ninstrs) if "iterative" in spec.algorithms else 0,
        spec.max_per_block if "area" in spec.algorithms else 0)
    # (digest, ports, model) -> [dfg, nin, nout, model_name, task set];
    # digest-identical blocks from different workloads merge their task
    # sets (they may disagree, e.g. on optimal_ok) instead of keeping
    # only the first workload's.
    planned: Dict[Tuple, list] = {}
    models = {name: resolve_model(name) for name in spec.models}
    for model_name in spec.models:
        for workload in spec.workloads:
            app = apps[workload]
            optimal_ok = ("optimal" in spec.algorithms
                          and all(d.n <= spec.max_nodes for d in app.dfgs))
            for dfg in app.dfgs:
                for nin, nout in spec.ports:
                    tasks: List[_WarmTask] = []
                    if chain_depth:
                        tasks.append(("chain", chain_depth))
                    if optimal_ok:
                        tasks.append(("multi", 1))
                    cons = Constraints(nin=nin, nout=nout)
                    tasks = [t for t in tasks
                             if not _task_covered(t, cache, dfg, cons,
                                                  models[model_name],
                                                  spec.limits)]
                    if not tasks:
                        continue
                    key = (dfg_digest(dfg), nin, nout, model_name)
                    entry = planned.get(key)
                    if entry is None:
                        planned[key] = [dfg, nin, nout, model_name,
                                        list(tasks)]
                    else:
                        entry[4].extend(t for t in tasks
                                        if t not in entry[4])
    return [(dfg, nin, nout, model_name, spec.limits, tuple(tasks),
             store_spec)
            for dfg, nin, nout, model_name, tasks in planned.values()]


@dataclass
class SweepOutcome:
    """Everything one sweep produced: rows plus engine telemetry."""

    spec: SweepSpec
    rows: List[dict] = field(default_factory=list)
    prepare_s: float = 0.0
    warm_s: float = 0.0
    points_s: float = 0.0
    warm_units: int = 0
    cache_stats: Optional[dict] = None
    cache_entries: int = 0
    code_memo: Optional[dict] = None
    unit_reports: List[dict] = field(default_factory=list)
    #: Warm units the scheduler quarantined (``status="error"`` reports:
    #: index, worker, attempts, last traceback).  The sweep still
    #: completes — the evaluation phase recomputes a failed unit's
    #: obligations inline through the shared cache, so rows stay
    #: bit-identical; this records that the fabric had to.
    failed_units: List[dict] = field(default_factory=list)

    @property
    def sweep_s(self) -> float:
        """Grid time excluding workload preparation (warm + evaluate)."""
        return self.warm_s + self.points_s

    @property
    def points_per_second(self) -> float:
        """Grid throughput over warm + evaluate time (the headline
        metric of ``benchmarks/bench_sweep.py``)."""
        return len(self.rows) / max(self.sweep_s, 1e-9)


def _run_point(
    point: SweepPoint,
    app: Application,
    spec: SweepSpec,
    model,
    cache: Optional[SearchCache],
    baselines: Optional[Dict[Tuple[str, str], tuple]] = None,
    store: Optional[ArtifactStore] = None,
    backend: Optional[str] = None,
    chains: Optional[List[CollapseChain]] = None,
) -> dict:
    """Evaluate one grid point through the ordinary algorithms;
    *chains* are the point's group's shared collapse chains (``None``:
    each selection builds its own)."""
    limits = spec.limits
    cons = point.constraints
    row = {
        "workload": point.workload,
        "nin": point.nin,
        "nout": point.nout,
        "ninstr": point.ninstr,
        "algorithm": point.algorithm,
        "model": point.model,
        "status": "ok",
    }
    start = time.perf_counter()
    try:
        if point.algorithm == "iterative":
            result = select_iterative(app.dfgs, cons, model, limits,
                                      cache=cache, chains=chains)
        elif point.algorithm == "clubbing":
            result = select_clubbing(app.dfgs, cons, model)
        elif point.algorithm == "maxmiso":
            result = select_maxmiso(app.dfgs, cons, model)
        elif point.algorithm == "optimal":
            result = select_optimal(app.dfgs, cons, model, limits,
                                    max_nodes=spec.max_nodes, cache=cache)
        elif point.algorithm == "area":
            result = select_area_constrained(
                app.dfgs, cons, spec.area_budget, model, limits,
                max_per_block=spec.max_per_block, cache=cache,
                chains=chains)
        else:  # unreachable: SweepSpec validates algorithms
            raise ValueError(f"unknown algorithm {point.algorithm!r}")
    except BlockTooLargeError as exc:
        # The paper's own note: Optimal could not run on the largest
        # adpcm-decode block.  The grid point reports n/a, the sweep
        # continues.
        row.update({
            "status": "n/a",
            "error": str(exc),
            "speedup": None,
            "total_merit": None,
            "num_instructions": None,
            "complete": None,
            "elapsed_s": time.perf_counter() - start,
        })
        return row
    row.update(_result_fields(result, point, spec, model))
    if spec.measure:
        row.update(_measure_fields(app, result, point, spec, model,
                                   baselines, store, backend=backend))
    row["elapsed_s"] = time.perf_counter() - start
    return row


def _measure_fields(app: Application, result: SelectionResult,
                    point: SweepPoint, spec: SweepSpec, model,
                    baselines: Optional[Dict[Tuple[str, str], tuple]],
                    store: Optional[ArtifactStore] = None,
                    backend: Optional[str] = None) -> dict:
    """Execute the point's selection (repro.exec) and report the
    measured — not merely estimated — speedup for the row.  The
    baseline run depends only on (workload, model, n), so it is
    computed once per pair and shared across the grid via *baselines*
    (and, when a *store* is given, across invocations as a persisted
    baseline artifact).  Measurement runs on *backend*; the compiled
    backend's process-wide code memo additionally shares compiled
    blocks across every grid point whose rewritten module leaves a
    block's instruction stream unchanged."""
    from ..exec import measure_selection
    from ..exec.speedup import measure_baseline

    baseline = None
    if baselines is not None:
        key = (point.workload, point.model)
        baseline = baselines.get(key)
        if baseline is None:
            baseline = measure_baseline(app, model, n=spec.n, store=store,
                                        backend=backend)
            baselines[key] = baseline
    measured = measure_selection(app, result, model, n=spec.n,
                                 baseline=baseline, backend=backend)
    return {
        # None instead of inf keeps the JSON artifact strict.
        "measured_speedup": (measured.speedup
                             if math.isfinite(measured.speedup) else None),
        "measured_identical": measured.identical,
        "measured_baseline_cycles": measured.baseline_cycles,
        "measured_cycles": measured.ise_cycles,
        "rewritten_blocks": measured.rewritten_blocks,
        "skipped_cuts": measured.skipped_cuts,
    }


def _result_fields(result: SelectionResult, point: SweepPoint,
                   spec: SweepSpec, model) -> dict:
    fields_: dict = {
        "algorithm_label": result.algorithm,
        "speedup": result.speedup,
        "total_merit": result.total_merit,
        "num_instructions": result.num_instructions,
        "complete": result.complete,
        "cuts_considered": result.stats.cuts_considered,
        "ub_pruned": result.stats.ub_pruned,
        "nin_pruned": result.stats.nin_pruned,
        "cuts": [
            {
                "block": cut.dfg.name,
                "nodes": sorted(cut.nodes),
                "size": cut.size,
                "merit": cut.merit,
                "num_inputs": cut.num_inputs,
                "num_outputs": cut.num_outputs,
            }
            for cut in result.cuts
        ],
    }
    if point.algorithm == "area":
        fields_["area_budget"] = spec.area_budget
        fields_["total_area"] = sum(
            cut_area(cut.dfg, cut.nodes, model) for cut in result.cuts)
    return fields_


def run_sweep(
    spec: SweepSpec,
    use_cache: bool = True,
    cache: Optional[SearchCache] = None,
    workers: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
    store: Optional[ArtifactStore] = None,
    prepare: Optional[Callable] = None,
    backend: Optional[str] = None,
    listen: Optional[str] = None,
    unit_attempts: int = 3,
    unit_deadline: Optional[float] = None,
    cluster_deadline: Optional[float] = None,
) -> SweepOutcome:
    """Execute the whole grid; see the module docstring for the phases.

    Args:
        spec: the declarative grid.
        use_cache: disable to measure the cold baseline (every point
            recomputes identification from scratch, as separate CLI
            invocations would).
        cache: optional pre-warmed cache to reuse across sweeps; a
            fresh one is created when omitted and ``use_cache`` is on.
        workers: local worker processes for the warm phase (default:
            ``REPRO_WORKERS``, else serial); see
            :func:`repro.cluster.scheduled_map`.
        echo: optional progress sink (e.g. ``print``).
        store: optional persistent :class:`repro.store.ArtifactStore`:
            workload preparation, warm-phase search entries and measure
            baselines all read through and spill into it, so a repeated
            sweep skips straight to the (polynomial) evaluation phase.
            Ignored when ``use_cache`` is off — the cold baseline stays
            genuinely cold.
        prepare: optional ``(name, n, unroll) -> Application`` callable
            replacing :func:`prepare_application` — the session passes
            its in-process memo here so a sweep shares Applications
            already prepared by other facade calls.  Ignored when
            ``use_cache`` is off.
        backend: execution backend for profiling and ``measure=True``
            runs (``"walk"``/``"compiled"``; default ``$REPRO_BACKEND``,
            else compiled).  Rows are byte-identical either way.
        listen: ``HOST:PORT`` the leader additionally accepts remote
            ``repro worker --connect`` nodes on; point the store at a
            shared medium (``tcp://`` / ``sqlite:``) so remote workers
            reach the same artifacts.
        unit_attempts: hand-out budget per warm unit before it is
            quarantined into ``failed_units`` (the sweep then
            recomputes its obligations).
        unit_deadline: seconds one warm unit may stay outstanding on
            a worker before the leader requeues it.
        cluster_deadline: overall warm-phase deadline (seconds) while
            workers run; unresolved units are abandoned into
            ``failed_units`` instead of hanging the sweep.
    """
    say = echo or (lambda _line: None)
    outcome = SweepOutcome(spec=spec)
    if not use_cache:
        store = None    # a cold run must not warm-start either
        prepare = None

    start = time.perf_counter()
    apps: Dict[str, Application] = {}
    for name in spec.workloads:
        if prepare is not None:
            apps[name] = prepare(name, spec.n, spec.unroll)
        else:
            apps[name] = prepare_application(name, n=spec.n,
                                             unroll=spec.unroll,
                                             store=store, backend=backend)
        say(f"prepared {name}: {len(apps[name].dfgs)} profiled block(s)")
    outcome.prepare_s = time.perf_counter() - start

    if use_cache and cache is None:
        cache = SearchCache(backing=store)
    elif not use_cache:
        cache = None

    if cache is not None:
        start = time.perf_counter()
        store_spec = (store.spec
                      if store is not None and cache.backing is store
                      else None)
        jobs = _plan_units(spec, apps, cache, store_spec=store_spec)
        outcome.warm_units = len(jobs)
        unit_entries, reports = scheduled_map(
            _warm_unit, jobs, workers=workers,
            size_hints=[_unit_hint(job) for job in jobs], listen=listen,
            store_spec=store_spec, echo=say, max_attempts=unit_attempts,
            unit_deadline=unit_deadline, deadline=cluster_deadline)
        for entries in unit_entries:
            if entries is not None:
                cache.merge(entries)
        outcome.unit_reports = [report.as_dict() for report in reports]
        outcome.failed_units = [report.as_dict() for report in reports
                                if report.status != "ok"]
        if outcome.failed_units:
            # A quarantined unit left a hole in the warm tier.  The
            # evaluation phase only recomputes entries it actually
            # reads, and e.g. iterative selection never re-searches a
            # block it did not select — so deep chain entries of a
            # failed unit would stay missing and the store would
            # diverge from a fault-free run.  Re-run the failed jobs
            # directly, bypassing the dispatch fabric: a unit that
            # failed in transit (killed worker, injected poison, blown
            # deadline) heals here, while a genuinely poisonous
            # compute raises again and stays quarantined.
            healed = 0
            for report in reports:
                if report.status == "ok":
                    continue
                try:
                    entries = _warm_unit(jobs[report.index])
                except Exception:
                    continue
                cache.merge(entries)
                healed += 1
            if healed:
                say(f"cluster: recomputed {healed} quarantined warm "
                    f"unit(s) inline (quarantine report stands)")
        outcome.warm_s = time.perf_counter() - start
        say(f"warmed {len(jobs)} (block, constraint) unit(s) -> "
            f"{len(cache)} cache entries in {outcome.warm_s:.2f}s"
            + (f" ({len(outcome.failed_units)} unit(s) failed)"
               if outcome.failed_units else ""))

    models = {name: resolve_model(name) for name in spec.models}
    baselines: Dict[Tuple[str, str], tuple] = {}
    group: Optional[Tuple] = None
    chains: Optional[List[CollapseChain]] = None
    start = time.perf_counter()
    for point in spec.expand():
        app, model = apps[point.workload], models[point.model]
        if cache is not None and group != (point.model, point.workload,
                                           point.nin, point.nout):
            # A new group: the previous group's chains (and every
            # graph they collapsed) are dropped here.
            group = (point.model, point.workload, point.nin, point.nout)
            chains = [CollapseChain(dfg, point.constraints, model,
                                    spec.limits, cache)
                      for dfg in app.dfgs]
        row = _run_point(point, app, spec, model, cache,
                         baselines=baselines, store=store,
                         backend=backend, chains=chains)
        outcome.rows.append(row)
    outcome.points_s = time.perf_counter() - start

    if cache is not None:
        outcome.cache_stats = cache.stats.as_dict()
        outcome.cache_entries = len(cache)
    # Compiled-backend telemetry: the process-wide code memo the
    # sweep's measurement runs (and any rewritten modules) compiled
    # into or reused — `hits` rising across a sweep is the satellite
    # obligation that rewritten-module region digests share the memo.
    from ..interp.compile import code_memo_stats

    outcome.code_memo = code_memo_stats().as_dict()
    say(f"{len(outcome.rows)} grid point(s) in {outcome.sweep_s:.2f}s "
        f"({outcome.points_per_second:.2f} points/s)")
    return outcome
