"""The sweep engine: one process invocation, a whole design-space grid.

``run_sweep`` executes a :class:`~repro.explore.grid.SweepSpec` in two
phases:

1. **Prepare** — each workload is compiled, profiled and verified
   exactly once (the seed CLI re-did this per grid point);
2. **Evaluate** — the points fall into *evaluation groups*, one per
   (model, workload, Nin, Nout), whose iterative and area rows read one
   find-best/collapse chain per block
   (:class:`~repro.core.select_iterative.CollapseChain`).
   :func:`_evaluate_group` evaluates a group's points on those shared
   chains, searching a link or a multi-cut value only when a row first
   reads it.  Every group is a unit, handed out largest-first by
   :func:`repro.cluster.scheduled_map` — to ``workers`` forked local
   processes, to remote ``repro worker`` nodes (``listen=``), or inline
   when serial.  A unit runs on a local
   :class:`~repro.explore.cache.SearchCache` seeded with the entries
   the leader (with its persistent store) held for the keys the group's
   rows can read, and returns its rows and the entries that grew; the
   leader merges the entries — the only code that writes search
   results to the persistent store.  The leader evaluates a group
   itself only when its unit was quarantined, on the shared cache; its
   rows read the same keys a unit's would, so the store ends with a
   fault-free run's keys.  Rows land in ``spec.expand()`` order either
   way.

``use_cache=False`` shares nothing: every point recomputes its
identification from scratch, as separate CLI invocations would.  The
cache is a pure memo (DESIGN.md §8): rows of a cached sweep are
bit-identical to a cold one, which ``tests/explore/test_sweep.py``
asserts and ``benchmarks/bench_sweep.py`` measures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..cluster import scheduled_map
from ..core import BlockTooLargeError, Constraints
from ..core.select_iterative import CollapseChain
from ..core.selection import SelectionResult
# Not called here (points select through ``dispatch_selection``), but
# kept importable from this module: perfbench/tracing.py wraps these
# names in this module and in repro.exec.speedup by ``getattr``.
from ..core import select_area_constrained, select_iterative  # noqa: F401
from ..exec.speedup import dispatch_selection
from ..hwmodel.latency import CostModel
from ..hwmodel.merit import cut_area
from ..pipeline import Application, prepare_application
from ..store.artifacts import ArtifactStore
from .cache import CacheStats, SearchCache
from .grid import SweepPoint, SweepSpec, resolve_model

class _Group(NamedTuple):
    """One evaluation group: the points of one (model, workload, Nin,
    Nout), in ``spec.expand()`` order, with the cache entries its unit
    starts from (those the leader held for the keys its rows can
    read).  It carries the whole :class:`Application` because
    ``measure=True`` rows execute the rewritten program, and the
    sweep's own cost-model object, whose per-model memos forked
    workers inherit."""

    app: Application
    spec: SweepSpec
    model: CostModel
    points: Tuple[SweepPoint, ...]
    backend: Optional[str]
    entries: Tuple[Tuple[Tuple, object], ...]


def _reads_chains(spec: SweepSpec) -> bool:
    """Whether a group's rows read collapse chains: iterative rows
    read their first links, area rows their first ``max_per_block``."""
    return "iterative" in spec.algorithms or "area" in spec.algorithms


def _evaluate_group(job: _Group, cache: SearchCache) -> List[dict]:
    """Evaluate *job*'s points on *cache*, sharing one collapse chain
    per block between its iterative and area rows; every search runs
    on demand, when a row first reads it."""
    app, spec, model, points = job.app, job.spec, job.model, job.points
    cons = Constraints(nin=points[0].nin, nout=points[0].nout)
    chains = ([CollapseChain(dfg, cons, model, spec.limits, cache)
               for dfg in app.dfgs] if _reads_chains(spec) else None)
    return [_run_point(point, app, spec, model, cache,
                       backend=job.backend, chains=chains)
            for point in points]


def _group_unit(job: _Group) -> Tuple[List[dict], List[Tuple], CacheStats]:
    """Module-level worker: evaluate one group on a fresh local cache
    seeded with the job's entries, and return ``(rows, the entries
    that grew, that cache's stats)`` for the leader.  A unit touches no
    store: the leader's merge is the only writer of search results."""
    cache = SearchCache()
    cache.store.update(job.entries)
    rows = _evaluate_group(job, cache)
    seeded = dict(job.entries)
    return (rows, [(key, value) for key, value in cache.entries()
                   if seeded.get(key) is not value], cache.stats)


def _unit_hint(job: _Group) -> float:
    """Scheduling size hint of one group unit: the workload's summed
    DFG node count (identification is exponential in block size).
    Hints only need to *rank* units — the work-stealing scheduler
    dispatches largest-first so the plausibly longest-running group
    starts immediately instead of serializing the tail of the sweep."""
    return float(sum(dfg.n for dfg in job.app.dfgs))


def _held_entries(cache: SearchCache, dfgs, cons, model, limits,
                  chains: bool, max_cuts: int
                  ) -> Tuple[Tuple[Tuple, object], ...]:
    """The entries *cache* (and its persistent tier) holds for the keys
    a group's rows can read, each key peeked once: every block's
    ``chain`` entry when *chains*, and its ``multi`` entries of
    1..*max_cuts* cuts up to the first absent one (Optimal asks for
    m + 1 cuts of a block only after m)."""
    entries = []
    for dfg in dfgs:
        if chains:
            key = cache.key("chain", dfg, cons, model, limits)
            value = cache.peek(key)
            if value is not None:
                entries.append((key, value))
        for cuts in range(1, max_cuts + 1):
            key = cache.key("multi", dfg, cons, model, limits, cuts)
            value = cache.peek(key)
            if value is None:
                break
            entries.append((key, value))
    return tuple(entries)


def _plan_units(
    spec: SweepSpec,
    apps: Dict[str, Application],
    cache: SearchCache,
    models: Dict[str, CostModel],
    backend: Optional[str] = None,
) -> List[_Group]:
    """Every evaluation group of the grid, in ``spec.expand()`` order,
    each carrying the entries *cache* (including its persistent backing
    tier) holds for the keys its rows can read, so a unit searches only
    what neither the cache nor the store has."""
    chains = _reads_chains(spec)
    jobs: List[_Group] = []
    for (model_name, workload, nin, nout), points in groupby(
            spec.expand(),
            key=lambda p: (p.model, p.workload, p.nin, p.nout)):
        app = apps[workload]
        # Optimal rows read multi entries of up to Ninstr cuts, and
        # none when a block is too large for them.
        max_cuts = (max(spec.ninstrs)
                    if "optimal" in spec.algorithms
                    and all(d.n <= spec.max_nodes for d in app.dfgs)
                    else 0)
        entries = _held_entries(
            cache, app.dfgs, Constraints(nin=nin, nout=nout),
            models[model_name], spec.limits, chains, max_cuts)
        jobs.append(_Group(app, spec, models[model_name], tuple(points),
                           backend, entries))
    return jobs


@dataclass
class SweepOutcome:
    """Everything one sweep produced: rows plus engine telemetry.

    ``warm_s`` times the scheduled phase (planning, the group units,
    merging their entries), which evaluates every row of a sweep without
    faults, warm or cold; ``points_s`` times the groups the leader
    evaluates itself (quarantined units only; every row when
    ``use_cache`` is off).  ``warm_units`` counts the units that
    searched, i.e. returned a new or longer entry: 0 when the cache
    covers the grid.  ``cache_stats`` counts the shared cache's own
    lookups plus every lookup each unit made on its local cache."""

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
    #: Group units the scheduler quarantined (``status="error"``
    #: reports: index, worker, attempts, last traceback).  The sweep
    #: still completes — the leader evaluates a failed unit's group
    #: itself, so rows and store keys stay bit-identical; this records
    #: that the fabric had to.
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
        result = dispatch_selection(
            point.algorithm, app.dfgs, cons, model, limits,
            spec.max_nodes, spec.area_budget, cache=cache,
            max_per_block=spec.max_per_block, chains=chains)
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
        row.update(_measure_fields(app, result, spec, model,
                                   backend=backend))
    row["elapsed_s"] = time.perf_counter() - start
    return row


def _measure_fields(app: Application, result: SelectionResult,
                    spec: SweepSpec, model,
                    backend: Optional[str] = None) -> dict:
    """Execute the point's selection (repro.exec) and report the
    measured — not merely estimated — speedup for the row.  The
    baseline is the app's kept profiling run, summed per point (no
    baseline program runs).  Measurement runs on *backend*; the
    compiled backend's process-wide code memo additionally shares
    compiled blocks across every grid point whose rewritten module
    leaves a block's instruction stream unchanged."""
    from ..exec import measure_selection

    measured = measure_selection(app, result, model, n=spec.n,
                                 backend=backend)
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
        workers: local worker processes for the group units (default:
            ``REPRO_WORKERS``, else serial); see
            :func:`repro.cluster.scheduled_map`.
        echo: optional progress sink (e.g. ``print``).
        store: optional persistent :class:`repro.store.ArtifactStore`:
            workload preparation and search entries read through and
            spill into it, so a repeated sweep's units start from the
            stored entries and only evaluate (polynomial work on cache
            hits).
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
            ``repro worker --connect`` nodes on.  Workers return their
            rows and entries to the leader, so they need no access to
            *store*.
        unit_attempts: hand-out budget per group unit before it is
            quarantined into ``failed_units`` (the leader then
            evaluates that group itself).
        unit_deadline: seconds one unit may stay outstanding on a
            worker before the leader requeues it.
        cluster_deadline: overall deadline (seconds) of the scheduled
            phase while workers run; unresolved units are abandoned
            into ``failed_units`` instead of hanging the sweep.
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

    models = {name: resolve_model(name) for name in spec.models}
    if cache is None:
        # The from-scratch baseline: each selection builds its own
        # chains, as separate CLI invocations would.
        start = time.perf_counter()
        outcome.rows = [_run_point(point, apps[point.workload], spec,
                                   models[point.model], None,
                                   backend=backend)
                        for point in spec.expand()]
        outcome.points_s = time.perf_counter() - start
    else:
        start = time.perf_counter()
        jobs = _plan_units(spec, apps, cache, models, backend)
        results, reports = scheduled_map(
            _group_unit, jobs, workers=workers,
            size_hints=[_unit_hint(job) for job in jobs],
            listen=listen, echo=say, max_attempts=unit_attempts,
            unit_deadline=unit_deadline, deadline=cluster_deadline)
        groups: List[Optional[List[dict]]] = [None] * len(jobs)
        for index, result in enumerate(results):
            if result is not None:
                groups[index], entries, stats = result
                outcome.warm_units += bool(entries)
                cache.merge(entries)
                cache.stats.hits += stats.hits
                cache.stats.misses += stats.misses
        outcome.unit_reports = [report.as_dict() for report in reports]
        outcome.failed_units = [report.as_dict() for report in reports
                                if report.status != "ok"]
        outcome.warm_s = time.perf_counter() - start
        say(f"ran {len(jobs)} group unit(s) ({outcome.warm_units} "
            f"searched) -> {len(cache)} cache entries in "
            f"{outcome.warm_s:.2f}s"
            + (f" ({len(outcome.failed_units)} unit(s) failed; the "
               f"leader evaluates their groups)"
               if outcome.failed_units else ""))

        # The leader evaluates the groups of quarantined units itself,
        # on the shared cache: their rows read the keys a unit's would,
        # so the store ends with a fault-free run's keys.
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if groups[index] is None:
                groups[index] = _evaluate_group(job, cache)
        outcome.rows = [row for group in groups for row in group]
        outcome.points_s = time.perf_counter() - start
        outcome.cache_stats = cache.stats.as_dict()
        outcome.cache_entries = len(cache)
    # Compiled-backend telemetry: the leader process's code memo, which
    # its own ``measure=True`` rows (every row, when serial) compiled
    # into or reused — `hits` rising across a sweep is the satellite
    # obligation that rewritten-module region digests share the memo.
    from ..interp.compile import code_memo_stats

    outcome.code_memo = code_memo_stats().as_dict()
    say(f"{len(outcome.rows)} grid point(s) in {outcome.sweep_s:.2f}s "
        f"({outcome.points_per_second:.2f} points/s)")
    return outcome
