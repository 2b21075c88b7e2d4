"""Outside-in span tracing for the benchmark.

The program under test carries no tracing of its own.  This module times
each layer from outside: :func:`install` replaces the public functions a
layer exposes with thin wrappers that open a span, call the original and
close the span.  Names are replaced where they are *looked up* (the
module whose globals the caller reads), not where they are defined,
because ``from x import f`` binds a second reference that patching ``x``
would miss.  :func:`uninstall` puts every original back.

A span records name, layer, start, end and parent.  A layer's self time
is its spans' durations minus the time their child spans cover, so the
self times of all layers plus the root spans' own self time add up to
the traced wall time.  Spans opened inside forked worker processes stay
in those processes and are not collected.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

#: Span fields, in the order of each span record.
NAME, LAYER, START, END, PARENT, ARGS = range(6)

_INHERITED = object()

#: Layer of the spans the benchmark itself opens around one timed
#: operation; their self time is the part no layer span covers.
ROOT = "root"


class Tracer:
    """In-memory span recorder plus named counters (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._undo: List[tuple] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str, layer: str) -> int:
        """Open a span; its ``ARGS`` dict starts empty and goes into the
        Chrome trace with whatever layer pickers store in it."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    def enclosing(self, *names: str) -> Optional[list]:
        """The innermost open span whose name is one of *names*."""
        for index in reversed(self._open):
            if self.spans[index][NAME] in names:
                return self.spans[index]
        return None

    # -- wrapping -------------------------------------------------------
    def wrap(self, owner, attr: str, layer, after=None) -> None:
        """Replace ``owner.attr`` with a span-opening wrapper.

        *layer* is a layer name or a ``(tracer, args, kwargs) -> str``
        callable deciding it when the span opens; *after*, if given, is
        called with ``(tracer, span, result)`` to harvest counts from the
        result.
        """
        original = getattr(owner, attr)
        tracer = self
        pick = layer if callable(layer) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(
                attr, pick(tracer, args, kwargs) if pick else layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, tracer.spans[index], result)
            return result

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls
        (for functions called far too often to give each a span)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        # An inherited attribute has no entry of its own to restore.
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Self seconds per layer over the spans recorded since index
        *first* (root spans included under :data:`ROOT`)."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT] - first
            if parent >= 0:
                child[parent] += span[END] - span[START]
        totals: Dict[str, float] = defaultdict(float)
        for span, covered in zip(spans, child):
            totals[span[LAYER]] += span[END] - span[START] - covered
        return dict(totals)

    def root_seconds(self, first: int = 0) -> float:
        """Wall seconds of the root spans recorded since *first*."""
        return sum(span[END] - span[START] for span in self.spans[first:]
                   if span[LAYER] == ROOT)

    def write_chrome(self, path: str, other: Optional[dict] = None) -> None:
        """Write every span as a Chrome trace-event file (``ph: "X"``
        complete events; opens in Perfetto and chrome://tracing)."""
        origin = self.spans[0][START] if self.spans else 0.0
        pid = os.getpid()
        events = []
        for span in self.spans:
            args = {"layer": span[LAYER]}
            if span[PARENT] >= 0:
                args["parent"] = self.spans[span[PARENT]][NAME]
            if span[ARGS]:
                args.update(span[ARGS])
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": pid, "tid": 1, "args": args})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other or {}}, handle)


# ---------------------------------------------------------------------------
# Where each layer is entered.


def _run_with_cycles_layer(tracer: Tracer, args, kwargs) -> str:
    """Baseline or ISE-program execution, told apart by the caller."""
    caller = tracer.enclosing("measure_baseline", "measure_selection")
    if caller is not None and caller[NAME] == "measure_selection":
        return "exec.ise_run_s"
    return "exec.baseline_run_s"


def _run_batch_layer(tracer: Tracer, args, kwargs) -> str:
    """``measure_batch`` calls ``run_batch`` for the one-lane reference,
    then the baseline module, then the rewritten module."""
    if kwargs.get("keep_arrays"):
        return "interp.batch.reference_s"
    state = tracer.enclosing("measure_batch")[ARGS]
    kind = "rewritten" if state.get("batches") else "baseline"
    state["batches"] = state.get("batches", 0) + 1
    return f"interp.batch.{kind}_s.{args[0].name}"


def _count_search(tracer: Tracer, span: list, result) -> None:
    """Harvest search counters from a selection result."""
    stats = result.stats
    tracer.counts["core.cuts_considered"] += stats.cuts_considered
    tracer.counts["core.ub_pruned"] += stats.ub_pruned


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the toolchain (module doc)."""
    import repro.exec.speedup  # noqa: F401  (lazily imported modules)
    import repro.explore.runner  # noqa: F401
    from repro.exec.rewrite import FusedAFU
    from repro.ir.dfg import DataFlowGraph
    from repro.store.artifacts import ArtifactStore

    modules = sys.modules
    session = modules["repro.session"]
    pipeline = modules["repro.pipeline"]
    speedup = modules["repro.exec.speedup"]
    runner = modules["repro.explore.runner"]
    compile_ = modules["repro.interp.compile"]
    # ``repro.core.select_iterative`` is the re-exported function, not
    # the module, so the modules come from sys.modules.
    iterative = modules["repro.core.select_iterative"]
    area = modules["repro.core.select_area"]

    tracer.wrap(session, "prepare_application", "pipeline.prepare_s")
    for name in ("parse", "analyze", "lower_program"):
        tracer.wrap(pipeline, name, "frontend.s")
    tracer.wrap(pipeline, "optimize_module", "passes.s")
    tracer.wrap(pipeline, "function_dfgs", "ir.dfg.s")
    tracer.wrap(DataFlowGraph, "collapse", "ir.dfg.s")

    class ProfilingInterpreter(pipeline.Interpreter):
        """The profiling run of ``prepare_application``, as a span."""

    tracer.wrap(ProfilingInterpreter, "run", "interp.profile_s")
    tracer._patch(pipeline, "Interpreter", ProfilingInterpreter)

    tracer.wrap(iterative, "find_best_cut", "core.search_s")
    tracer.wrap(area, "find_best_cut", "core.search_s")
    tracer.wrap(area, "enumerate_candidates", "core.search_s")
    tracer.wrap(area, "knapsack_select", "core.select_s")
    for owner in (speedup, runner):
        for name in ("select_iterative", "select_area_constrained"):
            tracer.wrap(owner, name, "core.select_s", after=_count_search)
    tracer.wrap(runner, "_plan_units", "explore.plan_s")
    tracer.wrap(runner, "scheduled_map", "core.parallel.map_s")

    tracer.wrap(speedup, "rewrite_module", "exec.rewrite_s")
    tracer.wrap(speedup, "measure_baseline", "exec.measure_s")
    tracer.wrap(speedup, "measure_selection", "exec.measure_s")
    tracer.wrap(speedup, "run_with_cycles", _run_with_cycles_layer)
    tracer.wrap(speedup, "run_batch", _run_batch_layer)
    tracer.wrap(speedup, "measure_batch", "exec.measure_s")
    tracer.count_calls(FusedAFU, "evaluate", "exec.afu_evals")

    tracer.wrap(compile_, "compile_region", "interp.compile_s")
    tracer.wrap(compile_, "compile_block", "interp.compile_s")

    tracer.wrap(ArtifactStore, "get", "store.get_s")
    tracer.wrap(ArtifactStore, "put", "store.put_s")

