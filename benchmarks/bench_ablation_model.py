"""Ablations on the evaluation model.

1. **Static estimate vs. measured execution** — the paper's merit
   function predicts speedups from a profile; ``measure_selection`` runs
   the ISE-rewritten program and charges per executed block.  On the
   profiling input the two must agree exactly; on a different input the
   profile generalises (same workload, different length).
2. **Cost-model sensitivity** — rerunning the selection with a uniform
   operator model: who-wins (exact >= baselines) must not depend on the
   latency tables.
3. **If-conversion leverage** — disabling the paper's preprocessing step
   collapses the achievable speedup, demonstrating why the paper applies
   it.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Constraints,
    SearchLimits,
    select_clubbing,
    select_iterative,
    select_maxmiso,
)
from repro.exec import measure_selection
from repro.hwmodel import CostModel, uniform_cost_model
from repro.pipeline import prepare_application

from _bench_utils import report

MODEL = CostModel()
LIMITS = SearchLimits(max_considered=800_000)
CONS = Constraints(nin=4, nout=2, ninstr=8)


@pytest.mark.parametrize("name", ["adpcm-decode", "gsm"])
def bench_static_vs_dynamic(benchmark, name):
    app = prepare_application(name, n=96)
    selection = select_iterative(app.dfgs, CONS, MODEL, LIMITS)

    same_input = benchmark.pedantic(
        measure_selection, args=(app, selection, MODEL),
        kwargs={"n": 96}, iterations=1, rounds=1)
    other_input = measure_selection(app, selection, MODEL, n=192)

    saved = same_input.baseline_cycles - same_input.ise_cycles
    report("ablation_model",
           f"{name}: static merit {selection.total_merit:.0f} vs dynamic "
           f"saved {saved:.0f} cycles (same input) | speedup "
           f"{same_input.speedup:.3f} (profiled) vs "
           f"{other_input.speedup:.3f} (2x input)")
    assert saved == pytest.approx(selection.total_merit)
    # Profile generalises on these stationary kernels.
    assert abs(other_input.speedup - same_input.speedup) \
        / same_input.speedup < 0.15


def bench_cost_model_sensitivity(benchmark, paper_apps):
    app = paper_apps["adpcm-decode"]
    uniform = uniform_cost_model()

    def run():
        return (
            select_iterative(app.dfgs, CONS, uniform, LIMITS),
            select_clubbing(app.dfgs, CONS, uniform),
            select_maxmiso(app.dfgs, CONS, uniform),
        )

    iterative, clubbing, maxmiso = benchmark(run)
    report("ablation_model",
           f"uniform cost model on adpcm-decode: iterative "
           f"{iterative.speedup:.3f} vs clubbing {clubbing.speedup:.3f} "
           f"vs maxmiso {maxmiso.speedup:.3f}")
    assert iterative.total_merit >= clubbing.total_merit - 1e-9
    assert iterative.total_merit >= maxmiso.total_merit - 1e-9


def bench_if_conversion_leverage(benchmark):
    with_ifc = prepare_application("adpcm-decode", n=96)
    without_ifc = prepare_application("adpcm-decode", n=96,
                                      if_convert=False)

    def run():
        return (
            select_iterative(with_ifc.dfgs, CONS, MODEL, LIMITS),
            select_iterative(without_ifc.dfgs, CONS, MODEL, LIMITS),
        )

    converted, unconverted = benchmark.pedantic(run, iterations=1,
                                                rounds=1)
    report("ablation_model",
           f"if-conversion on adpcm-decode: speedup "
           f"{converted.speedup:.3f} with vs "
           f"{unconverted.speedup:.3f} without "
           f"(hot block {with_ifc.hot_dfg.n} vs "
           f"{without_ifc.hot_dfg.n} nodes)")
    assert with_ifc.hot_dfg.n > without_ifc.hot_dfg.n
    assert converted.speedup > unconverted.speedup
