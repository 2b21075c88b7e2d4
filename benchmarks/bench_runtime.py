"""Section 8 runtime claim — "in all but extreme cases it took only some
seconds; only in a couple of cases with loose constraints, run times were
in the order of hours".

We time the full Iterative selection across the constraint grid and
confirm the same pattern *per search budget*: tight constraints finish
quickly and completely; the loosest ones exhaust a generous budget (the
stand-in for "hours" on 2003 hardware).
"""

from __future__ import annotations

import time

import pytest

from repro.core import Constraints, SearchLimits, select_iterative
from repro.hwmodel import CostModel

from _bench_utils import report

MODEL = CostModel()


@pytest.mark.parametrize("nin,nout", [(2, 1), (4, 2)])
def bench_runtime_tight_constraints(benchmark, paper_apps, nin, nout):
    """Tight constraints: complete identification in interactive time."""
    app = paper_apps["adpcm-decode"]
    cons = Constraints(nin=nin, nout=nout, ninstr=16)
    limits = SearchLimits(max_considered=2_000_000)

    result = benchmark.pedantic(
        select_iterative, args=(app.dfgs, cons, MODEL, limits),
        iterations=1, rounds=1)

    report("runtime", f"Iterative adpcm-decode Nin={nin} Nout={nout}: "
                      f"{result.stats.cuts_considered} cuts, "
                      f"complete={result.complete}")
    assert result.complete, "tight constraints must finish in budget"


def bench_runtime_loose_constraints_hit_budget(benchmark, paper_apps):
    """Loose constraints blow past a small budget (the paper's 'hours').

    A budgeted search walks the paper's tree and stops incomplete; the
    default search prunes with the merit upper bound and must complete
    the same case outright, with the same best merit found so far.
    """
    app = paper_apps["adpcm-decode"]
    cons = Constraints(nin=10_000, nout=6, ninstr=1)
    limits = SearchLimits(max_considered=400_000)

    result = benchmark.pedantic(
        select_iterative, args=(app.dfgs, cons, MODEL, limits),
        iterations=1, rounds=1)

    report("runtime", f"Iterative adpcm-decode unbounded-in/Nout=6: "
                      f"complete={result.complete} (budget 400k cuts)")
    assert not result.complete

    start = time.perf_counter()
    pruned = select_iterative(app.dfgs, cons, MODEL)
    elapsed = time.perf_counter() - start
    report("runtime",
           f"  default (pruned) search: complete={pruned.complete} in "
           f"{pruned.stats.cuts_considered} cuts, {elapsed:.3f}s "
           f"({pruned.stats.ub_pruned} subtrees cut by the merit bound, "
           f"{pruned.stats.nin_pruned} by permanent inputs)")
    assert pruned.complete
    assert pruned.stats.cuts_considered < 400_000
    assert pruned.total_merit >= result.total_merit


def bench_runtime_scaling_with_nout(benchmark, paper_apps):
    """Wall-clock grows with Nout (weaker pruning)."""
    app = paper_apps["adpcm-decode"]
    dfgs = app.dfgs
    timings = {}
    for nout in (1, 2, 3):
        cons = Constraints(nin=4, nout=nout, ninstr=4)
        start = time.perf_counter()
        select_iterative(dfgs, cons, MODEL,
                         SearchLimits(max_considered=2_000_000))
        timings[nout] = time.perf_counter() - start

    benchmark.pedantic(
        select_iterative,
        args=(dfgs, Constraints(nin=4, nout=1, ninstr=4), MODEL,
              SearchLimits(max_considered=2_000_000)),
        iterations=1, rounds=1)

    report("runtime", "Iterative wall-clock vs Nout (Nin=4, Ninstr=4): "
           + ", ".join(f"Nout={k}: {v:.2f}s" for k, v in timings.items()))
    assert timings[1] <= timings[3] * 1.5   # allow noise; trend must hold
