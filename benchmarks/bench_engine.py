"""Engine throughput — cuts considered per second, engine vs. seed path.

Measures the bitset branch-and-bound engine against the preserved seed
implementation (``_reference_single_cut.py``, the pre-engine recursive
search) on the adpcm-decode hot block, and emits machine-readable
``benchmarks/results/BENCH_engine.json`` so later PRs have a perf
trajectory to regress against.

Three numbers matter:

* **raw throughput** — cuts considered per second on the *identical*
  tree walk (a budget that cannot be reached, so no extra pruning):
  pure per-cut speed;
* **default pruning** — wall-clock to *complete* the paper-constraint
  search with the default walk (merit upper bound plus permanent-input
  pruning) against the paper walk: same optimum, far fewer cuts
  examined, both prune counters reported;
* **effective throughput** — the reference path's cut count retired per
  second of default-search wall-clock: how fast the engine disposes of
  the search obligations the seed implementation had.

Runs standalone (``python benchmarks/bench_engine.py``) or under the
pytest benchmark harness.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import Constraints, SearchLimits, find_best_cut
from repro.hwmodel import CostModel
from repro.pipeline import prepare_application

try:
    from _bench_utils import report
    from _reference_single_cut import find_best_cut_reference
except ImportError:  # standalone run: benchmarks/ not on sys.path
    sys.path.insert(0, str(Path(__file__).parent))
    from _bench_utils import report
    from _reference_single_cut import find_best_cut_reference

RESULTS_DIR = Path(__file__).parent / "results"
MODEL = CostModel()

#: Complete searches on the hot block under the paper's constraint
#: settings (tight Fig. 11 corner and the default 4/2 ports).
RAW_SCENARIOS = [
    ("nin2_nout1", Constraints(nin=2, nout=1)),
    ("nin4_nout2", Constraints(nin=4, nout=2)),
]


def _best_time(fn, *args, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_engine_benchmark(app=None) -> dict:
    """Measure everything; return (and persist) the JSON payload."""
    if app is None:
        app = prepare_application("adpcm-decode", n=96)
    dfg = app.hot_dfg
    paper_walk = SearchLimits(max_considered=2 ** dfg.n)

    payload = {
        "block": dfg.name,
        "nodes": dfg.n,
        "scenarios": [],
    }

    for name, cons in RAW_SCENARIOS:
        t_eng, r_eng = _best_time(find_best_cut, dfg, cons, MODEL,
                                  paper_walk)
        t_ref, r_ref = _best_time(find_best_cut_reference, dfg, cons, MODEL)
        assert r_eng.merit == r_ref.merit, "engine diverged from reference"
        assert (r_eng.stats.cuts_considered
                == r_ref.stats.cuts_considered), "walks differ"
        cuts = r_eng.stats.cuts_considered
        payload["scenarios"].append({
            "name": name,
            "cuts_considered": cuts,
            "engine_cuts_per_sec": cuts / t_eng,
            "reference_cuts_per_sec": cuts / t_ref,
            "speedup": t_ref / t_eng,
        })
        report("engine", f"{name}: engine {cuts / t_eng:,.0f} cuts/s, "
                         f"reference {cuts / t_ref:,.0f} cuts/s "
                         f"({t_ref / t_eng:.2f}x)")

    # Default pruning: same optimum, pruned walk, compared on the
    # reference's complete 4/2 search and on the engine's paper walk.
    cons = Constraints(nin=4, nout=2)
    t_ref, r_ref = _best_time(find_best_cut_reference, dfg, cons, MODEL)
    t_walk, r_walk = _best_time(find_best_cut, dfg, cons, MODEL,
                                paper_walk)
    t_def, r_def = _best_time(find_best_cut, dfg, cons, MODEL)
    assert r_def.merit == r_ref.merit, "pruning changed the optimum"
    assert r_def.cut.nodes == r_walk.cut.nodes, "pruning changed the cut"
    ref_cuts = r_ref.stats.cuts_considered
    stats = r_def.stats
    payload["default_pruning"] = {
        "reference_cuts": ref_cuts,
        "paper_walk_cuts": r_walk.stats.cuts_considered,
        "engine_cuts": stats.cuts_considered,
        "ub_pruned_subtrees": stats.ub_pruned,
        "nin_pruned_subtrees": stats.nin_pruned,
        "paper_walk_s": t_walk,
        "default_s": t_def,
        "speedup_vs_paper_walk": t_walk / t_def,
        "effective_cuts_per_sec": ref_cuts / t_def,
        "reference_cuts_per_sec": ref_cuts / t_ref,
        "effective_speedup": t_ref / t_def,
    }
    report("engine",
           f"default pruning: {stats.cuts_considered} of {ref_cuts} "
           f"cuts examined ({stats.ub_pruned} subtrees cut by the merit "
           f"bound, {stats.nin_pruned} by permanent inputs), same "
           f"optimum, {t_walk / t_def:.1f}x the paper walk, "
           f"{t_ref / t_def:.1f}x the reference — effective "
           f"{ref_cuts / t_def:,.0f} cuts/s vs {ref_cuts / t_ref:,.0f}")

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_engine.json", "w") as fh:
        json.dump(payload, fh, indent=2)

    # The acceptance bars, with headroom for noisy shared runners
    # (measured ~100x effective and ~5x raw on 2 CPUs): the engine must
    # retire the reference's search obligations >= 5x faster, and be
    # >= 2.5x on the identical raw walk.
    assert payload["default_pruning"]["effective_speedup"] >= 5.0, payload
    for scenario in payload["scenarios"]:
        assert scenario["speedup"] >= 2.5, scenario
    return payload


def bench_engine_throughput(benchmark, paper_apps):
    app = paper_apps["adpcm-decode"]
    dfg = app.hot_dfg
    payload = run_engine_benchmark(app)
    benchmark.pedantic(
        find_best_cut,
        args=(dfg, Constraints(nin=4, nout=2), MODEL),
        iterations=1, rounds=3)
    assert payload["default_pruning"]["effective_speedup"] >= 5.0


if __name__ == "__main__":
    out = run_engine_benchmark()
    print(json.dumps(out, indent=2))
