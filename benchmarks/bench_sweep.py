"""Sweep throughput — grid points per second, memoized vs. cold.

Runs the same Fig. 11-style grid twice through the exploration engine
(``repro.explore.run_sweep``): once cold (cache disabled — every point
recomputes identification, as separate CLI invocations would) and once
with the digest-keyed memo shared across the grid.  The grid overlaps
deliberately: four ``Ninstr`` values per port pair, so cached points
reuse the per-block identification chains the first point computed.

Emits machine-readable ``benchmarks/results/BENCH_sweep.json`` so later
PRs have a perf trajectory to regress against, and asserts the two
acceptance bars:

* the cached sweep retires >= 2x the points/s of the cold sweep;
* the cached rows are bit-identical to the cold rows.

Each leg runs ``REPEATS`` times and the ratio reads the fastest run of
each, so one GC pause or scheduler hiccup on a shared runner cannot
flip the gate.

Alongside the totals it records each sweep's ``points_s``.  On the cold
sweep that is every point.  On the cached sweep it counts only the
groups the leader evaluates itself, those of quarantined units: every
(workload, Nin, Nout) group is a unit that searches its chains on
demand (or starts from the cached ones) and evaluates its points inside
``warm_s``.

Runs standalone (``python benchmarks/bench_sweep.py``) or under the
pytest benchmark harness.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.explore import SweepSpec, run_sweep

try:
    from _bench_utils import report
except ImportError:  # standalone run: benchmarks/ not on sys.path
    sys.path.insert(0, str(Path(__file__).parent))
    from _bench_utils import report

RESULTS_DIR = Path(__file__).parent / "results"

#: The measured grid: 2 workloads x 4 port pairs x 4 instruction
#: budgets, exact identification plus both baselines — 96 points.  The
#: adpcm-decode hot block makes identification the dominant cost, which
#: is precisely what the memo amortises across the Ninstr axis.
SPEC = SweepSpec(
    workloads=("adpcm-decode", "gsm"),
    ports=((2, 1), (3, 1), (4, 1), (4, 2)),
    ninstrs=(2, 4, 8, 16),
    algorithms=("iterative", "clubbing", "maxmiso"),
    limit=600_000,
    n=64,
)


#: Timed runs per leg; each leg reports its fastest.
REPEATS = 3


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


def _fastest(use_cache: bool):
    """The fastest of ``REPEATS`` sweeps of ``SPEC`` (each cached run on
    a fresh cache), after checking that all of them agree row for row."""
    runs = [run_sweep(SPEC, use_cache=use_cache) for _ in range(REPEATS)]
    assert all(_strip_timing(run.rows) == _strip_timing(runs[0].rows)
               for run in runs), "repeated sweeps disagree"
    return min(runs, key=lambda run: run.sweep_s)


def run_sweep_benchmark() -> dict:
    """Measure everything; return (and persist) the JSON payload."""
    cold = _fastest(use_cache=False)
    warm = _fastest(use_cache=True)
    assert _strip_timing(cold.rows) == _strip_timing(warm.rows), \
        "cache changed sweep results"

    payload = {
        "grid": {
            "workloads": list(SPEC.workloads),
            "ports": [list(p) for p in SPEC.ports],
            "ninstrs": list(SPEC.ninstrs),
            "algorithms": list(SPEC.algorithms),
            "points": len(cold.rows),
        },
        "repeats": REPEATS,
        "cold": {
            "sweep_s": cold.sweep_s,
            "points_s": cold.points_s,
            "points_per_sec": cold.points_per_second,
        },
        "cached": {
            "sweep_s": warm.sweep_s,
            "warm_s": warm.warm_s,
            "points_s": warm.points_s,
            "points_per_sec": warm.points_per_second,
            "warm_units": warm.warm_units,
            "cache_entries": warm.cache_entries,
            "cache_stats": warm.cache_stats,
        },
        "speedup": warm.points_per_second / cold.points_per_second,
        "rows_bit_identical": True,
    }
    report("sweep",
           f"sweep {payload['grid']['points']} points: cold "
           f"{cold.points_per_second:,.1f} points/s, cached "
           f"{warm.points_per_second:,.1f} points/s "
           f"(group units {warm.warm_s:.3f}s, groups of quarantined "
           f"units {warm.points_s:.3f}s; "
           f"{payload['speedup']:.2f}x, {warm.cache_stats['hits']} "
           f"hits / {warm.cache_stats['misses']} misses, rows "
           f"bit-identical)")

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_sweep.json", "w") as fh:
        json.dump(payload, fh, indent=2)

    # Acceptance bar with headroom for noisy shared runners (locally
    # measured ~3.5x): the memo must at least double sweep throughput.
    assert payload["speedup"] >= 2.0, payload
    return payload


def bench_sweep_throughput(benchmark):
    payload = run_sweep_benchmark()
    benchmark.pedantic(
        run_sweep, args=(SPEC,), kwargs={"use_cache": True},
        iterations=1, rounds=1)
    assert payload["speedup"] >= 2.0


if __name__ == "__main__":
    out = run_sweep_benchmark()
    print(json.dumps(out, indent=2))
