"""Warm-start wall time — the whole flow, cold vs. persisted.

Runs the sweep -> identify -> speedup flow twice through the session
facade against one persistent store: the first pass populates it (cold),
the second repeats the *identical* calls from a fresh ``Session`` in the
same store (warm), exactly like a second CLI invocation.  A third pass
runs with the store disabled to price the store's overhead on a cold
run.

Gates (this benchmark fails CI, unlike the throughput trend benches):

* warm and cold results are bit-identical at every layer;
* the warm run's store hit-rate is >= 0.95 (a warm flow recomputes
  nothing);
* warm leaves zero warm-units (the store already covered the grid).

The wall-clock ratios — warm-sweep speedup (locally ~7.5x, acceptance
bar 5x) and cold-with-store overhead vs. no-store (locally ~1.0x) —
are recorded in ``benchmarks/results/BENCH_session.json`` and asserted
only with generous margins: shared-runner timing noise on sub-second
runs must never block an unrelated change (same policy as the trend
benches in ci.yml).

Runs standalone (``python benchmarks/bench_session.py``) or under the
pytest benchmark harness.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import Session, SweepSpec

try:
    from _bench_utils import report
except ImportError:  # standalone run: benchmarks/ not on sys.path
    sys.path.insert(0, str(Path(__file__).parent))
    from _bench_utils import report

RESULTS_DIR = Path(__file__).parent / "results"

#: The measured grid: the paper benchmarks whose exponential per-block
#: identification dominates the cold cost — the product the store must
#: amortise (same shape as ``bench_sweep``'s grid).
SPEC = SweepSpec(
    workloads=("adpcm-decode", "gsm"),
    ports=((2, 1), (3, 1), (4, 1), (4, 2), (5, 2)),
    ninstrs=(2, 4, 8, 16),
    algorithms=("iterative", "maxmiso"),
    limit=600_000,
    n=64,
)

SPEEDUP_WORKLOADS = ["adpcm-decode", "gsm"]


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


def _flow(session):
    """One end-to-end pass: sweep + identify + speedup, timed per stage.

    The sweep runs first so its cold timing includes every exponential
    identification — ``sweep_speedup`` below is exactly "a second
    identical ``repro sweep``" vs. the first one."""
    stages = {}
    start = time.perf_counter()
    sweep = session.sweep(SPEC)
    stages["sweep_s"] = time.perf_counter() - start

    start = time.perf_counter()
    identify = session.identify("adpcm-decode", n=64,
                                limits=SPEC.limits)
    stages["identify_s"] = time.perf_counter() - start

    start = time.perf_counter()
    speedup = session.speedup(SPEEDUP_WORKLOADS, ninstr=4, n=64,
                              limits=SPEC.limits)
    stages["speedup_s"] = time.perf_counter() - start

    stages["total_s"] = sum(stages.values())
    results = {
        "identify": (tuple(sorted(identify.cut.nodes)),
                     identify.cut.merit) if identify.cut else None,
        "sweep_rows": _strip_timing(sweep.rows),
        "speedup_rows": [row.as_dict() for row in speedup],
    }
    return stages, results, sweep


def run_session_benchmark() -> dict:
    """Measure everything; return (and persist) the JSON payload."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        cold_stages, cold_results, _ = _flow(Session(store=root))

        warm_session = Session(store=root)
        warm_stages, warm_results, warm_sweep = _flow(warm_session)
        warm_store = warm_session.store.stats

        nostore_stages, nostore_results, _ = _flow(Session(store=False))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    assert cold_results == warm_results, \
        "warm-start changed results"
    assert cold_results == nostore_results, \
        "the store changed results vs. --no-store"
    assert warm_sweep.warm_units == 0, \
        f"warm sweep still searched in {warm_sweep.warm_units} unit(s)"
    hit_rate = warm_store.hit_rate
    assert hit_rate >= 0.95, \
        f"warm store hit-rate {hit_rate:.2f} below threshold"

    sweep_speedup = cold_stages["sweep_s"] / max(warm_stages["sweep_s"],
                                                 1e-9)
    total_speedup = cold_stages["total_s"] / max(warm_stages["total_s"],
                                                 1e-9)
    overhead = cold_stages["total_s"] / max(nostore_stages["total_s"],
                                            1e-9)

    payload = {
        "grid": {
            "workloads": list(SPEC.workloads),
            "ports": [list(p) for p in SPEC.ports],
            "ninstrs": list(SPEC.ninstrs),
            "algorithms": list(SPEC.algorithms),
            "points": len(SPEC.expand()),
            "speedup_workloads": SPEEDUP_WORKLOADS,
        },
        "cold": cold_stages,
        "warm": warm_stages,
        "no_store": nostore_stages,
        "warm_store_stats": warm_store.as_dict(),
        "warm_hit_rate": hit_rate,
        "sweep_speedup": sweep_speedup,
        "total_speedup": total_speedup,
        "cold_store_overhead": overhead,
        "results_bit_identical": True,
    }

    report("session",
           f"session flow: cold {cold_stages['total_s']:.2f}s, warm "
           f"{warm_stages['total_s']:.2f}s ({total_speedup:.1f}x; sweep "
           f"{sweep_speedup:.1f}x), hit-rate {hit_rate:.2f}, cold "
           f"store overhead {overhead:.2f}x vs. no-store, results "
           f"bit-identical")

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_session.json", "w") as fh:
        json.dump(payload, fh, indent=2)

    # Timing bars with deliberate headroom (locally ~7.5x sweep
    # speedup and ~1.0x overhead): these are sub-second runs on shared
    # runners, so the hard correctness gates above (hit-rate, zero
    # warm-units, bit-identity) carry the regression burden and the
    # ratios only catch order-of-magnitude collapses.
    assert sweep_speedup >= 2.0, payload
    assert overhead <= 2.0, payload
    return payload


def bench_session_warm_start(benchmark):
    payload = run_session_benchmark()
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert payload["warm_hit_rate"] >= 0.95


if __name__ == "__main__":
    out = run_session_benchmark()
    print(json.dumps(out, indent=2))
