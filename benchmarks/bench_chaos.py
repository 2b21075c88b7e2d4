"""Chaos fabric overhead — the fault-injection layer must be free
when no fault fires.

Two measurements, one JSON artifact
(``benchmarks/results/BENCH_chaos.json``):

1. **Armed-but-idle cluster overhead** — a bag of sleep-calibrated
   units through ``scheduled_map`` at two workers, once bare and once
   with a zero-fault plan armed (transported to the workers via
   ``$REPRO_CHAOS_PLAN``, wire hook installed, every spec at
   probability zero so the draw machinery runs on every site but
   nothing ever fires).  Acceptance bar: the armed run costs **less
   than 5%** wall-clock over the bare run.
2. **Store round-trip overhead** — a batch of put/get/contains
   operations against a live :class:`StoreServer` through
   ``NetworkBackend`` (the retry-capable client), in alternating bare
   and armed repeats.  The record is the median per-pair overhead with
   its quartiles, so one noisy ~25 ms batch cannot pass for a cost.
   Recorded for trend-spotting; not hard-gated (sub-millisecond ops
   amplify scheduler noise far past the fabric's real cost).

Runs standalone (``python benchmarks/bench_chaos.py``) or under the
pytest benchmark harness.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.chaos import FaultPlan, FaultSpec, env_plan, wire_faults
from repro.cluster import scheduled_map
from repro.cluster.worker import _sleep_unit
from repro.store import (
    ArtifactStore,
    NetworkBackend,
    SQLiteBackend,
    StoreServer,
)

try:
    from _bench_utils import report
except ImportError:  # standalone run: benchmarks/ not on sys.path
    sys.path.insert(0, str(Path(__file__).parent))
    from _bench_utils import report

RESULTS_DIR = Path(__file__).parent / "results"

#: Calibrated bag: 8 x 0.4s of pure wait (3.2s serial, ~1.6s at two
#: workers) — long enough that fork jitter is noise against the gate,
#: short enough for CI.
_UNITS = [0.4] * 8

#: Store leg: operations per run, and bare/armed pairs per leg (after
#: one discarded warm-up pair).
_STORE_OPS = 150
_STORE_PAIRS = 15


def _zero_fault_plan() -> FaultPlan:
    """A plan that arms every injection site but never fires: unit
    checks, store draws and the wire hook all run at real cost, with
    probability zero (the poison op targets a unit index that does not
    exist, so ``check_unit`` still pattern-matches per unit)."""
    return FaultPlan(seed=0, specs=(
        FaultSpec(site="unit", kind="poison", ops=("999999",)),
        FaultSpec(site="store", kind="error", probability=0.0),
        FaultSpec(site="wire", kind="stall", probability=0.0,
                  delay_s=0.0),
    ))


def _timed_cluster(armed: bool) -> float:
    start = time.perf_counter()
    if armed:
        with env_plan(_zero_fault_plan()):
            results, _reports = scheduled_map(_sleep_unit, _UNITS,
                                              workers=2)
    else:
        results, _reports = scheduled_map(_sleep_unit, _UNITS, workers=2)
    elapsed = time.perf_counter() - start
    assert results == _UNITS, "cluster changed unit results"
    return elapsed


def _bench_cluster_overhead() -> dict:
    """Leg 1: sleep-unit bag, armed vs bare, gated at +5%."""
    # Interleave (bare, armed, bare, armed) and keep each side's best:
    # min-of-2 discards one-off fork/scheduler hiccups on either side.
    bare_s = min(_timed_cluster(False) for _ in range(2))
    armed_s = min(_timed_cluster(True) for _ in range(2))
    record = {
        "units": len(_UNITS),
        "unit_s": _UNITS[0],
        "bare_s": bare_s,
        "armed_s": armed_s,
        "overhead": armed_s / bare_s - 1.0,
    }
    assert record["overhead"] < 0.05, record
    return record


def _timed_store_ops(store: ArtifactStore, armed: bool) -> float:
    plan = _zero_fault_plan() if armed else None
    start = time.perf_counter()
    with wire_faults(plan):
        for i in range(_STORE_OPS):
            key = store.key("search", {"op": i, "armed": armed})
            store.put("search", key, {"value": i})
            assert store.get("search", key) == {"value": i}
            assert store.contains("search", key)
    return time.perf_counter() - start


def _bench_store_overhead() -> dict:
    """Leg 2: network store round-trips, alternating bare and armed
    repeats (recorded: medians and the per-pair overhead quartiles)."""
    base = Path(tempfile.mkdtemp(prefix="bench-chaos-"))
    inner = SQLiteBackend(str(base / "store.sqlite"))
    server = StoreServer(inner, host="127.0.0.1", port=0).start()
    client = NetworkBackend(server.spec, retries=3, backoff_s=0.02)
    store = ArtifactStore(client)
    try:
        bare, armed = [], []
        for pair in range(_STORE_PAIRS + 1):
            # Either side goes first in every other pair.
            order = (False, True) if pair % 2 else (True, False)
            times = {side: _timed_store_ops(store, side) for side in order}
            if pair:            # pair 0 warms the server and the keys
                bare.append(times[False])
                armed.append(times[True])
        overheads = [a / b - 1.0 for a, b in zip(armed, bare)]
        q1, median, q3 = statistics.quantiles(overheads, n=4)
        return {
            "ops": _STORE_OPS * 3,
            "pairs": _STORE_PAIRS,
            "bare_s": statistics.median(bare),
            "armed_s": statistics.median(armed),
            "overhead": median,
            "overhead_quartiles": [q1, q3],
            "retries": client.retry_count,
        }
    finally:
        server.shutdown()
        client.close()
        inner.close()


def run_chaos_benchmark() -> dict:
    """Measure everything; return (and persist) the JSON payload."""
    payload = {
        "cluster": _bench_cluster_overhead(),
        "store": _bench_store_overhead(),
    }
    cluster = payload["cluster"]
    net = payload["store"]
    report("chaos",
           f"chaos: zero-fault plan over {cluster['units']} sleep "
           f"units {cluster['bare_s']:.2f}s bare -> "
           f"{cluster['armed_s']:.2f}s armed "
           f"({cluster['overhead']:+.1%}); {net['ops']} store ops, "
           f"median of {net['pairs']} pairs {net['bare_s']:.4f}s bare "
           f"-> {net['armed_s']:.4f}s armed ({net['overhead']:+.1%}, "
           f"quartiles {net['overhead_quartiles'][0]:+.1%} .. "
           f"{net['overhead_quartiles'][1]:+.1%})")

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_chaos.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    return payload


def bench_chaos_fabric(benchmark):
    payload = run_chaos_benchmark()
    benchmark.pedantic(
        scheduled_map, args=(_sleep_unit, _UNITS),
        kwargs={"workers": 2}, iterations=1, rounds=1)
    assert payload["cluster"]["overhead"] < 0.05


if __name__ == "__main__":
    out = run_chaos_benchmark()
    print(json.dumps(out, indent=2))
