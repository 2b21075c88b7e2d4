"""Self-test of the benchmark's contract; run from the repository root::

    python3 perfbench/selftest.py

For every workload it makes one short traced run at seed 0 and one
short untraced run at seed 1, and checks that

* every op passes its oracle at both seeds (the sweep run compares its
  two-worker rows with a serial sweep's, by digest, at both seeds);
* the toolchain's ``ise_speedup`` at seed 0 reads 2.504;
* the untraced run reports exactly the end-to-end metrics and the
  traced run exactly the per-layer metrics, with self times covering at
  least 90% of the traced wall time and a Chrome trace-event file
  written;

and finally that the benchmark fails, without printing a result, in a
directory that holds nothing but the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT, PER_LAYER, SEED0_ISE_SPEEDUP  # noqa: E402


def bench(cwd: Path, *args: str) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def result(workload: str, seed: int, trace: int) -> dict:
    code, lines, err = bench(ROOT_DIR, "--workload", workload, "--seed",
                             str(seed), "--seconds", "1", "--trace",
                             str(trace))
    assert code == 0, f"{workload} seed {seed}: exit {code}\n{err[-2000:]}"
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0, lines
    assert last["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert set(last["metrics"]) == set(expected), workload
    for name, metric in last["metrics"].items():
        assert metric["unit"] == expected[name], name
    return last["metrics"]


def main() -> int:
    for workload in ("toolchain", "sweep", "batch"):
        layers = result(workload, 0, 1)
        coverage = layers["trace.coverage"]["value"]
        assert coverage >= 0.9, f"{workload}: coverage {coverage:.3f}"
        trace = json.loads(
            (OUT / f"trace-{workload}-seed0.json").read_text())
        assert trace["traceEvents"], workload
        assert all(e["ph"] == "X" for e in trace["traceEvents"])
        metrics = result(workload, 1, 0)
        assert all(m["value"] > 0 for m in metrics.values()), metrics
        print(f"{workload}: ok (coverage {coverage:.3f})")

    metrics = result("toolchain", 0, 0)
    assert round(metrics["ise_speedup"]["value"], 3) == SEED0_ISE_SPEEDUP
    print("toolchain: ise_speedup at seed 0 ok")

    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT_DIR / "BENCHMARK.json", bare)
        code, lines, _err = bench(bare, "--workload", "toolchain",
                                  "--seed", "0", "--seconds", "1",
                                  "--trace", "0")
        assert code != 0 and not any('"correct"' in ln for ln in lines)
    finally:
        shutil.rmtree(bare)
    print("benchmark alone: fails without a result, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
