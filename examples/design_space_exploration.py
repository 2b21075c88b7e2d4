#!/usr/bin/env python
"""Design-space exploration: speedup vs. register-file port budget.

Sweeps the (Nin, Nout) grid for the requested workloads through the
batch exploration engine (``repro.explore``) and prints a Fig. 11-style
matrix comparing the exact Iterative algorithm against the Clubbing and
MaxMISO baselines — the table an SoC architect would use to decide how
many ports the AFU interface needs.

Each workload is compiled and profiled once, at its default size, and
the per-block identification searches are memoized across the whole
grid, so this runs an order of magnitude faster than invoking the CLI
per point (see ``benchmarks/bench_sweep.py`` for the measured
trajectory).  The same sweep is available as ``repro sweep`` with
JSON/CSV artifacts.

Run:  python examples/design_space_exploration.py [workload ...]
"""

import sys

from repro.explore import SweepSpec, format_table, run_sweep
from repro.workloads import WORKLOADS

GRID = ((2, 1), (3, 1), (4, 2), (6, 3))
NINSTR = 8


def main() -> None:
    names = sys.argv[1:] or sorted(WORKLOADS)
    spec = SweepSpec(
        workloads=tuple(names),
        ports=GRID,
        ninstrs=(NINSTR,),
        algorithms=("iterative", "clubbing", "maxmiso"),
        limit=400_000,
    )
    outcome = run_sweep(spec)
    print(format_table(outcome.rows))
    print(f"\n{len(outcome.rows)} grid points in {outcome.sweep_s:.2f}s "
          f"({outcome.points_per_second:.1f} points/s, "
          f"{outcome.cache_entries} memoised searches)")


if __name__ == "__main__":
    main()
