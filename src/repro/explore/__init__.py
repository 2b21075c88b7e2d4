"""Design-space exploration: batched sweeps over the paper's grids.

Every result of the paper (Figs. 8-11) is a *sweep* — speedup as a
function of the register-file port budget (Nin, Nout), the instruction
budget (Ninstr) and the algorithm, across benchmarks.  This package runs
such grids in one process invocation:

* :mod:`repro.explore.grid` — the declarative grid specification
  (:class:`SweepSpec`) and its expansion into :class:`SweepPoint` work
  units;
* :mod:`repro.explore.cache` — a digest-keyed memo of identification
  results (:class:`SearchCache`), shared by every grid point, so sweeps
  that vary only ``Ninstr`` or the algorithm never repeat the
  exponential per-block searches;
* :mod:`repro.explore.runner` — the engine: prepares each workload
  once, then evaluates the grid one *(model, workload, Nin, Nout)*
  group at a time — each group's collapse chains walked once and read
  by all of its points — with the groups sharded through
  :func:`repro.cluster.scheduled_map`;
* :mod:`repro.explore.report` — Fig. 11-style tables plus JSON/CSV
  artifacts.

The cache is a pure memo: a cached sweep is bit-identical to a cold one
(DESIGN.md §8 states the invariants).
"""

from .cache import CacheStats, SearchCache, dfg_digest, model_digest
from .grid import MODELS, SweepPoint, SweepSpec, resolve_model
from .report import format_table, rows_payload, write_csv, write_json
from .runner import SweepOutcome, run_sweep

__all__ = [
    "SweepSpec", "SweepPoint", "MODELS", "resolve_model",
    "SearchCache", "CacheStats", "dfg_digest", "model_digest",
    "run_sweep", "SweepOutcome",
    "format_table", "rows_payload", "write_json", "write_csv",
]
