"""repro — Automatic application-specific instruction-set extensions under
microarchitectural constraints.

A complete reproduction of Atasu, Pozzi & Ienne (DAC 2003 / IJPP 31(6),
2003): exact identification of maximal-merit convex dataflow subgraphs
under register-file port constraints, optimal and iterative selection of
up to ``Ninstr`` custom instructions, the Clubbing and MaxMISO baselines,
an execution layer that rewrites programs to *run* the selected
instructions and measures end-to-end cycle-count speedups, and everything
underneath — a MiniC compiler, an IR with CFG/DFG analyses,
if-conversion, an interpreter/profiler, hardware cost models and AFU
datapath generation.

Quickstart::

    from repro import Session

    session = Session()      # persistent store: ~/.cache/repro
    result = session.select("adpcm-decode", ninstr=16)
    print(result.describe())
    rows = session.speedup(["adpcm-decode"])   # rewrite + execute
    print(f"measured speedup {rows[0].measured_speedup:.3f}x "
          f"(bit-exact: {rows[0].identical})")
    # Re-running this script warm-starts from the store: compilation,
    # profiling (whose run is also the baseline run) and the
    # exponential searches are all read back instead of recomputed —
    # bit-identical, near-instant.
"""

from .core import (
    BlockTooLargeError,
    Constraints,
    Cut,
    MultiCutResult,
    SearchLimits,
    SearchResult,
    SearchStats,
    SelectionResult,
    enumerate_feasible_cuts,
    evaluate_cut,
    find_best_cut,
    find_best_cuts,
    select_area_constrained,
    select_clubbing,
    select_iterative,
    select_maxmiso,
    select_optimal,
)
from .exec import (
    FusedAFU,
    MeasuredSpeedup,
    RewriteResult,
    SpeedupRow,
    measure_selection,
    rewrite_module,
    run_speedup,
)
from .explore import SearchCache, SweepOutcome, SweepSpec, run_sweep
from .hwmodel import CostModel, estimated_speedup, uniform_cost_model
from .pipeline import Application, compile_workload, prepare_application
from .session import Session
from .store import ArtifactStore, StoreStats, default_store_dir
from .workloads import WORKLOADS, Workload, get_workload, paper_benchmarks

__version__ = "1.4.0"

__all__ = [
    "Constraints", "Cut", "evaluate_cut",
    "find_best_cut", "find_best_cuts", "enumerate_feasible_cuts",
    "SearchStats", "SearchLimits", "SearchResult", "MultiCutResult",
    "SelectionResult", "select_iterative", "select_optimal",
    "select_area_constrained",
    "select_clubbing", "select_maxmiso", "BlockTooLargeError",
    "CostModel", "uniform_cost_model", "estimated_speedup",
    "SweepSpec", "SweepOutcome", "SearchCache", "run_sweep",
    "Session", "ArtifactStore", "StoreStats", "default_store_dir",
    "FusedAFU", "RewriteResult", "rewrite_module",
    "MeasuredSpeedup", "SpeedupRow", "measure_selection", "run_speedup",
    "Application", "prepare_application", "compile_workload",
    "WORKLOADS", "Workload", "get_workload", "paper_benchmarks",
    "__version__",
]
