"""Execution layer: run selected instruction-set extensions for real.

The rest of the system stops at *identifying* custom instructions; this
package closes the paper's loop by rewriting programs to use them
(:mod:`repro.exec.rewrite`), executing the rewritten IR in the
interpreter through functional AFU models, and measuring end-to-end
cycle-count speedups (:mod:`repro.exec.cycles`,
:mod:`repro.exec.speedup`) — the identify -> rewrite -> execute ->
measure pipeline behind ``repro speedup`` and Fig. 9/10-style tables.
The same fused units render as Verilog (:mod:`repro.exec.verilog`).
"""

from .cycles import CycleReport, module_block_costs, run_with_cycles
from .rewrite import (
    FusedAFU,
    FusedGate,
    RewriteError,
    RewriteResult,
    clone_module,
    rewrite_module,
)
from .speedup import (
    BatchMeasurement,
    MeasuredSpeedup,
    SpeedupRow,
    format_speedup_table,
    measure_baseline,
    measure_batch,
    measure_selection,
    run_speedup,
)
from .verilog import emit_verilog

__all__ = [
    "CycleReport", "module_block_costs", "run_with_cycles",
    "FusedAFU", "FusedGate", "RewriteError", "RewriteResult",
    "clone_module", "rewrite_module",
    "BatchMeasurement", "MeasuredSpeedup", "SpeedupRow",
    "format_speedup_table", "measure_baseline", "measure_batch",
    "measure_selection", "run_speedup", "emit_verilog",
]
