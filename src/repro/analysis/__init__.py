"""Static analysis and verification (DESIGN.md §13).

Three layers, all pure (no execution, no mutation):

* :mod:`repro.analysis.dataflow` — worklist dataflow framework
  (dominance, reaching definitions, definite assignment, natural
  loops; liveness re-exported from ``ir/cfg.py``);
* :mod:`repro.analysis.verifier` — module/function verifier with the
  stable diagnostic codes of :mod:`repro.analysis.diagnostics`, plus
  rewrite-specific checks (memory-chain preservation, fused-region
  schedulability);
* :mod:`repro.analysis.selection_check` — an independent, mask-based
  re-validation of selected cuts against the paper's Problem-1
  constraints.

Verification is opt-in on hot paths: :func:`verify_enabled` resolves
``$REPRO_VERIFY`` (off by default; the test suite and CI switch it on).
"""

from .dataflow import (
    DefiniteAssignment,
    Dominance,
    Liveness,
    NaturalLoops,
    ReachingDefinitions,
    solve_forward,
)
from .diagnostics import CODES, Diagnostic, VerificationError, errors_of
from .selection_check import assert_cut, check_cut, check_cut_record
from .verifier import (
    assert_verified,
    check_fused_schedule,
    check_rewrite,
    verify_enabled,
    verify_function,
    verify_module,
)

__all__ = [
    "CODES",
    "DefiniteAssignment",
    "Diagnostic",
    "Dominance",
    "Liveness",
    "ReachingDefinitions",
    "VerificationError",
    "assert_cut",
    "assert_verified",
    "check_cut",
    "check_cut_record",
    "check_fused_schedule",
    "check_rewrite",
    "errors_of",
    "solve_forward",
    "verify_enabled",
    "verify_function",
    "verify_module",
]
