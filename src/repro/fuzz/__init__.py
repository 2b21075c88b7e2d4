"""Seeded program generation + full-pipeline differential fuzzing.

The package turns the toolchain into its own oracle:

* :mod:`~repro.fuzz.generator` — deterministic MiniC programs in
  paper-relevant shapes (§4 constraints: deep chains, multi-output
  regions, branchy single-entry chains, memory-carried dependences,
  near-port-limit operand pools), plus an invalid-program mode for
  frontend error paths;
* :mod:`~repro.fuzz.oracle` — one program through everything: both
  execution backends (``BACKENDS``: compiled and walker), baseline vs.
  rewritten, single vs. batched lanes, verifier and selection checker,
  all bit-identical or it's a finding;
* :mod:`~repro.fuzz.reduce` — ddmin + brace-unwrap shrinking of any
  failure to a small reproducer;
* :mod:`~repro.fuzz.campaign` — N-program sweeps with telemetry and
  on-disk artifacts, the engine behind ``repro fuzz``.
"""

from .campaign import (
    CampaignResult,
    FailureRecord,
    check_invalid_corpus,
    run_campaign,
)
from .generator import (
    INVALID_KINDS,
    SHAPES,
    GeneratedProgram,
    InvalidProgram,
    generate_invalid,
    generate_program,
)
from .oracle import (
    DEFAULT_LIMITS,
    PHASE_OF_STAGE,
    DifferentialReport,
    Divergence,
    run_differential,
)
from .reduce import ReductionResult, failure_stages, reduce_program

__all__ = [
    "CampaignResult",
    "DEFAULT_LIMITS",
    "DifferentialReport",
    "Divergence",
    "FailureRecord",
    "GeneratedProgram",
    "INVALID_KINDS",
    "InvalidProgram",
    "PHASE_OF_STAGE",
    "ReductionResult",
    "SHAPES",
    "check_invalid_corpus",
    "failure_stages",
    "generate_invalid",
    "generate_program",
    "reduce_program",
    "run_campaign",
    "run_differential",
]
