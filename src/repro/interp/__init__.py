"""IR interpreter: execution, memory image, profiling, the compiled
backend (one closure per function) and batched N-inputs-per-call
execution (DESIGN.md §11–§12)."""

from .batch import (
    BatchResult,
    Lane,
    LaneResult,
    driver_lanes,
    image_verifier,
    run_batch,
)
from .interpreter import (
    BACKENDS,
    ExecutionLimitExceeded,
    Interpreter,
    RunResult,
    execute,
    profile_module,
    resolve_backend,
)
from .memory import Memory, TrapError
from .profile import ProfileData

__all__ = [
    "Interpreter", "execute", "profile_module", "RunResult",
    "Memory", "TrapError", "ProfileData", "ExecutionLimitExceeded",
    "BACKENDS", "resolve_backend",
    "BatchResult", "Lane", "LaneResult", "driver_lanes", "image_verifier",
    "run_batch",
]
