"""Diagnostic records of the static-analysis subsystem.

Every check in :mod:`repro.analysis` reports through one vocabulary: a
:class:`Diagnostic` carries a *stable code* (documented in
:data:`CODES`, golden-tested in ``tests/analysis/``), a severity, the
``function/block`` location and a human-readable message.  Codes are
API: tools and CI gates match on them, so a code is never renamed or
reused — retired codes stay reserved.

Code families:

* ``V0xx`` — CFG well-formedness (structure of blocks and terminators);
* ``V1xx`` — per-instruction opcode contracts (arity, operand kinds,
  array/callee symbols, target counts);
* ``V2xx`` — dataflow invariants (def-before-use along all paths,
  destination aliasing);
* ``V3xx`` — post-rewrite ISE contracts (multi-dest/netlist binding,
  memory-op chaining, fused-region schedulability);
* ``S0xx`` — selection-checker violations of the paper's Problem-1
  constraints (convexity, IN/OUT ports, forbidden ops);
* ``C0xx`` — compiled-backend fallback reasons that are not IR
  verification failures (untranslatable, not ill-formed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Stable code -> one-line meaning.  The single source of truth; the
#: verifier, the selection checker and the docs all key into this table
#: (``tests/analysis/test_diagnostics.py`` asserts full coverage).
CODES = {
    # CFG well-formedness.
    "V001": "function has no basic blocks",
    "V002": "basic block has no terminator",
    "V003": "terminator is not the last instruction of its block",
    "V004": "branch target does not name a block of the function",
    "V005": "function block list and label index disagree",
    "V006": "basic block is unreachable from the entry",
    # Opcode contracts.
    "V101": "operand count does not match the opcode's arity",
    "V102": "opcode requires a destination register but has none",
    "V103": "opcode defines no register but a destination is set",
    "V104": "memory opcode has no (or an undeclared) array symbol",
    "V105": "call references an unknown function or wrong arity",
    "V106": "terminator target count does not match its opcode",
    # Dataflow invariants.
    "V201": "register may be read before any definition reaches it",
    "V202": "instruction defines the same register more than once",
    # Post-rewrite ISE contracts.
    "V301": "ISE operand count does not match the AFU's input ports",
    "V302": "ISE destination count does not match the AFU's outputs",
    "V303": "AFU netlist is not in dataflow order or drives no output",
    "V304": "AFU netlist contains an AFU-illegal opcode",
    "V305": "rewrite reordered the block's memory/call chain",
    "V306": "memory-carried dependence cycles through a fused region",
    # Selection constraints (the paper's Problem 1).
    "S001": "cut is not register-convex",
    "S002": "cut reads more values than the read-port budget (IN > Nin)",
    "S003": "cut writes more values than the write-port budget "
            "(OUT > Nout)",
    "S004": "cut contains a forbidden node (memory, call, supernode)",
    "S005": "cut references node indices outside its graph",
    "S006": "cut's recorded metrics disagree with the mask recomputation",
    # Compiled-backend fallback reasons (not IR errors).
    "C001": "block falls back to the walker: untranslatable opcode",
    "C002": "block falls back to the walker: unsupported operand",
    "C004": "function falls back: control flow the structuring cannot "
            "express (irreducible, too deeply nested, or an edge it "
            "cannot place)",
}

#: Diagnostic severities.  ``error`` fails gates; ``warning`` is
#: reported but keeps a module "clean" for the CI check gate.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static check.

    Attributes:
        code: stable identifier from :data:`CODES`.
        message: human-readable detail (includes the offending names).
        function: function name, or ``None`` for module-level findings.
        block: block label, or ``None``.
        severity: ``"error"`` or ``"warning"``.
    """

    code: str
    message: str
    function: Optional[str] = None
    block: Optional[str] = None
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        """``function/block`` (or as much of it as is known)."""
        if self.function and self.block:
            return f"{self.function}/{self.block}"
        return self.function or self.block or "<module>"

    def render(self) -> str:
        """The canonical one-line form: ``CODE location: message``."""
        return f"{self.code} {self.location}: {self.message}"

    def as_dict(self) -> dict:
        """Flat record for ``repro check --json`` artifacts."""
        return {
            "code": self.code,
            "severity": self.severity,
            "function": self.function,
            "block": self.block,
            "message": self.message,
        }

    def __str__(self) -> str:
        return self.render()


class VerificationError(ValueError):
    """Raised when a verifying caller finds error-severity diagnostics.

    Carries the offending diagnostics so programmatic callers (and test
    assertions) can match on codes instead of parsing the message.
    """

    def __init__(self, context: str,
                 diagnostics: Sequence[Diagnostic]) -> None:
        self.context = context
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        lines = [f"{context}: {len(self.diagnostics)} verifier "
                 f"diagnostic(s)"]
        lines.extend(f"  {d.render()}" for d in self.diagnostics)
        super().__init__("\n".join(lines))


def errors_of(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The error-severity subset of *diagnostics* (gate currency)."""
    return [d for d in diagnostics if d.severity == "error"]
