"""Fuzzing campaigns: many programs, telemetry, artifacts.

:func:`run_campaign` drives N generated programs through the
differential oracle, round-robining over the generator shapes (or
pinned to one), and collects the telemetry a soak run is judged by:
per-shape coverage, cuts found, blocks rewritten, trap counts, the
deepest loop nest reached, and the
delta of codegen *fallback codes* over the campaign (a silent surge of
``unsupported-opcode`` fallbacks would mean the compiled backend quietly
stopped being exercised — the differential would still pass, on easier
terms).

Every failing program is shrunk with :func:`repro.fuzz.reduce_program`
and written to an artifact directory::

    <artifacts>/<shape>-seed<seed>/
        original.c      the generated source as found
        reduced.c       the minimized reproducer
        report.json     stages, divergence details, reduction stats

Re-running a failure is then ``repro fuzz --seed N --shape S`` — the
generator is deterministic, so the seed *is* the reproducer; the
artifact files exist for humans and for checking into
``tests/fuzz/corpus/``.

:func:`check_invalid_corpus` is the error-path half: N invalid programs
per corruption stage, asserting every one raises a **structured**
frontend diagnostic (never a raw traceback, never silent acceptance).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..interp.compile import code_memo_stats
from .generator import (
    SHAPES,
    GeneratedProgram,
    generate_invalid,
    generate_program,
)
from .oracle import DifferentialReport, run_differential
from .reduce import reduce_program

__all__ = ["CampaignResult", "FailureRecord", "check_invalid_corpus",
           "run_campaign"]


@dataclass(frozen=True)
class FailureRecord:
    """One campaign failure, with its on-disk artifacts (if written)."""

    seed: int
    shape: str
    stages: List[str]
    artifact_dir: Optional[str]
    reduced_lines: Optional[int]


@dataclass
class CampaignResult:
    """What a campaign ran and what it found."""

    programs: int = 0
    by_shape: Dict[str, int] = field(default_factory=dict)
    cuts: int = 0
    rewritten_blocks: int = 0
    traps: int = 0
    max_loop_depth: int = 0
    fallback_codes: Dict[str, int] = field(default_factory=dict)
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "programs": self.programs,
            "by_shape": dict(sorted(self.by_shape.items())),
            "cuts": self.cuts,
            "rewritten_blocks": self.rewritten_blocks,
            "traps": self.traps,
            "max_loop_depth": self.max_loop_depth,
            "fallback_codes": dict(sorted(self.fallback_codes.items())),
            "failures": [{
                "seed": f.seed, "shape": f.shape, "stages": f.stages,
                "artifact_dir": f.artifact_dir,
                "reduced_lines": f.reduced_lines,
            } for f in self.failures],
            "ok": self.ok,
        }


def _write_artifacts(artifacts: str, program: GeneratedProgram,
                     report: DifferentialReport,
                     **oracle_kwargs) -> FailureRecord:
    """Shrink one failure and persist original + reproducer + report."""
    reduction = reduce_program(program, **oracle_kwargs)
    directory = os.path.join(artifacts,
                             f"{program.shape}-seed{program.seed}")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "original.c"), "w") as fh:
        fh.write(program.source)
    with open(os.path.join(directory, "reduced.c"), "w") as fh:
        fh.write(reduction.source)
    with open(os.path.join(directory, "report.json"), "w") as fh:
        json.dump({
            "report": report.as_dict(),
            "arg_sets": [list(a) for a in program.arg_sets],
            "reduction": {
                "original_lines": reduction.original_lines,
                "reduced_lines": reduction.reduced_lines,
                "stage": reduction.stage,
                "tests": reduction.tests,
            },
        }, fh, indent=2)
        fh.write("\n")
    return FailureRecord(
        seed=program.seed, shape=program.shape,
        stages=sorted({f.stage for f in report.failures}),
        artifact_dir=directory,
        reduced_lines=reduction.reduced_lines)


def run_campaign(
    count: int = 100,
    seed: int = 0,
    shape: Optional[str] = None,
    artifacts: Optional[str] = None,
    on_progress: Optional[Callable[[int, DifferentialReport], None]]
        = None,
    **oracle_kwargs,
) -> CampaignResult:
    """Run *count* generated programs through the differential oracle.

    Args:
        count: number of programs.
        seed: base seed; program ``i`` uses seed ``seed + i``.
        shape: pin every program to one generator shape, or ``None``
            to round-robin across all of :data:`SHAPES`.
        artifacts: directory for failing-case reproducers; failures
            are reduced and written there (created on demand).  With
            ``None``, failures are recorded but nothing hits disk.
        on_progress: optional callback ``f(index, report)`` after each
            program — the CLI uses it for live soak telemetry.
        **oracle_kwargs: forwarded to :func:`run_differential`
            (``inject=`` turns the campaign into an oracle self-test).

    Returns:
        A :class:`CampaignResult`; ``result.ok`` means zero failures.
    """
    result = CampaignResult()
    before = dict(code_memo_stats().fallback_codes)
    for index in range(count):
        this_shape = shape or SHAPES[index % len(SHAPES)]
        program = generate_program(seed + index, this_shape)
        report = run_differential(program, **oracle_kwargs)
        result.programs += 1
        result.by_shape[this_shape] = \
            result.by_shape.get(this_shape, 0) + 1
        result.cuts += report.cuts
        result.rewritten_blocks += report.rewritten_blocks
        result.traps += report.traps
        result.max_loop_depth = max(result.max_loop_depth,
                                    report.loop_depth)
        if not report.ok:
            if artifacts:
                record = _write_artifacts(artifacts, program, report,
                                          **oracle_kwargs)
            else:
                record = FailureRecord(
                    seed=program.seed, shape=program.shape,
                    stages=sorted({f.stage for f in report.failures}),
                    artifact_dir=None, reduced_lines=None)
            result.failures.append(record)
        if on_progress is not None:
            on_progress(index, report)
    after = code_memo_stats().fallback_codes
    result.fallback_codes = {
        code: after[code] - before.get(code, 0)
        for code in after if after[code] - before.get(code, 0)}
    return result


def check_invalid_corpus(count: int = 50, seed: int = 0) -> List[str]:
    """Error-path sweep: *count* invalid programs, structured failures.

    Each generated :class:`~repro.fuzz.generator.InvalidProgram` must
    raise the exact diagnostic class its corruption stage promises
    (``LexError`` / ``ParseError`` / ``SemanticError``).  Returns a
    list of problem descriptions — empty means the frontend never
    leaked a raw traceback and never accepted a corrupted program.
    """
    from ..frontend import analyze, parse
    from ..frontend.errors import (
        LexError,
        MiniCError,
        ParseError,
        SemanticError,
    )
    expected = {"lex": LexError, "parse": ParseError,
                "sema": SemanticError}
    problems: List[str] = []
    for index in range(count):
        case = generate_invalid(seed + index)
        want = expected[case.stage]
        try:
            analyze(parse(case.source))
        except MiniCError as exc:
            if not isinstance(exc, want):
                problems.append(
                    f"seed {case.seed} [{case.stage}/{case.kind}]: "
                    f"raised {type(exc).__name__}, wanted "
                    f"{want.__name__}")
            elif not str(exc):
                problems.append(
                    f"seed {case.seed} [{case.stage}/{case.kind}]: "
                    f"empty diagnostic message")
        except Exception as exc:  # noqa: BLE001 - the point of the test
            problems.append(
                f"seed {case.seed} [{case.stage}/{case.kind}]: raw "
                f"{type(exc).__name__}: {exc}")
        else:
            problems.append(
                f"seed {case.seed} [{case.stage}/{case.kind}]: "
                f"invalid program accepted")
    return problems
