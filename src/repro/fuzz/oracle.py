"""The differential oracle: one generated program through everything.

:func:`run_differential` drives a single MiniC source through the full
toolchain and cross-checks every pair of paths that is obliged to be
bit-identical (DESIGN.md §11–§12), plus the static gates of §13:

1. **frontend + optimiser** — parse/analyse/lower, then the cleanup
   pipeline with if-conversion; the optimised module must pass the full
   IR verifier, and its observable behaviour (return value + final
   memory image) must match the *unoptimised* module run on the walker;
2. **backends** — ``walk`` vs ``compiled`` on the
   optimised module: values, step counts, profiles, final memory and
   trap messages all bit-identical;
3. **selection** — iterative selection over the profiled DFGs; every
   returned cut re-validated by the independent mask checker
   (``S0xx`` codes), and a budgeted selection that completed must pick
   the same cuts as the default pruned search (``selection-prune``);
4. **rewrite** — the ISE-rewritten clone passes ``check_rewrite``
   (full verifier + memory-chain preservation) and behaves identically
   to the optimised baseline on both backends (its step counts
   differ from baseline by design but must agree *across* backends);
5. **batch** — :func:`repro.interp.run_batch` over the argument sets
   (baseline and rewritten, every backend) must reproduce the
   single-run outcomes lane for lane, including a deliberately
   starved lane whose step budget expires mid-program — the PR 5
   step-accounting drift class.

A divergence anywhere produces a :class:`Divergence` with the stage
name and a human-readable detail; the report never raises, so a soak
can log and keep going.  The optional *inject* hook mutates the
optimised module *after* the unoptimised reference run — fault
injection used by the reducer's tests (and handy for validating that
the oracle actually catches miscompiles).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    NaturalLoops,
    check_cut_record,
    check_rewrite,
    errors_of,
    verify_module,
)
from ..core import Constraints, SearchLimits
from ..core.select_iterative import select_iterative
from ..exec.rewrite import RewriteError, rewrite_module
from ..frontend import analyze, lower_program, parse
from ..frontend.errors import MiniCError
from ..hwmodel import CostModel
from ..interp import (
    BACKENDS,
    ExecutionLimitExceeded,
    Interpreter,
    Lane,
    Memory,
    ProfileData,
    TrapError,
    run_batch,
)
from ..passes import optimize_module
from ..pipeline import profiled_dfgs
from .generator import GeneratedProgram

__all__ = ["DEFAULT_LIMITS", "PHASE_OF_STAGE", "Divergence",
           "DifferentialReport", "run_differential"]

#: Which pipeline phase each failure stage belongs to; used by the
#: reducer to stop re-running phases beyond the one that failed.
PHASE_OF_STAGE = {
    "frontend": 0, "verifier": 0,
    "backend": 1, "optimizer": 1,
    "selection": 2, "selection-check": 2, "selection-prune": 2,
    "rewrite": 3, "rewrite-check": 3, "rewritten": 3,
    "rewritten-backend": 3,
    "batch": 4, "rewritten-batch": 4,
}

#: Identification budget per generated program: big enough that tiny
#: programs search exhaustively, bounded so a pathological seed cannot
#: stall a soak.
DEFAULT_LIMITS = SearchLimits(max_considered=50_000)

#: Per-run step budget: generated programs are terminating with trip
#: counts of a few dozen, so this is pure runaway insurance.
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Divergence:
    """One oracle failure: which stage broke and how."""

    stage: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.stage}] {self.detail}"


@dataclass
class DifferentialReport:
    """Outcome and telemetry of one program's differential run."""

    seed: int
    shape: str
    failures: List[Divergence] = field(default_factory=list)
    cuts: int = 0
    rewritten_blocks: int = 0
    baseline_steps: int = 0
    reference_steps: int = 0
    traps: int = 0
    loop_depth: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, stage: str, detail: str) -> None:
        self.failures.append(Divergence(stage=stage, detail=detail))

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "shape": self.shape,
            "ok": self.ok,
            "failures": [{"stage": f.stage, "detail": f.detail}
                         for f in self.failures],
            "cuts": self.cuts,
            "rewritten_blocks": self.rewritten_blocks,
            "baseline_steps": self.baseline_steps,
            "reference_steps": self.reference_steps,
            "traps": self.traps,
            "loop_depth": self.loop_depth,
        }


# ----------------------------------------------------------------------
# Execution outcome capture.
# ----------------------------------------------------------------------
def _run_single(module, entry: str, args: Sequence[int], backend: str,
                max_steps: int = MAX_STEPS) -> Tuple:
    """One execution distilled to its bit-identity surface:
    ``(kind, value-or-message, steps, profile counts, calls, memory)``.
    """
    memory = Memory(module)
    interp = Interpreter(module, memory=memory, backend=backend,
                         max_steps=max_steps)
    try:
        run = interp.run(entry, args)
        kind, payload, steps = "ok", run.value, run.steps
    except TrapError as exc:
        kind, payload, steps = "trap", str(exc), interp._steps
    except ExecutionLimitExceeded as exc:
        kind, payload, steps = "limit", str(exc), interp._steps
    return (kind, payload, steps, dict(interp.profile.counts),
            dict(interp.profile.calls), memory.arrays)


def _lane_summary(lane) -> Tuple:
    """A batch lane's identity surface, parallel to :func:`_run_single`."""
    kind = "ok" if lane.ok else ("limit" if lane.limit else "trap")
    payload = lane.value if lane.ok else lane.trap
    return (kind, payload, lane.steps, dict(lane.profile.counts),
            dict(lane.profile.calls), lane.arrays)


def _describe(outcome: Tuple) -> str:
    kind, payload, steps = outcome[0], outcome[1], outcome[2]
    return f"{kind}(value={payload!r}, steps={steps})"


# ----------------------------------------------------------------------
# The oracle.
# ----------------------------------------------------------------------
def run_differential(
    program: GeneratedProgram,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    nin: int = 4,
    nout: int = 2,
    ninstr: int = 8,
    inject: Optional[Callable] = None,
    phases: int = 4,
    max_steps: int = MAX_STEPS,
) -> DifferentialReport:
    """Full-pipeline differential check of one generated program.

    Args:
        program: the generated case (source + driving argument sets).
        model: cost model for selection/rewrite (default paper model).
        limits: identification budget (default :data:`DEFAULT_LIMITS`).
        nin / nout / ninstr: the paper's port and instruction budgets
            used for the selection phase.
        inject: optional fault hook ``inject(module) -> None`` applied
            to the optimised module before any differential execution —
            a simulated compiler bug the oracle is expected to catch.
        phases: last phase to run (see :data:`PHASE_OF_STAGE`); the
            default runs everything.  The reducer lowers this to the
            failing phase so shrinking stays fast.
        max_steps: per-run step budget.  The reducer shrinks this to a
            multiple of the original program's runtime so candidates
            that turn into infinite loops die fast instead of walking
            two million steps.

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` is the verdict.
    """
    model = model or CostModel()
    limits = limits or DEFAULT_LIMITS
    report = DifferentialReport(seed=program.seed, shape=program.shape)
    entry = program.entry

    # ---- 1. frontend: unoptimised reference + optimised module ------
    try:
        ast = parse(program.source)
        raw = lower_program(ast, analyze(ast), name="fuzz-raw")
        ast2 = parse(program.source)
        module = lower_program(ast2, analyze(ast2), name="fuzz")
        optimize_module(module, if_convert=True)
    except MiniCError as exc:
        report.fail("frontend", f"valid program rejected: {exc}")
        return report
    if inject is not None:
        inject(module)
    else:
        # A deliberately broken module is expected to fail V-codes;
        # only gate the verifier when the module should be pristine.
        verifier_errors = errors_of(verify_module(module))
        if verifier_errors:
            report.fail("verifier", "; ".join(
                f"{d.code}: {d.message}" for d in verifier_errors[:5]))
            return report

    report.loop_depth = max(NaturalLoops(func).max_depth()
                            for func in module.functions.values())
    arg_sets = [list(args) for args in program.arg_sets]

    # ---- 2. backend differential on the optimised module ------------
    baseline: Dict[int, Tuple] = {}
    for idx, args in enumerate(arg_sets):
        reference = _run_single(raw, entry, args, "walk", max_steps)
        outcomes = {backend: _run_single(module, entry, args, backend,
                                         max_steps)
                    for backend in BACKENDS}
        walk = outcomes["walk"]
        baseline[idx] = walk
        if walk[0] != "ok":
            report.traps += 1
        report.baseline_steps += walk[2]
        report.reference_steps += reference[2]
        for backend in BACKENDS:
            if outcomes[backend] != walk:
                report.fail("backend",
                            f"args{tuple(args)}: {backend} "
                            f"{_describe(outcomes[backend])} != walk "
                            f"{_describe(walk)}")
        # Optimisations may change steps/profile but never behaviour.
        if (walk[0], walk[1], walk[5]) != (reference[0], reference[1],
                                           reference[5]):
            report.fail("optimizer",
                        f"args{tuple(args)}: optimised "
                        f"{_describe(walk)} != unoptimised "
                        f"{_describe(reference)}")
    if report.failures or phases <= 1:
        return report

    # ---- 3. selection + independent cut checker ----------------------
    # The DFG weights' ground truth: arg set 0's walker block counts.
    dfgs = profiled_dfgs(module, ProfileData(counts=Counter(baseline[0][3])))
    selection = None
    cons = Constraints(nin=nin, nout=nout, ninstr=ninstr)
    if dfgs:
        try:
            selection = select_iterative(dfgs, cons, model, limits)
        except Exception as exc:  # noqa: BLE001 - any crash is a find
            report.fail("selection", f"{type(exc).__name__}: {exc}")
            return report
        report.cuts = len(selection.cuts)
        for cut in selection.cuts:
            bad = errors_of(check_cut_record(cut, nin, nout))
            if bad:
                report.fail("selection-check", "; ".join(
                    f"{d.code}: {d.message}" for d in bad[:5]))
        if selection.complete:
            # A budgeted search walks the paper's tree; once it finished,
            # the pruned default search must land on the same cuts.
            try:
                pruned = _cut_keys(
                    select_iterative(dfgs, cons, model, None))
            except Exception as exc:  # noqa: BLE001 - any crash is a find
                pruned = f"{type(exc).__name__}: {exc}"
            if pruned != _cut_keys(selection):
                report.fail("selection-prune",
                            f"pruned {pruned} != budgeted "
                            f"{_cut_keys(selection)}")

    if report.failures or phases <= 2:
        return report

    # ---- 4. rewrite + rewritten differential -------------------------
    rewritten = None
    if selection is not None and selection.cuts:
        try:
            rewritten = rewrite_module(module, selection.cuts, model,
                                       verify=False)
        except RewriteError as exc:
            report.fail("rewrite", str(exc))
        if rewritten is not None:
            report.rewritten_blocks = rewritten.rewritten_blocks
            bad = errors_of(check_rewrite(module, rewritten.module))
            if bad:
                report.fail("rewrite-check", "; ".join(
                    f"{d.code}: {d.message}" for d in bad[:5]))
    rewritten_runs: Dict[int, Tuple] = {}
    if rewritten is not None and not report.failures:
        for idx, args in enumerate(arg_sets):
            outcomes = {backend: _run_single(rewritten.module, entry,
                                             args, backend, max_steps)
                        for backend in BACKENDS}
            walk = outcomes["walk"]
            rewritten_runs[idx] = walk
            for backend in BACKENDS:
                if outcomes[backend] != walk:
                    report.fail("rewritten-backend",
                                f"args{tuple(args)}: {backend} "
                                f"{_describe(outcomes[backend])} != "
                                f"walk {_describe(walk)}")
            # The rewrite may change step counts, never behaviour.
            base = baseline[idx]
            if (walk[0], walk[1], walk[5]) != (base[0], base[1],
                                               base[5]):
                report.fail("rewritten",
                            f"args{tuple(args)}: rewritten "
                            f"{_describe(walk)} != baseline "
                            f"{_describe(base)}")
    if report.failures or phases <= 3:
        return report

    # ---- 5. batched lanes vs. single runs ----------------------------
    # One extra lane is starved to half the reference step count, so
    # every batch exercises mid-program budget expiry (the step-
    # accounting drift class) — unless the program is so tiny the
    # budget cannot expire mid-run.
    lanes = [Lane(args=tuple(args)) for args in arg_sets]
    starved = max(1, baseline[0][2] // 2)
    if starved < baseline[0][2]:
        lanes.append(Lane(args=tuple(arg_sets[0]), max_steps=starved))
    singles = dict(baseline)
    singles[len(arg_sets)] = _run_single(module, entry, arg_sets[0],
                                         "walk", max_steps=starved)
    modules = [("batch", module, singles)]
    if rewritten is not None:
        rw_singles = dict(rewritten_runs)
        rw_singles[len(arg_sets)] = _run_single(
            rewritten.module, entry, arg_sets[0], "walk",
            max_steps=starved)
        modules.append(("rewritten-batch", rewritten.module, rw_singles))
    for stage, mod, singles_map in modules:
        for backend in BACKENDS:
            batch = run_batch(mod, entry, lanes, backend=backend,
                              max_steps=max_steps, keep_arrays=True)
            for lane_result in batch.lanes:
                got = _lane_summary(lane_result)
                want = singles_map[lane_result.index]
                if got != want:
                    report.fail(
                        stage,
                        f"lane {lane_result.index} on {backend}: "
                        f"{_describe(got)} != single "
                        f"{_describe(want)}")
    return report


def _cut_keys(selection) -> List[Tuple]:
    """The selected cuts as ``(block, nodes, merit)``, in pick order."""
    return [(cut.dfg.name, tuple(sorted(cut.nodes)), cut.merit)
            for cut in selection.cuts]
