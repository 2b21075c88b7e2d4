"""Shared types for the selection problem (the paper's Problem 2).

A selection algorithm consumes the DFGs of all (profiled) basic blocks of
an application and returns up to ``Ninstr`` cuts maximising total merit.
:class:`SelectionResult` carries enough information to regenerate every
number reported in the paper's Fig. 11: the chosen cuts, the total merit
(saved cycles) and the resulting estimated application speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..hwmodel.latency import CostModel
from ..hwmodel.merit import application_cycles, estimated_speedup
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut
from .single_cut import SearchStats


@dataclass
class SelectionResult:
    """Outcome of a selection algorithm run over a whole application."""

    algorithm: str
    constraints: Constraints
    cuts: List[Cut]
    total_merit: float
    baseline_cycles: float
    stats: SearchStats = field(default_factory=SearchStats)
    complete: bool = True

    @property
    def speedup(self) -> float:
        """Estimated whole-application speedup (paper's Fig. 11 metric)."""
        return estimated_speedup(self.baseline_cycles, self.total_merit)

    @property
    def num_instructions(self) -> int:
        """Number of custom instructions the algorithm selected."""
        return len(self.cuts)

    def describe(self) -> str:
        """Multi-line report: header (algorithm, constraints, merit,
        speedup) followed by one line per selected cut."""
        lines = [
            f"{self.algorithm} ({self.constraints.describe()}): "
            f"{self.num_instructions} instruction(s), "
            f"merit={self.total_merit:g} cycles saved, "
            f"speedup={self.speedup:.3f}x"
        ]
        for k, cut in enumerate(self.cuts):
            lines.append(f"  [{k}] {cut.describe()}")
        return "\n".join(lines)


def make_result(
    algorithm: str,
    constraints: Constraints,
    cuts: Sequence[Cut],
    dfgs: Sequence[DataFlowGraph],
    model: CostModel,
    stats: Optional[SearchStats] = None,
    complete: bool = True,
) -> SelectionResult:
    """Assemble a :class:`SelectionResult`, computing the baseline.

    Every selection algorithm funnels through here, so this is where
    the independent mask-based checker re-validates each returned cut
    against the paper's constraints when ``$REPRO_VERIFY`` is on — a
    failure names the algorithm, the cut, its block and the violated
    constraint code (``S0xx``).
    """
    from ..analysis.selection_check import assert_cut
    from ..analysis.verifier import verify_enabled

    if verify_enabled():
        for cut in cuts:
            assert_cut(cut, constraints.nin, constraints.nout,
                       algorithm=algorithm)
    total_merit = sum(cut.merit for cut in cuts)
    return SelectionResult(
        algorithm=algorithm,
        constraints=constraints,
        cuts=list(cuts),
        total_merit=total_merit,
        baseline_cycles=application_cycles(dfgs, model),
        stats=stats or SearchStats(),
        complete=complete,
    )


def merge_stats(target: SearchStats, source: SearchStats) -> None:
    """Accumulate *source* counters into *target* (graph_nodes keeps the
    maximum, the rest add up; ``space_covered`` becomes a sum of
    per-search fractions and is only meaningful as a relative progress
    measure across identically structured runs)."""
    target.graph_nodes = max(target.graph_nodes, source.graph_nodes)
    target.cuts_considered += source.cuts_considered
    target.cuts_feasible += source.cuts_feasible
    target.cuts_infeasible += source.cuts_infeasible
    target.best_updates += source.best_updates
    target.ub_pruned += source.ub_pruned
    target.nin_pruned += source.nin_pruned
    target.space_covered += source.space_covered
