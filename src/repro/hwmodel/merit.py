"""The merit function ``M(S)`` of the paper (Section 7).

For a cut ``S`` of a basic block executed ``freq`` times:

* software cost: sum of the per-operation execution-stage cycles;
* hardware cost: ``ceil`` of the hardware critical path of the cut (the
  longest delay path through its operators, normalised to a MAC); for a
  disconnected cut this is the maximum over its connected components,
  because the components evaluate in parallel inside one AFU;
* ``M(S) = freq * (sw_cycles - ceil(hw_critical_path))``.

This module provides reference (non-incremental) evaluation used for
verification, reporting and the baselines.  The exact search re-derives the
same quantities incrementally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

from ..ir.dfg import DataFlowGraph
from .latency import CostModel


def cut_software_cycles(dfg: DataFlowGraph, cut: Iterable[int],
                        model: CostModel) -> float:
    """Total execution-stage cycles of the cut's operations in software."""
    return sum(model.sw(dfg.nodes[i]) for i in cut)


def cut_hardware_critical_path(dfg: DataFlowGraph, cut: Iterable[int],
                               model: CostModel) -> float:
    """Longest hardware delay path through the cut (MAC units).

    Works on any subset of nodes: paths only follow edges internal to the
    cut.  Empty cut has critical path 0.
    """
    members = sorted(set(cut))          # lower index = consumer
    member_set = set(members)
    longest: Dict[int, float] = {}
    # Process consumers first (ascending index): longest path *from* a node
    # to any sink of the cut.
    for i in members:
        best_succ = 0.0
        for s in dfg.succs[i]:
            if s in member_set:
                best_succ = max(best_succ, longest[s])
        longest[i] = model.hw(dfg.nodes[i]) + best_succ
    return max(longest.values(), default=0.0)


def cut_hardware_cycles(dfg: DataFlowGraph, cut: Iterable[int],
                        model: CostModel) -> int:
    """Latency of the cut as a single custom instruction, in cycles.

    A nonempty cut always costs at least one cycle: the instruction must
    occupy an issue slot even when its datapath is pure wiring.
    """
    members = list(cut)
    if not members:
        return 0
    cp = cut_hardware_critical_path(dfg, members, model)
    if not math.isfinite(cp):
        raise ValueError("cut contains an operation with no hardware form")
    return max(1, math.ceil(cp - 1e-9))


def cut_merit(dfg: DataFlowGraph, cut: Iterable[int],
              model: CostModel) -> float:
    """``M(S)``: estimated cycles saved per program run by the cut."""
    members = list(cut)
    if not members:
        return 0.0
    sw = cut_software_cycles(dfg, members, model)
    hw = cut_hardware_cycles(dfg, members, model)
    return dfg.weight * (sw - hw)


def cut_area(dfg: DataFlowGraph, cut: Iterable[int],
             model: CostModel) -> float:
    """Silicon area of the cut's datapath, in MAC-area units."""
    return sum(model.area_of(dfg.nodes[i]) for i in cut)


@dataclass(frozen=True)
class MeritBreakdown:
    """Full merit accounting for reports and EXPERIMENTS.md."""

    software_cycles: float
    hardware_cycles: int
    critical_path_mac: float
    saved_per_execution: float
    weight: float
    merit: float
    area_mac: float

    @property
    def speedup_local(self) -> float:
        """Speedup of the covered operations alone (sw / hw)."""
        if self.hardware_cycles == 0:
            return math.inf
        return self.software_cycles / self.hardware_cycles


def merit_breakdown(dfg: DataFlowGraph, cut: Iterable[int],
                    model: CostModel) -> MeritBreakdown:
    members = list(cut)
    sw = cut_software_cycles(dfg, members, model)
    cp = cut_hardware_critical_path(dfg, members, model)
    hw = cut_hardware_cycles(dfg, members, model)
    saved = sw - hw
    return MeritBreakdown(
        software_cycles=sw,
        hardware_cycles=hw,
        critical_path_mac=cp,
        saved_per_execution=saved,
        weight=dfg.weight,
        merit=dfg.weight * saved,
        area_mac=cut_area(dfg, members, model),
    )


def application_cycles(dfgs: Iterable[DataFlowGraph],
                       model: CostModel) -> float:
    """Baseline estimated execution cycles of the whole application
    (execution-stage cycles of every operation, weighted by block
    frequency) — the denominator of the paper's speedup numbers."""
    total = 0.0
    for dfg in dfgs:
        total += dfg.weight * dfg.software_cycles(model)
    return total


def estimated_speedup(baseline_cycles: float, total_merit: float) -> float:
    """Overall application speedup given total saved cycles."""
    if baseline_cycles <= 0:
        return 1.0
    remaining = baseline_cycles - total_merit
    if remaining <= 0:
        return math.inf
    return baseline_cycles / remaining
