"""Cuts (candidate custom instructions) and microarchitectural constraints.

A :class:`Cut` is an immutable record of a subgraph selected inside one
basic-block DFG, together with its measured properties (``IN``/``OUT``
counts, convexity, merit).  :func:`evaluate_cut` computes these properties
from scratch — it is the *reference* semantics that the incremental search
must agree with (and is property-tested against it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from ..hwmodel.latency import CostModel
from ..hwmodel.merit import cut_hardware_cycles, cut_software_cycles
from ..ir.dfg import DataFlowGraph


@dataclass(frozen=True)
class Constraints:
    """The paper's microarchitectural constraints (Problem 1).

    Attributes:
        nin: register-file read ports usable by one custom instruction
            (``IN(S) <= nin``).
        nout: register-file write ports (``OUT(S) <= nout``).
        ninstr: maximum number of custom instructions to select
            (Problem 2); only meaningful for selection algorithms.
    """

    nin: int
    nout: int
    ninstr: int = 1

    def __post_init__(self) -> None:
        if self.nin < 1 or self.nout < 1 or self.ninstr < 1:
            raise ValueError("constraints must be positive")

    def describe(self) -> str:
        """Human-readable one-liner used by every report header."""
        return f"Nin={self.nin}, Nout={self.nout}, Ninstr={self.ninstr}"


@dataclass(frozen=True)
class Cut:
    """A candidate custom instruction: a set of DFG nodes plus metrics."""

    dfg: DataFlowGraph
    nodes: FrozenSet[int]
    num_inputs: int
    num_outputs: int
    convex: bool
    merit: float
    software_cycles: float
    hardware_cycles: int

    @property
    def size(self) -> int:
        """Number of DFG nodes (operations) inside the cut."""
        return len(self.nodes)

    def satisfies(self, constraints: Constraints) -> bool:
        """True when the cut is convex and fits the register-file port
        budget (``IN(S) <= Nin`` and ``OUT(S) <= Nout``)."""
        return (self.convex
                and self.num_inputs <= constraints.nin
                and self.num_outputs <= constraints.nout)

    def node_labels(self) -> List[str]:
        """Labels of the member nodes in index order (for reports)."""
        return [self.dfg.nodes[i].label for i in sorted(self.nodes)]

    def is_connected(self) -> bool:
        """True if the cut's nodes form one weakly connected component."""
        members = set(self.nodes)
        if not members:
            return True
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for x in self.dfg.succs[i] + self.dfg.preds[i]:
                if x in members and x not in seen:
                    seen.add(x)
                    stack.append(x)
        return seen == members

    def describe(self) -> str:
        """One-line summary: size, connectivity, I/O counts and merit."""
        kind = "connected" if self.is_connected() else "disconnected"
        return (f"cut of {self.size} nodes in {self.dfg.name} "
                f"({kind}; IN={self.num_inputs}, OUT={self.num_outputs}, "
                f"sw={self.software_cycles:g}cy, hw={self.hardware_cycles}cy,"
                f" merit={self.merit:g})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cut {sorted(self.nodes)} merit={self.merit:g}>"


def evaluate_cut(dfg: DataFlowGraph, nodes: Iterable[int],
                 model: CostModel) -> Cut:
    """Compute all properties of the cut *nodes* from first principles."""
    members = frozenset(nodes)
    for i in members:
        if i < 0 or i >= dfg.n:
            raise ValueError(f"node index {i} out of range for {dfg.name}")
    convex = dfg.is_convex(members)
    inputs = dfg.cut_inputs(members)
    outputs = dfg.cut_outputs(members)
    legal_ops = all(not dfg.nodes[i].forbidden for i in members)
    if members and legal_ops:
        sw = cut_software_cycles(dfg, members, model)
        hw = cut_hardware_cycles(dfg, members, model)
        merit = dfg.weight * (sw - hw)      # cut_merit, costed once
    else:
        sw, hw, merit = 0.0, 0, 0.0 if not members else -math.inf
    return Cut(
        dfg=dfg,
        nodes=members,
        num_inputs=len(inputs),
        num_outputs=len(outputs),
        convex=convex,
        merit=merit,
        software_cycles=sw,
        hardware_cycles=hw,
    )


def cut_is_feasible(dfg: DataFlowGraph, nodes: Iterable[int],
                    constraints: Constraints) -> bool:
    """Reference feasibility test: legal ops, convex, within I/O ports."""
    members = frozenset(nodes)
    if any(dfg.nodes[i].forbidden for i in members):
        return False
    if not dfg.is_convex(members):
        return False
    if len(dfg.cut_inputs(members)) > constraints.nin:
        return False
    if len(dfg.cut_outputs(members)) > constraints.nout:
        return False
    return True
