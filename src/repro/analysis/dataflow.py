"""Worklist dataflow framework over the function CFG.

A thin, deterministic fixed-point engine plus the three classic
analyses the verifier (and future passes) need:

* :class:`Dominance` — immediate dominators and dominator sets
  (Cooper/Harvey/Kennedy over reverse postorder);
* :class:`ReachingDefinitions` — which ``(block, position)`` definition
  sites of each register may reach a block entry;
* :class:`DefiniteAssignment` — the *must* counterpart: registers that
  are defined on **every** path from the entry, which is exactly the
  "def-before-use along all paths" obligation of the verifier;
* :class:`NaturalLoops` — loop bodies, nesting depth and whether the
  CFG is reducible.

Backward liveness already lives in :class:`repro.ir.cfg.Liveness`; it
is re-exported here so analysis clients have one import surface.

All analyses iterate blocks in reverse postorder (forward problems)
until a fixed point; the CFGs this toolchain builds are small (tens of
blocks), so convergence takes 2–3 sweeps and determinism matters more
than sparseness.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir.cfg import Liveness, predecessors, reverse_postorder, successors
from ..ir.function import Function

__all__ = [
    "DefiniteAssignment", "Dominance", "Liveness", "NaturalLoops",
    "ReachingDefinitions", "solve_forward",
]

#: A definition site: (block label, instruction position in the block).
DefSite = Tuple[str, int]


def solve_forward(
    func: Function,
    init: Callable[[str], Set],
    transfer: Callable[[str, Set], Set],
    meet: Callable[[List[Set]], Set],
    entry_in: Set,
) -> Tuple[Dict[str, Set], Dict[str, Set]]:
    """Generic forward dataflow to a fixed point.

    Args:
        func: the function whose CFG is analysed.
        init: label -> initial OUT set (pre-fixed-point optimistic
            value; only read for blocks before their first visit).
        transfer: ``(label, in_set) -> out_set``.
        meet: combine predecessor OUT sets into a block's IN set
            (union for may-problems, intersection for must-problems).
        entry_in: IN set of the entry block.

    Returns:
        ``(in_sets, out_sets)`` by block label.  Unreachable blocks are
        not visited and are absent from both maps.
    """
    order = reverse_postorder(func)
    preds = predecessors(func)
    entry_label = func.entry.label
    in_sets: Dict[str, Set] = {}
    out_sets: Dict[str, Set] = {label: init(label) for label in order}
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry_label:
                in_set = set(entry_in)
            else:
                avail = [out_sets[p] for p in preds[label]
                         if p in out_sets]
                in_set = meet(avail) if avail else set()
            out_set = transfer(label, in_set)
            in_sets[label] = in_set
            if out_set != out_sets[label]:
                out_sets[label] = out_set
                changed = True
    return in_sets, out_sets


class Dominance:
    """Immediate dominators of every reachable block.

    The Cooper–Harvey–Kennedy iterative algorithm over reverse
    postorder: simple, deterministic, and at these CFG sizes as fast as
    anything asymptotically better.

    Attributes:
        idom: label -> immediate dominator label (the entry maps to
            itself).  Unreachable blocks are absent.
    """

    def __init__(self, func: Function) -> None:
        self.func = func
        order = reverse_postorder(func)
        index = {label: i for i, label in enumerate(order)}
        preds = predecessors(func)
        entry = func.entry.label
        idom: Dict[str, Optional[str]] = {label: None for label in order}
        idom[entry] = entry

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for label in order:
                if label == entry:
                    continue
                candidates = [p for p in preds[label]
                              if p in index and idom[p] is not None]
                if not candidates:
                    continue
                new = candidates[0]
                for p in candidates[1:]:
                    new = intersect(new, p)
                if idom[label] != new:
                    idom[label] = new
                    changed = True
        self.idom: Dict[str, str] = {
            label: dom for label, dom in idom.items() if dom is not None
        }

    def dominators(self, label: str) -> List[str]:
        """All dominators of *label*, innermost (itself) first."""
        chain = [label]
        while label != self.idom[label]:
            label = self.idom[label]
            chain.append(label)
        return chain

    def dominates(self, a: str, b: str) -> bool:
        """True when *a* dominates *b* (reflexive)."""
        return a in self.dominators(b)


class ReachingDefinitions:
    """May-reaching definition sites of every register, per block.

    ``reach_in[label]`` holds ``(register, (block, position))`` pairs:
    definition sites that may reach the entry of *label* along some
    path.  Function parameters appear as ``(param, ("<entry>", -1))``.
    """

    PARAM_SITE: DefSite = ("<entry>", -1)

    def __init__(self, func: Function) -> None:
        self.func = func
        gen: Dict[str, Dict[str, DefSite]] = {}
        for block in func.blocks:
            sites: Dict[str, DefSite] = {}
            for pos, insn in enumerate(block.instructions):
                for name in insn.defs():
                    sites[name] = (block.label, pos)
            gen[block.label] = sites

        def transfer(label: str, in_set: Set) -> Set:
            killed = set(gen[label])
            out = {(reg, site) for reg, site in in_set
                   if reg not in killed}
            out.update((reg, site) for reg, site in gen[label].items())
            return out

        entry_in = {(param, self.PARAM_SITE) for param in func.params}
        self.reach_in, self.reach_out = solve_forward(
            func, init=lambda label: set(), transfer=transfer,
            meet=lambda sets: set().union(*sets), entry_in=entry_in)

    def reaching(self, label: str, register: str) -> List[DefSite]:
        """Definition sites of *register* that may reach *label*'s
        entry, deterministically ordered."""
        return sorted(site for reg, site in self.reach_in.get(label, ())
                      if reg == register)


class DefiniteAssignment:
    """Registers definitely assigned (on every path) at block entry.

    The must-dual of :class:`ReachingDefinitions`: IN is the
    *intersection* over predecessors, the entry starts from the
    function parameters, and a block's OUT adds every register it
    defines.  ``defined_in[label]`` is then exactly the set a verifier
    may assume readable at the top of *label* — the basis of the
    def-before-use check (diagnostic ``V201``).
    """

    def __init__(self, func: Function) -> None:
        self.func = func
        all_regs: Set[str] = set(func.params)
        for insn in func.instructions():
            all_regs.update(insn.defs())
        defs: Dict[str, Set[str]] = {}
        for block in func.blocks:
            block_defs: Set[str] = set()
            for insn in block.instructions:
                block_defs.update(insn.defs())
            defs[block.label] = block_defs

        def transfer(label: str, in_set: Set) -> Set:
            return in_set | defs[label]

        def meet(sets: List[Set]) -> Set:
            result = set(sets[0])
            for s in sets[1:]:
                result &= s
            return result

        self.defined_in, self.defined_out = solve_forward(
            func, init=lambda label: set(all_regs), transfer=transfer,
            meet=meet, entry_in=set(func.params))

    def defined_at_entry(self, label: str) -> Set[str]:
        """Registers definitely assigned when *label* is entered
        (empty for unreachable blocks — nothing is guaranteed there)."""
        return self.defined_in.get(label, set())


class NaturalLoops:
    """Natural loops of a function's reachable CFG.

    An edge ``u -> v`` is *retreating* when ``v`` does not come after
    ``u`` in reverse postorder, and a *back edge* when, besides, ``v``
    dominates ``u``.  The CFG is reducible exactly when every
    retreating edge is a back edge; each back edge's target heads a
    natural loop, whose body is every block that reaches one of its
    latches without passing through the header.

    Attributes:
        order: reachable labels in reverse postorder.
        dominance: the :class:`Dominance` the loops were found with.
        reducible: False when some retreating edge is no back edge.
        body: header -> labels of its loop, header included.
    """

    def __init__(self, func: Function) -> None:
        self.order = reverse_postorder(func)
        self.dominance = Dominance(func)
        index = {label: i for i, label in enumerate(self.order)}
        preds = predecessors(func)
        succs = successors(func)
        self.reducible = True
        latches: Dict[str, List[str]] = {}
        for label in self.order:
            for succ in succs[label]:
                if index[succ] > index[label]:
                    continue
                if self.dominance.dominates(succ, label):
                    latches.setdefault(succ, []).append(label)
                else:
                    self.reducible = False
        self.body: Dict[str, Set[str]] = {}
        for header in sorted(latches, key=index.__getitem__):
            body = {header}
            stack = [latch for latch in latches[header]
                     if latch != header]
            while stack:
                label = stack.pop()
                if label not in body:
                    body.add(label)
                    stack.extend(p for p in preds[label] if p in index)
            self.body[header] = body

    def max_depth(self) -> int:
        """The deepest nesting of any block (0 for a loop-free CFG)."""
        return max((sum(label in body for body in self.body.values())
                    for label in self.order), default=0)
