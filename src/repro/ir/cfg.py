"""Control-flow graph utilities: successors/predecessors, orderings,
reachability and backward liveness analysis.

Liveness is the load-bearing analysis here: the DFG builder uses *live-out*
sets to decide which cut nodes produce architecturally visible values, which
directly determines ``OUT(S)`` in the paper's Problem 1.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .function import BasicBlock, Function


def successors(func: Function) -> Dict[str, List[str]]:
    """Map label -> successor labels."""
    return {block.label: block.successors() for block in func.blocks}


def predecessors(func: Function) -> Dict[str, List[str]]:
    """Map label -> predecessor labels (in block order, duplicates kept
    only once)."""
    preds: Dict[str, List[str]] = {block.label: [] for block in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            if block.label not in preds[succ]:
                preds[succ].append(block.label)
    return preds


def reachable_blocks(func: Function) -> Set[str]:
    """Labels reachable from the entry block."""
    if not func.blocks:
        return set()
    seen: Set[str] = set()
    stack = [func.entry.label]
    succs = successors(func)
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(succs[label])
    return seen


def reverse_postorder(func: Function) -> List[str]:
    """Blocks in reverse postorder from the entry (good for forward
    dataflow and for deterministic iteration)."""
    succs = successors(func)
    seen: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack: List[Tuple[str, int]] = [(label, 0)]
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                if node in seen:
                    continue
                seen.add(node)
            children = succs[node]
            if idx < len(children):
                stack.append((node, idx + 1))
                child = children[idx]
                if child not in seen:
                    stack.append((child, 0))
            else:
                order.append(node)

    if func.blocks:
        visit(func.entry.label)
    order.reverse()
    return order


def block_use_def(block: BasicBlock) -> Tuple[Set[str], Set[str]]:
    """Return (upward-exposed uses, defs) of *block*.

    A register is an upward-exposed use if it is read before any definition
    inside the block.
    """
    uses: Set[str] = set()
    defs: Set[str] = set()
    for insn in block.instructions:
        for name in insn.uses():
            if name not in defs:
                uses.add(name)
        for name in insn.defs():
            defs.add(name)
    return uses, defs


class Liveness:
    """Backward may-liveness over a function's CFG.

    Attributes:
        live_in: label -> set of register names live at block entry.
        live_out: label -> set of register names live at block exit.
    """

    def __init__(self, func: Function) -> None:
        self.func = func
        self.live_in: Dict[str, Set[str]] = {}
        self.live_out: Dict[str, Set[str]] = {}
        self._compute()

    def _compute(self) -> None:
        func = self.func
        succs = successors(func)
        use: Dict[str, Set[str]] = {}
        defs: Dict[str, Set[str]] = {}
        for block in func.blocks:
            u, d = block_use_def(block)
            use[block.label] = u
            defs[block.label] = d
            self.live_in[block.label] = set()
            self.live_out[block.label] = set()

        # Iterate to a fixed point; postorder-ish sweep converges fast for
        # the small CFGs we handle.
        order = list(reversed(reverse_postorder(func)))
        # Include unreachable blocks so callers always find their labels.
        known = set(order)
        order.extend(b.label for b in func.blocks if b.label not in known)

        changed = True
        while changed:
            changed = False
            for label in order:
                out: Set[str] = set()
                for succ in succs[label]:
                    out |= self.live_in[succ]
                new_in = use[label] | (out - defs[label])
                if out != self.live_out[label]:
                    self.live_out[label] = out
                    changed = True
                if new_in != self.live_in[label]:
                    self.live_in[label] = new_in
                    changed = True

    def live_out_of(self, label: str) -> Set[str]:
        return self.live_out[label]

    def live_in_of(self, label: str) -> Set[str]:
        return self.live_in[label]
