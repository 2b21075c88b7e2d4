"""The original ``DataFlowGraph.collapse``, kept as a test oracle.

``tests/ir/test_collapse_reference.py`` compares the production
collapse against this one graph for graph.  Do not optimise it: its
value is that it is the slow, first-written version.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Set, Tuple

from repro.ir.dfg import DataFlowGraph, DFGNode
from repro.ir.instructions import Instruction


def reference_collapse(self: DataFlowGraph, cut: Iterable[int],
                       label: str) -> DataFlowGraph:
    """:meth:`DataFlowGraph.collapse` as first written (string and
    integer keys in one Kahn pass, plus an unused ``group_of`` map)."""
    members = frozenset(cut)
    if not members:
        raise ValueError("cannot collapse an empty cut")
    if not self.is_convex(members):
        raise ValueError("cannot collapse a non-convex cut")

    # Old index -> new group id.  The supernode takes one slot.
    survivors = [i for i in range(self.n) if i not in members]
    group_of: Dict[int, int] = {}
    for i in survivors:
        group_of[i] = i
    for i in members:
        group_of[i] = -1  # sentinel for the supernode

    # Distinct member-produced values still consumed by survivors,
    # in deterministic (producer, tag) order.  Each keeps its own
    # identity through the collapse: the first maps to the plain
    # supernode token, every later one to a tagged token, so input
    # counting and AFU port construction see one value per distinct
    # supernode output instead of aliasing them all into one.
    exported: Set[Tuple] = set()
    for i in survivors:
        for src in self.operand_sources[i]:
            if src and src[0] == "node" and src[1] in members:
                exported.add(src)
    export_tag = {
        tok: tag
        for tag, tok in enumerate(sorted(
            exported,
            key=lambda s: (s[1], s[2] if len(s) > 2 else 0)))
    }

    def remap_source(src: Tuple) -> Tuple:
        if src and src[0] == "node":
            old = src[1]
            if old in members:
                tag = export_tag[src]
                if tag == 0:
                    return ("node", new_index["super"])
                return ("node", new_index["super"], tag)
            if len(src) > 2:    # surviving supernode: keep its tag
                return ("node", new_index[old], src[2])
            return ("node", new_index[old])
        return src

    # Gather union edges of the supernode.
    super_succs: Set[int] = set()
    super_preds: Set[int] = set()
    super_inputs: Set[int] = set()
    member_insns: List[Instruction] = []
    forced = False
    for i in sorted(members, reverse=True):  # producer-to-consumer order
        member_insns.extend(self.nodes[i].insns)
        forced = forced or self.nodes[i].forced_out
        super_succs.update(s for s in self.succs[i] if s not in members)
        super_preds.update(p for p in self.preds[i] if p not in members)
        super_inputs.update(self.node_inputs[i])

    # Renumber from scratch: merging can place the supernode anywhere
    # relative to interleaved excluded nodes, so compute a fresh
    # reverse topological order (producers-first Kahn, reversed; ties
    # broken by old index, with the supernode ordered at its lowest
    # member's position).
    keys: List[object] = list(survivors) + ["super"]
    sort_pos = {key: (key if key != "super" else min(members))
                for key in keys}
    group_succs: Dict[object, Set[object]] = {key: set() for key in keys}
    for i in survivors:
        for s in self.succs[i]:
            group_succs[i].add("super" if s in members else s)
    group_succs["super"] = set(super_succs)
    indegree: Dict[object, int] = {key: 0 for key in keys}
    for key in keys:
        for s in group_succs[key]:
            indegree[s] += 1
    heap = [(sort_pos[key], key) for key in keys if indegree[key] == 0]
    heapq.heapify(heap)
    topo: List[object] = []
    while heap:
        _, key = heapq.heappop(heap)
        topo.append(key)
        for s in group_succs[key]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(heap, (sort_pos[s], s))
    if len(topo) != len(keys):
        raise ValueError("collapse produced a cyclic graph "
                         "(cut was not convex?)")
    order = list(reversed(topo))

    new_index: Dict[object, int] = {key: k for k, key in enumerate(order)}
    nodes: List[DFGNode] = []
    succs: List[List[int]] = []
    preds: List[List[int]] = []
    node_inputs: List[List[int]] = []
    sources: List[Tuple] = []
    for key in order:
        if key == "super":
            nodes.append(DFGNode(
                index=new_index[key],
                opcode=None,
                insns=tuple(member_insns),
                label=label,
                forbidden=True,
                forced_out=forced,
            ))
            succs.append(sorted(new_index[s] for s in super_succs))
            preds.append(sorted(new_index[p] for p in super_preds))
            node_inputs.append(sorted(super_inputs))
            sources.append(())
        else:
            old = self.nodes[key]
            nodes.append(DFGNode(
                index=new_index[key],
                opcode=old.opcode,
                insns=old.insns,
                label=old.label,
                forbidden=old.forbidden,
                forced_out=old.forced_out,
            ))
            row_s = {new_index[s] if s not in members else
                     new_index["super"] for s in self.succs[key]}
            row_p = {new_index[p] if p not in members else
                     new_index["super"] for p in self.preds[key]}
            succs.append(sorted(row_s))
            preds.append(sorted(row_p))
            node_inputs.append(list(self.node_inputs[key]))
            sources.append(tuple(
                remap_source(src)
                for src in self.operand_sources[key]))

    return DataFlowGraph(
        name=self.name,
        nodes=nodes,
        succs=succs,
        preds=preds,
        input_vars=list(self.input_vars),
        node_inputs=node_inputs,
        weight=self.weight,
        operand_sources=sources,
    )
