"""Per-basic-block dataflow graphs — the paper's ``G+(V u V+, E u E+)``.

A :class:`DataFlowGraph` holds the DAG ``G`` of the operations of one basic
block, plus the additional input/output information carried by ``V+``/``E+``:

* **input variables** — registers that are live into the block and read by
  its operations (the paper's input nodes ``V+``);
* **forced outputs** — nodes whose value is live out of the block (or used
  by the terminator) and therefore always contribute to ``OUT(S)``.

Nodes are numbered in *reverse topological order*: for every dataflow edge
``producer -> consumer`` the producer has the **larger** index.  This is the
ordering required by the paper's search algorithm (Section 6.1): deciding
nodes in increasing index order means all consumers of a node are decided
before the node itself, which makes the output-port count and the convexity
status of a growing cut monotone.

A node may be *forbidden* (memory access, call, or a supernode produced by
:meth:`DataFlowGraph.collapse`); forbidden nodes can never join a cut but
still participate in convexity and I/O accounting.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .cfg import Liveness
from .function import BasicBlock, Function
from .instructions import Instruction
from .opcodes import Opcode
from .values import Reg


@dataclass
class DFGNode:
    """One vertex of the dataflow graph.

    ``insns`` normally holds a single IR instruction; a collapsed supernode
    (a previously selected cut, see :meth:`DataFlowGraph.collapse`) holds all
    of its member instructions and has ``opcode is None``.
    """

    index: int
    opcode: Optional[Opcode]
    insns: Tuple[Instruction, ...]
    label: str
    forbidden: bool
    forced_out: bool

    @property
    def is_super(self) -> bool:
        return self.opcode is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DFGNode {self.index}:{self.label}>"


class DFGMasks:
    """Bitset encoding of a :class:`DataFlowGraph`, shared by the search
    engine (see DESIGN.md §5).

    Node ``i`` owns bit ``1 << i``; external input variable ``j`` owns bit
    ``1 << (n + j)``.  All masks are plain Python ints, so the per-node
    constraint checks of the branch-and-bound search become O(1)
    word-parallel bitwise operations instead of per-edge loops.

    Attributes:
        succ: ``succ[i]`` — bits of the internal consumers of node ``i``
            (all strictly below bit ``i`` by reverse topological order).
        pred: ``pred[i]`` — bits of the internal producers of node ``i``.
        producer: ``producer[i]`` — unified producer bits of node ``i``:
            one bit per distinct internal value read (node index, or a
            synthetic id above ``n + |input_vars|`` for a multi-value
            supernode's later outputs) plus its external input variables
            shifted by ``n``.
        forced_out: bits of nodes whose value is live out of the block.
        forbidden: bits of nodes that can never join a cut.
        all_nodes: ``(1 << n) - 1``.
    """

    __slots__ = ("succ", "pred", "producer", "forced_out", "forbidden",
                 "all_nodes")

    def __init__(self, dfg: "DataFlowGraph") -> None:
        n = dfg.n
        self.succ = [_bits(row) for row in dfg.succs]
        self.pred = [_bits(row) for row in dfg.preds]
        # One bit per distinct read *value* (not per producer node): a
        # multi-value supernode contributes one bit per consumed output,
        # so popcount-based IN(S) equals register-file reads exactly.
        self.producer = [_bits(dfg.producers_of(i)) for i in range(n)]
        self.forced_out = _bits(
            i for i in range(n) if dfg.nodes[i].forced_out)
        self.forbidden = _bits(
            i for i in range(n) if dfg.nodes[i].forbidden)
        self.all_nodes = (1 << n) - 1


def _bits(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def per_model(cache: Dict[int, Tuple], model, build):
    """``build()``, memoised in *cache* under *model*'s identity.

    Each entry holds a reference to the model, so a recycled ``id()``
    can never alias a different model; throwaway models keep the cache
    bounded.
    """
    entry = cache.get(id(model))
    if entry is not None and entry[0] is model:
        return entry[1]
    value = build()
    if len(cache) >= 8:
        cache.clear()
    cache[id(model)] = (model, value)
    return value


class DataFlowGraph:
    """The dataflow graph of one basic block, ready for cut enumeration.

    Attributes:
        name: ``function/block`` identifier, for reports.
        nodes: nodes in index order (index 0 first).  Reverse topological:
            every edge goes from a higher index (producer) to a lower index
            (consumer).
        succs: ``succs[i]`` — indices of internal consumers of node ``i``
            (no duplicates, sorted).
        preds: ``preds[i]`` — indices of internal producers feeding ``i``.
        input_vars: names of external input variables (live-in registers
            read by the block), in first-use order.
        node_inputs: ``node_inputs[i]`` — indices into ``input_vars`` that
            node ``i`` reads directly.
        weight: execution frequency of the block (from profiling).
    """

    def __init__(
        self,
        name: str,
        nodes: List[DFGNode],
        succs: List[List[int]],
        preds: List[List[int]],
        input_vars: List[str],
        node_inputs: List[List[int]],
        weight: float = 1.0,
        operand_sources: Optional[List[Tuple]] = None,
    ) -> None:
        self.name = name
        self.nodes = nodes
        self.succs = succs
        self.preds = preds
        self.input_vars = input_vars
        self.node_inputs = node_inputs
        self.weight = weight
        #: Per node, one source tag per instruction operand:
        #: ``('const', value)``, ``('var', input-var name)`` or
        #: ``('node', producer index)``.  Disambiguates reused (non-SSA)
        #: register names.
        self.operand_sources: List[Tuple] = (
            operand_sources if operand_sources is not None
            else [() for _ in nodes])
        # Caches (a DFG is immutable once built; collapse returns a new
        # graph, so these never need invalidation).
        self._masks: Optional[DFGMasks] = None
        self._producers: Optional[List[List[int]]] = None
        self._value_reads: Optional[List[List[int]]] = None
        self._value_owner: Dict[int, int] = {}
        self._cost_cache: Dict[int, Tuple] = {}
        self._cycles_cache: Dict[int, Tuple] = {}
        self._check_invariants()

    def __getstate__(self) -> dict:
        # The per-model memos are keyed by id(model), which means nothing
        # in another process, so a pickled graph (a remote sweep unit's
        # job, a stored application) carries none of the models it has
        # met.
        # Its state keeps the attributes older stored graphs have.
        state = self.__dict__.copy()
        state["_cost_cache"] = {}
        del state["_cycles_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cost_cache = {}
        self._cycles_cache = {}

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def masks(self) -> DFGMasks:
        """Cached bitset encoding of the graph (built on first use)."""
        if self._masks is None:
            self._masks = DFGMasks(self)
        return self._masks

    @property
    def producers(self) -> List[List[int]]:
        """Cached ``[producers_of(i) for i in range(n)]``."""
        if self._producers is None:
            self._producers = [self.producers_of(i) for i in range(self.n)]
        return self._producers

    def cost_vectors(self, model) -> Tuple[List[float], List[float]]:
        """Per-node ``(sw, hw)`` cost vectors under *model*, cached.

        Forbidden nodes cost 0 software cycles (they can never be part of
        a cut's software mass) and infinite hardware delay.
        """
        def build():
            sw = [0.0 if node.forbidden else model.sw(node)
                  for node in self.nodes]
            hw = [math.inf if node.forbidden else model.hw(node)
                  for node in self.nodes]
            return sw, hw

        return per_model(self._cost_cache, model, build)

    def software_cycles(self, model) -> float:
        """Summed software cycles of every node under *model*, forbidden
        ones included (unlike :meth:`cost_vectors`), cached."""
        return per_model(self._cycles_cache, model, lambda: sum(
            model.sw(node) for node in self.nodes))

    def _check_invariants(self) -> None:
        n = self.n
        if not (len(self.succs) == len(self.preds)
                == len(self.node_inputs) == n):
            raise ValueError("inconsistent DFG adjacency sizes")
        for i, node in enumerate(self.nodes):
            if node.index != i:
                raise ValueError(f"node {node.label} has index {node.index}, "
                                 f"expected {i}")
            for s in self.succs[i]:
                if not s < i:
                    raise ValueError(
                        f"edge {i}->{s} violates reverse topological order")
            for p in self.preds[i]:
                if not p > i:
                    raise ValueError(
                        f"pred edge {p}->{i} violates reverse topological "
                        f"order")

    # ------------------------------------------------------------------
    # Whole-graph queries used by cut verification and baselines.
    # ------------------------------------------------------------------
    @property
    def value_reads(self) -> List[List[int]]:
        """Per node, the distinct *value* ids it reads from internal
        producers.

        Each value a cut reads from outside occupies one register-file
        read port, so ``IN(S)`` must count values, not producer nodes.
        For an ordinary node (one instruction, one result) the value id
        is simply the producer's index; a collapsed supernode exports one
        value per distinct member result still consumed outside, and
        every value beyond its first gets a synthetic id above
        ``n + len(input_vars)`` so that two different supernode outputs
        are never mistaken for a single read.  Derived from
        ``operand_sources`` (which tag supernode values); nodes without
        source info fall back to one value per pred edge — exact for
        graphs that never collapsed.
        """
        if self._value_reads is None:
            self._derive_values()
        return self._value_reads

    def _derive_values(self) -> None:
        extra_base = self.n + len(self.input_vars)
        extra_ids: Dict[Tuple[int, int], int] = {}
        owner: Dict[int, int] = {}
        reads: List[List[int]] = []
        for i in range(self.n):
            ids = set()
            covered = set()
            for src in self.operand_sources[i]:
                if not src or src[0] != "node":
                    continue
                p = src[1]
                tag = src[2] if len(src) > 2 else 0
                if tag == 0:
                    vid = p
                else:
                    key = (p, tag)
                    vid = extra_ids.get(key)
                    if vid is None:
                        vid = extra_base + len(extra_ids)
                        extra_ids[key] = vid
                        owner[vid] = p
                ids.add(vid)
                covered.add(p)
            # Pred edges without a source entry contribute one value each.
            for p in self.preds[i]:
                if p not in covered:
                    ids.add(p)
            reads.append(sorted(ids))
        self._value_reads = reads
        self._value_owner = owner

    def value_producer(self, vid: int) -> int:
        """The node index producing value *vid* (identity below ``n``)."""
        if vid < self.n:
            return vid
        self.value_reads    # ensure the owner map is derived
        return self._value_owner[vid]

    def producers_of(self, i: int) -> List[int]:
        """Unified producer ids of node *i*: one id per distinct internal
        *value* read (see :attr:`value_reads`); external input variable
        ``j`` gets id ``n + j``."""
        ids = list(self.value_reads[i])
        ids.extend(self.n + j for j in self.node_inputs[i])
        return ids

    def descendants(self, i: int) -> Set[int]:
        """All nodes reachable from *i* via dataflow edges (consumers,
        transitively)."""
        seen: Set[int] = set()
        stack = list(self.succs[i])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(self.succs[x])
        return seen

    def ancestors(self, i: int) -> Set[int]:
        """All nodes that can reach *i* (producers, transitively)."""
        seen: Set[int] = set()
        stack = list(self.preds[i])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(self.preds[x])
        return seen

    def cut_inputs(self, cut: Iterable[int]) -> Set[object]:
        """The distinct *values* feeding the cut from outside: ``IN(S)``
        is the size of this set.  Elements are value ids (see
        :attr:`value_reads` — a multi-value supernode counts once per
        consumed output) and ``('var', name)`` tuples."""
        members = set(cut)
        result: Set[object] = set()
        for i in members:
            for vid in self.value_reads[i]:
                if self.value_producer(vid) not in members:
                    result.add(vid)
            for j in self.node_inputs[i]:
                result.add(("var", self.input_vars[j]))
        return result

    def cut_outputs(self, cut: Iterable[int]) -> Set[int]:
        """Nodes of the cut whose value leaves it: ``OUT(S)`` is the size
        of this set."""
        members = set(cut)
        result: Set[int] = set()
        for i in members:
            if self.nodes[i].forced_out:
                result.add(i)
                continue
            if any(s not in members for s in self.succs[i]):
                result.add(i)
        return result

    def is_convex(self, cut: Iterable[int]) -> bool:
        """Naive convexity check (used for verification; the search uses an
        incremental formulation)."""
        members = set(cut)
        for i in members:
            # Walk paths leaving i through excluded nodes; if such a path
            # re-enters the cut, the cut is not convex.
            stack = [s for s in self.succs[i] if s not in members]
            seen: Set[int] = set()
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                for s in self.succs[x]:
                    if s in members:
                        return False
                    stack.append(s)
        return True

    # ------------------------------------------------------------------
    # Collapsing (used by iterative selection, Section 6.3 of the paper).
    # ------------------------------------------------------------------
    def collapse(self, cut: Iterable[int], label: str) -> "DataFlowGraph":
        """Return a new graph where the (convex) *cut* is merged into one
        forbidden supernode, so later identification rounds can neither
        reuse its operations nor create cuts that are non-convex through it.
        """
        members = frozenset(cut)
        if not members:
            raise ValueError("cannot collapse an empty cut")
        if not self.is_convex(members):
            raise ValueError("cannot collapse a non-convex cut")
        n = self.n
        survivors = [i for i in range(n) if i not in members]

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
        # broken by old index).  Keys are old indices, the supernode's
        # that of its lowest member, so a key is its own tie-break.
        top = min(members)
        key_of = list(range(n))
        for i in members:
            key_of[i] = top
        key_succs: List = [None] * n
        for i in survivors:
            key_succs[i] = {key_of[s] for s in self.succs[i]}
        key_succs[top] = super_succs
        keys = survivors + [top]
        indegree = [0] * n
        for key in keys:
            for s in key_succs[key]:
                indegree[s] += 1
        heap = [key for key in keys if indegree[key] == 0]
        heapq.heapify(heap)
        topo: List[int] = []
        while heap:
            key = heapq.heappop(heap)
            topo.append(key)
            for s in key_succs[key]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(heap, s)
        if len(topo) != len(keys):
            raise ValueError("collapse produced a cyclic graph "
                             "(cut was not convex?)")
        order = topo[::-1]

        # Old index -> new index; every member maps to the supernode.
        new_index = [0] * n
        for k, key in enumerate(order):
            new_index[key] = k
        supernode = new_index[top]
        for i in members:
            new_index[i] = supernode

        def remap_source(src: Tuple) -> Tuple:
            if src and src[0] == "node":
                old = src[1]
                if old in members:
                    tag = export_tag[src]
                    if tag == 0:
                        return ("node", supernode)
                    return ("node", supernode, tag)
                if len(src) > 2:    # surviving supernode: keep its tag
                    return ("node", new_index[old], src[2])
                return ("node", new_index[old])
            return src

        nodes: List[DFGNode] = []
        succs = [sorted(new_index[s] for s in key_succs[key])
                 for key in order]
        preds: List[List[int]] = []
        node_inputs: List[List[int]] = []
        sources: List[Tuple] = []
        for k, key in enumerate(order):
            if key == top:
                nodes.append(DFGNode(
                    index=k,
                    opcode=None,
                    insns=tuple(member_insns),
                    label=label,
                    forbidden=True,
                    forced_out=forced,
                ))
                preds.append(sorted(new_index[p] for p in super_preds))
                node_inputs.append(sorted(super_inputs))
                sources.append(())
            else:
                old = self.nodes[key]
                nodes.append(DFGNode(
                    index=k,
                    opcode=old.opcode,
                    insns=old.insns,
                    label=old.label,
                    forbidden=old.forbidden,
                    forced_out=old.forced_out,
                ))
                preds.append(sorted({new_index[p] for p in self.preds[key]}))
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

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DataFlowGraph {self.name} ({self.n} nodes)>"


# ----------------------------------------------------------------------
# Construction from IR.
# ----------------------------------------------------------------------
def build_dfg(
    block: BasicBlock,
    live_out: Set[str],
    name: Optional[str] = None,
    weight: float = 1.0,
) -> DataFlowGraph:
    """Build the ``G+`` graph of *block*.

    Args:
        block: the basic block.
        live_out: registers live at block exit (from :class:`Liveness`).
        name: identifier for reports; defaults to the block label.
        weight: execution frequency of the block.
    """
    body = block.body
    term = block.terminator
    term_uses: Set[str] = set(term.uses()) if term is not None else set()

    n = len(body)
    # Map register name -> producing node id, following sequential defs.
    last_def: Dict[str, int] = {}
    raw_preds: List[Set[int]] = [set() for _ in range(n)]
    raw_inputs: List[Set[int]] = [set() for _ in range(n)]
    raw_sources: List[List[Tuple]] = [[] for _ in range(n)]
    input_vars: List[str] = []
    input_id: Dict[str, int] = {}

    for i, insn in enumerate(body):
        for op in insn.operands:
            if not isinstance(op, Reg):
                raw_sources[i].append(("const", op.value))
                continue
            if op.name in last_def:
                raw_preds[i].add(last_def[op.name])
                raw_sources[i].append(("node", last_def[op.name]))
            else:
                if op.name not in input_id:
                    input_id[op.name] = len(input_vars)
                    input_vars.append(op.name)
                raw_inputs[i].add(input_id[op.name])
                raw_sources[i].append(("var", op.name))
        if insn.dest is not None:
            last_def[insn.dest] = i

    # forced_out: the node holds the final in-block definition of a register
    # that is live out of the block or read by the terminator.
    forced_out = [False] * n
    for reg, i in last_def.items():
        if reg in live_out or reg in term_uses:
            forced_out[i] = True

    # Successor sets (producer -> consumer).
    raw_succs: List[Set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for p in raw_preds[i]:
            raw_succs[p].add(i)

    # Reverse topological numbering: topological order producers-first
    # (Kahn, smallest original id first for determinism), then reversed.
    indegree = [len(raw_preds[i]) for i in range(n)]
    import heapq

    heap = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(heap)
    topo: List[int] = []
    while heap:
        i = heapq.heappop(heap)
        topo.append(i)
        for s in raw_succs[i]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(heap, s)
    if len(topo) != n:
        raise ValueError(f"cycle in dataflow graph of block {block.label}")
    order = list(reversed(topo))            # consumers first
    new_of_old = {old: new for new, old in enumerate(order)}

    nodes: List[DFGNode] = []
    succs: List[List[int]] = []
    preds: List[List[int]] = []
    node_inputs: List[List[int]] = []
    sources: List[Tuple] = []
    for new, old in enumerate(order):
        insn = body[old]
        nodes.append(DFGNode(
            index=new,
            opcode=insn.opcode,
            insns=(insn,),
            label=f"{insn.opcode.value}#{old}",
            forbidden=not insn.afu_legal,
            forced_out=forced_out[old],
        ))
        succs.append(sorted(new_of_old[s] for s in raw_succs[old]))
        preds.append(sorted(new_of_old[p] for p in raw_preds[old]))
        node_inputs.append(sorted(raw_inputs[old]))
        sources.append(tuple(
            ("node", new_of_old[src[1]]) if src[0] == "node" else src
            for src in raw_sources[old]))

    return DataFlowGraph(
        name=name or block.label,
        nodes=nodes,
        succs=succs,
        preds=preds,
        input_vars=input_vars,
        node_inputs=node_inputs,
        weight=weight,
        operand_sources=sources,
    )


def function_dfgs(
    func: Function,
    weights: Optional[Dict[str, float]] = None,
    min_nodes: int = 1,
) -> List[DataFlowGraph]:
    """Build one DFG per basic block of *func*.

    Args:
        func: the function.
        weights: optional block label -> execution count (from profiling);
            blocks absent from the map get weight 1.0.
        min_nodes: skip blocks whose DFG has fewer nodes than this.
    """
    liveness = Liveness(func)
    graphs: List[DataFlowGraph] = []
    for block in func.blocks:
        weight = 1.0 if weights is None else weights.get(block.label, 0.0)
        dfg = build_dfg(
            block,
            liveness.live_out_of(block.label),
            name=f"{func.name}/{block.label}",
            weight=weight,
        )
        if dfg.n >= min_nodes:
            graphs.append(dfg)
    return graphs
