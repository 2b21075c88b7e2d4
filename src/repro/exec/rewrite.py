"""ISE-aware program rewriting: splice selected cuts back into the IR.

This module closes the paper's loop from *identification* to *execution*:
given the :class:`~repro.core.cut.Cut` list of a selection result, it
rewrites each covered basic block so that the cut's operations are
replaced by a single :class:`~repro.ir.instructions.ISEInstruction` bound
to a :class:`FusedAFU` — a functional netlist evaluated with the exact
32-bit semantics of the interpreter (``evaluate_pure_op``), so rewritten
programs are bit-identical to the originals by construction.

The rewrite is performed on a *clone* of the module (the original stays
runnable as the baseline) in three steps per block:

1. **Reaching definitions** are computed positionally on the original
   instruction order; every definition receives a fresh register name.
   This SSA-style renaming removes all write-after-read/write hazards, so
   the only ordering constraints left are true dataflow dependences plus
   the original relative order of memory operations and calls.
2. Each cut becomes one **macro-operation**; the block is re-scheduled by
   a deterministic topological sort over macro-operations (Kahn's
   algorithm, original program position as tie-break).  A dependence
   *cycle* means the cut is not implementable as an atomic instruction —
   possible when a memory-carried dependence threads through the cut,
   which the paper's register-dataflow convexity test cannot see.  Such
   cuts are *skipped* (left in software) and reported, never silently
   miscompiled.
3. Values that leave the block (live-out registers) are copied back to
   their architectural names before the terminator.  These copies are
   artifacts of the simulation-level renaming — a real ISE writes the
   register file directly — so the cycle accounting in
   :mod:`repro.exec.cycles` charges each rewritten block its uncovered
   software operations plus one AFU latency per cut, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.cut import Cut
from ..hwmodel.latency import CostModel
from ..hwmodel.merit import cut_area
from ..ir.cfg import Liveness
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import Instruction, ISEInstruction
from ..ir.opcodes import Opcode
from ..ir.values import Const, Reg
from ..passes.constant_folding import evaluate_pure_op


class RewriteError(ValueError):
    """The cuts cannot be spliced into the module (overlapping cuts,
    instructions that are not present, a cut spanning blocks, or a node
    no AFU may implement)."""


@dataclass(frozen=True)
class FusedGate:
    """One operator of a fused AFU netlist.

    ``inputs`` entries are wire/port names (str) or literal int constants;
    ``output`` is the wire the operator drives.  Gates are stored in
    dataflow (producers-first) order, so a single forward sweep evaluates
    the whole netlist.
    """

    opcode: Opcode
    output: str
    inputs: Tuple[object, ...]


@dataclass(frozen=True)
class FusedAFU:
    """The functional model of one custom instruction, bound into the IR.

    Attributes:
        name: unit name (``ise0``, ``ise1``, ...), stable across a rewrite.
        block: ``function/label`` of the home basic block.
        gates: combinational netlist in dataflow order.
        input_ports: port names in the order the ISE instruction passes
            its operand values.
        output_wires: internal wires exposed as results, parallel to the
            ISE instruction's ``dests``.
        latency_cycles: whole-cycle latency of the scheduled datapath
            (``ceil`` of the hardware critical path in MAC units, >= 1).
        software_cycles: execution-stage cycles of the replaced software
            operations (the per-execution numerator of the merit).
        area_mac: datapath area in MAC-equivalents.
    """

    name: str
    block: str
    gates: Tuple[FusedGate, ...]
    input_ports: Tuple[str, ...]
    output_wires: Tuple[str, ...]
    latency_cycles: int
    software_cycles: float
    area_mac: float

    def evaluate(self, values: Sequence[int]) -> List[int]:
        """Evaluate the netlist on input-port *values* (port order).

        Uses the interpreter's own ``evaluate_pure_op``, so AFU results
        can never diverge from the software they replace.  Raises
        ``ZeroDivisionError`` if an internal division traps (the caller
        converts that to the interpreter's ``TrapError``, matching the
        software behaviour).
        """
        env: Dict[str, int] = dict(zip(self.input_ports, values))
        for gate in self.gates:
            operands = [w if isinstance(w, int) else env[w]
                        for w in gate.inputs]
            result = evaluate_pure_op(gate.opcode, operands)
            if result is None:
                raise ZeroDivisionError(
                    f"gate {gate.output} ({gate.opcode}) trapped")
            env[gate.output] = result
        return [env[w] for w in self.output_wires]

    def describe(self) -> str:
        """One-line summary for reports."""
        return (f"AFU {self.name} @ {self.block}: {len(self.gates)} op(s), "
                f"{len(self.input_ports)} in / {len(self.output_wires)} out,"
                f" {self.latency_cycles} cycle(s)")


@dataclass
class RewriteResult:
    """Outcome of :func:`rewrite_module`.

    Attributes:
        module: the rewritten clone (the input module is untouched).
        afus: every fused unit spliced in, in creation order.
        block_costs: ``(function, block label) -> cycles`` for rewritten
            blocks only — uncovered software operations plus one AFU
            latency per cut; register copy-backs cost nothing (see the
            module docstring).  Unrewritten blocks keep their plain
            software cost and are absent from this map.
        rewritten_blocks: number of blocks that received at least one ISE.
        skipped: human-readable notes for cuts that were left in software
            because splicing them would have created a dependence cycle.
    """

    module: Module
    afus: List[FusedAFU] = field(default_factory=list)
    block_costs: Dict[Tuple[str, str], float] = field(default_factory=dict)
    rewritten_blocks: int = 0
    skipped: List[str] = field(default_factory=list)

    @property
    def num_instructions(self) -> int:
        """Number of custom instructions actually spliced in."""
        return len(self.afus)


def clone_module(module: Module) -> Module:
    """Structurally copy *module* (fresh instruction/array objects) so the
    rewrite can mutate blocks while the original stays runnable."""
    clone = Module(module.name)
    for g in module.globals.values():
        clone.add_global(g.copy())
    for func in module.functions.values():
        copy = Function(func.name, func.params)
        for block in func.blocks:
            new_block = copy.add_block(block.label)
            for insn in block.instructions:
                new_block.append(insn.copy())
        clone.add_function(copy)
    return clone


# ----------------------------------------------------------------------
# Cut location: map cut nodes back to (function, block, body position).
# ----------------------------------------------------------------------
def _locate_by_label(module: Module, cut: Cut, node) -> Tuple[str, str, int]:
    """Structural fallback when instruction identity fails (cuts that
    crossed a process boundary hold pickled *copies* of the module's
    instructions).  A DFG is named ``function/block`` and node labels
    encode the original body position (``add#5``), both stable from
    build through collapse, so the member instruction is recoverable —
    with its opcode cross-checked before trusting the position."""
    if "/" not in cut.dfg.name:
        raise RewriteError(
            f"cut references instructions that are not part of the "
            f"module and its DFG name {cut.dfg.name!r} does not encode "
            f"a (function, block) location")
    func_name, label = cut.dfg.name.split("/", 1)
    func = module.functions.get(func_name)
    if func is None or not func.has_block(label):
        raise RewriteError(
            f"cut in {cut.dfg.name}: module has no block "
            f"{func_name}/{label}")
    try:
        pos = int(node.label.rsplit("#", 1)[1])
    except (IndexError, ValueError):
        raise RewriteError(
            f"cut in {cut.dfg.name}: node label {node.label!r} does not "
            f"encode a body position")
    body = func.block(label).body
    if pos >= len(body) or body[pos].opcode is not node.opcode:
        raise RewriteError(
            f"cut in {cut.dfg.name}: node {node.label} does not match "
            f"the module's block {func_name}/{label} (was the module "
            f"rebuilt after selection?)")
    return func_name, label, pos


def _locate_cuts(
    module: Module, cuts: Sequence[Cut],
) -> Dict[Tuple[str, str], List[Tuple[Cut, Set[int]]]]:
    index: Dict[int, Tuple[str, str, int]] = {}
    for func in module.functions.values():
        for block in func.blocks:
            for pos, insn in enumerate(block.body):
                index[id(insn)] = (func.name, block.label, pos)

    per_block: Dict[Tuple[str, str], List[Tuple[Cut, Set[int]]]] = {}
    for cut in cuts:
        home: Optional[Tuple[str, str]] = None
        positions: Set[int] = set()
        for i in sorted(cut.nodes):
            node = cut.dfg.nodes[i]
            if node.is_super or len(node.insns) != 1:
                raise RewriteError(
                    f"cut in {cut.dfg.name} contains supernode "
                    f"{node.label}; only plain operation cuts are "
                    f"executable")
            if node.forbidden:
                raise RewriteError(
                    f"cut in {cut.dfg.name} contains {node.label}, which "
                    f"no AFU may implement (memory access or call)")
            entry = index.get(id(node.insns[0]))
            if entry is None:
                entry = _locate_by_label(module, cut, node)
            func_name, label, pos = entry
            if home is None:
                home = (func_name, label)
            elif home != (func_name, label):
                raise RewriteError(
                    f"cut in {cut.dfg.name} spans blocks {home} and "
                    f"{(func_name, label)}")
            positions.add(pos)
        if home is None:
            continue        # empty cut: nothing to splice
        per_block.setdefault(home, []).append((cut, positions))

    for key, specs in per_block.items():
        seen: Set[int] = set()
        for _cut, positions in specs:
            if seen & positions:
                raise RewriteError(
                    f"cuts overlap in block {key[0]}/{key[1]}; "
                    f"selections must be disjoint to execute")
            seen |= positions
    return per_block


def _name_pool(func: Function):
    """Fresh-register generator avoiding every name used in *func*."""
    used: Set[str] = set(func.params)
    for insn in func.instructions():
        used.update(insn.uses())
        used.update(insn.defs())
    counter = [0]

    def fresh() -> str:
        while True:
            name = f"ise.{counter[0]}"
            counter[0] += 1
            if name not in used:
                used.add(name)
                return name

    return fresh


# ----------------------------------------------------------------------
# Per-block rewriting.
# ----------------------------------------------------------------------
def _reaching_sources(body: List[Instruction], term: Instruction):
    """Positional reaching-def analysis of one block.

    Returns ``(sources, term_sources, last_def)`` where each operand is
    tagged ``('const', value)``, ``('var', live-in name)`` or
    ``('pos', defining body position)`` — order-independent facts the
    re-scheduler can rename against.
    """
    last_def: Dict[str, int] = {}
    sources: List[List[Tuple]] = []
    for pos, insn in enumerate(body):
        row: List[Tuple] = []
        for operand in insn.operands:
            if isinstance(operand, Reg):
                if operand.name in last_def:
                    row.append(("pos", last_def[operand.name]))
                else:
                    row.append(("var", operand.name))
            else:
                row.append(("const", operand.value))
        sources.append(row)
        if insn.dest is not None:
            last_def[insn.dest] = pos
    term_sources: List[Tuple] = []
    for operand in term.operands:
        if isinstance(operand, Reg):
            if operand.name in last_def:
                term_sources.append(("pos", last_def[operand.name]))
            else:
                term_sources.append(("var", operand.name))
        else:
            term_sources.append(("const", operand.value))
    return sources, term_sources, last_def


def _schedule_units(
    body: List[Instruction],
    sources: List[List[Tuple]],
    unit_of: Dict[int, Tuple],
    unit_pos: Dict[Tuple, int],
):
    """Topologically order the block's macro-operations.

    Returns ``(order, stuck)``: the issue order when schedulable
    (``stuck`` empty), otherwise the units caught in a dependence cycle.
    Deterministic: Kahn's algorithm keyed by original program position.
    """
    units = sorted(set(unit_of.values()), key=lambda u: unit_pos[u])
    succs: Dict[Tuple, Set[Tuple]] = {u: set() for u in units}
    indegree: Dict[Tuple, int] = {u: 0 for u in units}

    def add_edge(producer: Tuple, consumer: Tuple) -> None:
        if producer != consumer and consumer not in succs[producer]:
            succs[producer].add(consumer)
            indegree[consumer] += 1

    for pos in range(len(body)):
        for src in sources[pos]:
            if src[0] == "pos":
                add_edge(unit_of[src[1]], unit_of[pos])
    prev_mem: Optional[int] = None
    for pos, insn in enumerate(body):
        if insn.is_memory or insn.opcode is Opcode.CALL:
            if prev_mem is not None:
                add_edge(unit_of[prev_mem], unit_of[pos])
            prev_mem = pos

    import heapq

    ready = [(unit_pos[u], u) for u in units if indegree[u] == 0]
    heapq.heapify(ready)
    order: List[Tuple] = []
    while ready:
        _, unit = heapq.heappop(ready)
        order.append(unit)
        for succ in succs[unit]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (unit_pos[succ], succ))
    stuck = [u for u in units if indegree[u] > 0]
    return order, stuck


def _resolve(source: Tuple, fresh_of: Dict[int, str]):
    """Turn a reaching-def tag into a renamed operand."""
    if source[0] == "const":
        return Const(source[1])
    if source[0] == "var":
        return Reg(source[1])
    return Reg(fresh_of[source[1]])


def _rewrite_block(
    block: BasicBlock,
    block_key: Tuple[str, str],
    cut_specs: List[Tuple[Cut, Set[int]]],
    live_out: Set[str],
    model: CostModel,
    fresh,
    afu_names,
    result: RewriteResult,
    verifying: bool = False,
) -> None:
    body = block.body
    term = block.terminator
    if term is None:
        raise RewriteError(f"block {block_key} has no terminator")
    sources, term_sources, last_def = _reaching_sources(body, term)

    # Consumers of every defining position ('term' marks terminator uses).
    consumers: Dict[int, Set[object]] = {p: set() for p in range(len(body))}
    for pos, row in enumerate(sources):
        for src in row:
            if src[0] == "pos":
                consumers[src[1]].add(pos)
    for src in term_sources:
        if src[0] == "pos":
            consumers[src[1]].add("term")

    fresh_of = {pos: fresh() for pos, insn in enumerate(body)
                if insn.dest is not None}

    # Macro-operation scheduling, dropping cuts that cannot be atomic.
    active = list(range(len(cut_specs)))
    while True:
        cut_of_pos: Dict[int, int] = {}
        for c in active:
            for pos in cut_specs[c][1]:
                cut_of_pos[pos] = c
        unit_of = {
            pos: (("cut", cut_of_pos[pos]) if pos in cut_of_pos
                  else ("op", pos))
            for pos in range(len(body))
        }
        unit_pos = {}
        for pos, unit in unit_of.items():
            unit_pos[unit] = min(unit_pos.get(unit, pos), pos)
        order, stuck = _schedule_units(body, sources, unit_of, unit_pos)
        if verifying:
            # Cross-check this exact fusion configuration against the
            # independent DFS-based schedulability test (V306): the two
            # implementations must agree on accept vs. skip.
            from ..analysis.diagnostics import VerificationError
            from ..analysis.verifier import check_fused_schedule

            independent = check_fused_schedule(
                body, [set(cut_specs[c][1]) for c in active])
            if bool(stuck) != (independent is not None):
                verdict = ("schedulable" if independent is None
                           else independent.message)
                raise VerificationError(
                    f"fused-schedule cross-check disagreement in block "
                    f"{block_key[0]}/{block_key[1]}: scheduler says "
                    f"{'stuck' if stuck else 'schedulable'}, independent "
                    f"check says {verdict}",
                    [independent] if independent is not None else [])
        if not stuck:
            break
        stuck_cuts = sorted(u[1] for u in stuck if u[0] == "cut")
        if not stuck_cuts:
            raise RewriteError(
                f"block {block_key} has a dependence cycle not caused "
                f"by any cut — the input IR is malformed")
        dropped = stuck_cuts[0]
        active.remove(dropped)
        cut = cut_specs[dropped][0]
        result.skipped.append(
            f"{block_key[0]}/{block_key[1]}: cut of {cut.size} node(s) "
            f"(merit {cut.merit:g}) skipped — a memory-carried dependence "
            f"threads through it, so it cannot issue as one instruction")

    if not active:
        # Every cut in this block was skipped: leave the block exactly
        # as it was (no renaming, no cost override, not counted as
        # rewritten).
        return

    new_insns: List[Instruction] = []
    cost = 0.0
    for unit in order:
        if unit[0] == "op":
            pos = unit[1]
            insn = body[pos]
            operands = tuple(_resolve(s, fresh_of) for s in sources[pos])
            new_insns.append(Instruction(
                insn.opcode,
                fresh_of.get(pos),
                operands,
                array=insn.array,
                callee=insn.callee,
            ))
            cost += model.sw_latency.get(insn.opcode, 1)
            continue

        cut, positions = cut_specs[unit[1]]
        members = sorted(positions)
        member_set = set(members)
        ports: List[str] = []
        seen_ports: Set[str] = set()

        def port(name: str) -> str:
            if name not in seen_ports:
                seen_ports.add(name)
                ports.append(name)
            return name

        gates: List[FusedGate] = []
        for pos in members:
            inputs: List[object] = []
            for src in sources[pos]:
                if src[0] == "const":
                    inputs.append(src[1])
                elif src[0] == "var":
                    inputs.append(port(src[1]))
                elif src[1] in member_set:
                    inputs.append(fresh_of[src[1]])
                else:
                    inputs.append(port(fresh_of[src[1]]))
            gates.append(FusedGate(
                opcode=body[pos].opcode,
                output=fresh_of[pos],
                inputs=tuple(inputs),
            ))

        outputs = []
        for pos in members:
            dest = body[pos].dest
            escapes = any(c == "term" or c not in member_set
                          for c in consumers[pos])
            lives_out = last_def.get(dest) == pos and dest in live_out
            if escapes or lives_out:
                outputs.append(pos)

        afu = FusedAFU(
            name=afu_names(),
            block=f"{block_key[0]}/{block_key[1]}",
            gates=tuple(gates),
            input_ports=tuple(ports),
            output_wires=tuple(fresh_of[p] for p in outputs),
            latency_cycles=cut.hardware_cycles,
            software_cycles=cut.software_cycles,
            area_mac=cut_area(cut.dfg, cut.nodes, model),
        )
        new_insns.append(ISEInstruction(
            afu,
            operands=tuple(Reg(p) for p in ports),
            dests=tuple(fresh_of[p] for p in outputs),
        ))
        cost += afu.latency_cycles
        result.afus.append(afu)

    # Architectural write-back: restore live-out registers to their
    # original names (free — a real ISE writes the register file
    # directly; the renaming is a simulation artifact).
    for reg in sorted(live_out):
        pos = last_def.get(reg)
        if pos is not None:
            new_insns.append(Instruction(
                Opcode.COPY, reg, (Reg(fresh_of[pos]),)))
    new_insns.append(Instruction(
        term.opcode,
        None,
        tuple(_resolve(s, fresh_of) for s in term_sources),
        targets=term.targets,
    ))
    block.instructions[:] = new_insns
    result.block_costs[block_key] = cost
    result.rewritten_blocks += 1


def rewrite_module(
    module: Module,
    cuts: Sequence[Cut],
    model: Optional[CostModel] = None,
    verify: Optional[bool] = None,
) -> RewriteResult:
    """Splice *cuts* into a clone of *module* as custom instructions.

    Args:
        module: the program the cuts were selected from (its instruction
            objects must be the ones the cuts' DFG nodes reference —
            true for any :class:`~repro.pipeline.Application`).
        cuts: selected cuts (e.g. ``SelectionResult.cuts``); their node
            sets must be pairwise disjoint per block.
        model: cost model for the cycle accounting of uncovered
            operations; pass the model the selection used so measured
            and estimated speedups are comparable.
        verify: ``True``/``False`` forces verification on/off; ``None``
            follows ``$REPRO_VERIFY``.  When on, every scheduling
            decision is cross-checked against the independent
            fused-schedule test and the rewritten clone must pass
            :func:`repro.analysis.verifier.check_rewrite` (full module
            verification plus memory/call-chain preservation), raising
            :class:`~repro.analysis.diagnostics.VerificationError`
            otherwise.

    Returns:
        A :class:`RewriteResult` whose ``module`` executes bit-identically
        to the input (property-tested across every bundled workload) and
        whose ``block_costs`` drive :mod:`repro.exec.cycles`.
    """
    from ..analysis.verifier import verify_enabled

    model = model or CostModel()
    verifying = verify_enabled(verify)
    per_block = _locate_cuts(module, cuts)
    result = RewriteResult(module=clone_module(module))

    counter = [0]

    def afu_names() -> str:
        name = f"ise{counter[0]}"
        counter[0] += 1
        return name

    for func in result.module.functions.values():
        func_keys = [(func.name, b.label) for b in func.blocks]
        if not any(key in per_block for key in func_keys):
            continue
        liveness = Liveness(func)
        fresh = _name_pool(func)
        for block in list(func.blocks):
            key = (func.name, block.label)
            if key in per_block:
                _rewrite_block(
                    block, key, per_block[key],
                    liveness.live_out_of(block.label),
                    model, fresh, afu_names, result,
                    verifying=verifying,
                )
    if verifying:
        from ..analysis.diagnostics import VerificationError, errors_of
        from ..analysis.verifier import check_rewrite

        problems = errors_of(check_rewrite(module, result.module))
        if problems:
            raise VerificationError(
                f"rewritten clone failed verification "
                f"({result.rewritten_blocks} block(s) rewritten)",
                problems)
    return result
