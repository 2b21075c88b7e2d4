"""Unit tests for the ISE rewriter on hand-built IR.

These cover the rewrite mechanics that the workload-level equivalence
suite cannot isolate: splice placement under interleaved consumers,
non-SSA register reuse, memory ordering, memory-carried dependence
cycles (skipped cuts), and the cost bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.core.cut import evaluate_cut
from repro.exec import (
    RewriteError,
    module_block_costs,
    rewrite_module,
    run_with_cycles,
)
from repro.hwmodel import CostModel
from repro.interp import Interpreter, Memory
from repro.ir.dfg import function_dfgs
from repro.ir.opcodes import Opcode
from repro.ir.printer import parse_module


MODEL = CostModel()


def _dfg_of(module, func_name):
    [dfg] = [d for d in function_dfgs(module.function(func_name))
             if d.n >= 1]
    return dfg


def _nodes_by_label(dfg, *prefixes):
    """DFG node indices whose label starts with any prefix (e.g. 'add#0')."""
    picked = []
    for prefix in prefixes:
        matches = [n.index for n in dfg.nodes if n.label.startswith(prefix)]
        assert matches, f"no node labelled {prefix} in {dfg.name}"
        picked.extend(matches)
    return picked


def _run_both(module, rewritten, entry, args=()):
    base_mem, ise_mem = Memory(module), Memory(rewritten.module)
    base = Interpreter(module, memory=base_mem).run(entry, args)
    ise = Interpreter(rewritten.module, memory=ise_mem).run(entry, args)
    assert base.value == ise.value
    assert base_mem.arrays == ise_mem.arrays
    return base, ise


class TestBasicSplice:
    IR = """
global out[4]

func f(a, b):
entry:
  %t0 = add %a, %b
  %t1 = mul %t0, %a
  %t2 = xor %t1, 7
  store out[0] = %t2
  ret %t2
"""

    def test_single_cut_is_fused_and_equivalent(self):
        module = parse_module(self.IR)
        dfg = _dfg_of(module, "f")
        cut = evaluate_cut(dfg, _nodes_by_label(dfg, "add#0", "mul#1",
                                                "xor#2"), MODEL)
        rewritten = rewrite_module(module, [cut], MODEL)
        assert rewritten.num_instructions == 1
        assert rewritten.rewritten_blocks == 1
        assert not rewritten.skipped
        ise = [i for i in rewritten.module.function("f").entry.instructions
               if i.opcode is Opcode.ISE]
        assert len(ise) == 1
        assert len(ise[0].dests) == 1          # one escaping value
        _run_both(module, rewritten, "f", (5, 9))
        _run_both(module, rewritten, "f", (-7, 123456))

    def test_block_cost_is_uncovered_plus_latency(self):
        module = parse_module(self.IR)
        dfg = _dfg_of(module, "f")
        cut = evaluate_cut(dfg, _nodes_by_label(dfg, "add#0", "mul#1",
                                                "xor#2"), MODEL)
        rewritten = rewrite_module(module, [cut], MODEL)
        cost = rewritten.block_costs[("f", "entry")]
        store_cost = MODEL.sw_latency[Opcode.STORE]
        assert cost == pytest.approx(store_cost + cut.hardware_cycles)
        # The baseline accountant must agree on the unmodified module.
        base = module_block_costs(module, MODEL)[("f", "entry")]
        assert base == pytest.approx(store_cost + cut.software_cycles)


class TestSplicePlacement:
    # A non-member consumer (%c) sits *between* the two members in
    # program order; the cut is convex, so splicing must reorder the
    # consumer after the fused instruction without changing results.
    IR = """
global out[4]

func f(a, b):
entry:
  %m1 = add %a, %b
  %c = sub %m1, %a
  %m2 = xor %a, %b
  store out[0] = %c
  store out[1] = %m2
  ret %c
"""

    def test_interleaved_consumer(self):
        module = parse_module(self.IR)
        dfg = _dfg_of(module, "f")
        cut = evaluate_cut(dfg, _nodes_by_label(dfg, "add#0", "xor#2"),
                           MODEL)
        assert cut.convex
        rewritten = rewrite_module(module, [cut], MODEL)
        assert rewritten.num_instructions == 1
        _run_both(module, rewritten, "f", (17, 4))
        _run_both(module, rewritten, "f", (-1, -2))


class TestRegisterReuse:
    # Non-SSA reuse: %t is defined twice; the cut covers only the first
    # chain, and the renaming must keep both readers on the right value.
    IR = """
global out[4]

func f(a, b):
entry:
  %t = add %a, %b
  %u = mul %t, 3
  %t = sub %a, %b
  %v = mul %t, 5
  store out[0] = %u
  store out[1] = %v
  ret %u
"""

    def test_reused_name_stays_correct(self):
        module = parse_module(self.IR)
        dfg = _dfg_of(module, "f")
        cut = evaluate_cut(dfg, _nodes_by_label(dfg, "add#0", "mul#1"),
                           MODEL)
        rewritten = rewrite_module(module, [cut], MODEL)
        assert rewritten.num_instructions == 1
        _run_both(module, rewritten, "f", (11, 7))


class TestMemoryCarriedCycle:
    # m1 -> store -> load -> m2: register-convex, but a memory-carried
    # dependence threads through the cut, so it cannot issue atomically.
    # The rewriter must skip it (not miscompile) and stay bit-exact.
    IR = """
global buf[4]

func f(a, b):
entry:
  %m1 = add %a, %b
  store buf[0] = %m1
  %l = load buf[0]
  %m2 = mul %l, %a
  store buf[1] = %m2
  ret %m2
"""

    def test_unschedulable_cut_is_skipped(self):
        module = parse_module(self.IR)
        dfg = _dfg_of(module, "f")
        cut = evaluate_cut(dfg, _nodes_by_label(dfg, "add#0", "mul#3"),
                           MODEL)
        assert cut.convex                     # register-dataflow convex...
        rewritten = rewrite_module(module, [cut], MODEL)
        assert rewritten.num_instructions == 0    # ...but not executable
        assert rewritten.rewritten_blocks == 0    # block left untouched
        assert not rewritten.block_costs
        assert len(rewritten.skipped) == 1
        assert "memory-carried" in rewritten.skipped[0]
        _run_both(module, rewritten, "f", (3, 4))


class TestPickledCuts:
    # A selection that crossed a process boundary holds pickled cuts:
    # their DFG nodes hold *copies* of the module's instructions, so
    # identity-based location must fall back to the structural (dfg
    # name + node label) path.
    def test_cut_survives_pickle_roundtrip(self):
        import pickle

        from repro import Constraints, prepare_application
        from repro.core import select_iterative

        app = prepare_application("fir", n=32)
        result = select_iterative(app.dfgs,
                                  Constraints(nin=4, nout=2, ninstr=4))
        assert result.cuts
        cuts = pickle.loads(pickle.dumps(result.cuts))
        direct = rewrite_module(app.module, result.cuts, MODEL)
        via_pickle = rewrite_module(app.module, cuts, MODEL)
        assert via_pickle.num_instructions == direct.num_instructions
        assert via_pickle.block_costs == direct.block_costs
        _run_both(app.module, via_pickle, app.entry, (32,))


class TestOverlapRejected:
    IR = TestBasicSplice.IR

    def test_overlapping_cuts_raise(self):
        module = parse_module(self.IR)
        dfg = _dfg_of(module, "f")
        a = evaluate_cut(dfg, _nodes_by_label(dfg, "add#0", "mul#1"), MODEL)
        b = evaluate_cut(dfg, _nodes_by_label(dfg, "mul#1", "xor#2"), MODEL)
        with pytest.raises(RewriteError, match="overlap"):
            rewrite_module(module, [a, b], MODEL)


class TestForbiddenNodesRejected:
    # Memory accesses can never join an AFU.  Spliced in anyway, a
    # {load} cut became a LOAD gate without its array (the program then
    # trapped) and a {store} cut crashed the rewrite.
    @pytest.mark.parametrize("opcode", [Opcode.LOAD, Opcode.STORE])
    def test_memory_node_cut_raises(self, adpcm_decode_app, opcode):
        dfg = adpcm_decode_app.hot_dfg
        node = next(i for i in range(dfg.n)
                    if dfg.nodes[i].opcode is opcode)
        assert dfg.nodes[node].forbidden
        cut = evaluate_cut(dfg, {node}, MODEL)
        with pytest.raises(RewriteError, match="no AFU may implement"):
            rewrite_module(adpcm_decode_app.module, [cut], MODEL,
                           verify=False)


class TestSelectedCutsSchedule:
    def test_iterative_selection_is_schedulable(self, adpcm_decode_app):
        """Everything the selection returns must issue together: no cut
        is skipped, and every scheduling decision agrees with V306."""
        from repro.core import Constraints, SearchLimits, select_iterative

        cons = Constraints(nin=4, nout=2, ninstr=4)
        result = select_iterative(adpcm_decode_app.dfgs, cons, MODEL,
                                  SearchLimits(max_considered=400_000))
        rewritten = rewrite_module(adpcm_decode_app.module, result.cuts,
                                   MODEL, verify=True)
        assert rewritten.skipped == []
        assert rewritten.num_instructions == len(result.cuts)


class TestLiveOutAcrossBlocks:
    # The fused value crosses a block boundary and feeds a loop-carried
    # register, so the copy-back path is exercised.
    IR = """
global out[8]

func f(n):
entry:
  %i = copy 0
  %acc = copy 1
  jmp loop
loop:
  %sq = mul %acc, %acc
  %acc = and %sq, 262143
  %acc = add %acc, %i
  store out[%i] = %acc
  %i = add %i, 1
  %t = slt %i, %n
  br %t, loop, done
done:
  ret %acc
"""

    def test_loop_carried_liveout(self):
        module = parse_module(self.IR)
        func = module.function("f")
        dfgs = function_dfgs(func)
        [loop_dfg] = [d for d in dfgs if d.name.endswith("/loop")]
        cut = evaluate_cut(loop_dfg,
                           _nodes_by_label(loop_dfg, "mul#0", "and#1",
                                           "add#2"), MODEL)
        assert cut.convex
        rewritten = rewrite_module(module, [cut], MODEL)
        assert rewritten.num_instructions == 1
        _run_both(module, rewritten, "f", (8,))

    def test_cycles_accounting_runs(self):
        module = parse_module(self.IR)
        report = run_with_cycles(module, "f", (8,), memory=Memory(module),
                                 model=MODEL)
        assert report.cycles > 0
        assert report.steps > 0
