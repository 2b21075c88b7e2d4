"""Tests for the cost model and the merit function M(S)."""

from __future__ import annotations

import math

import pytest

from repro.hwmodel import (
    CostModel,
    application_cycles,
    cut_area,
    cut_hardware_critical_path,
    cut_hardware_cycles,
    cut_merit,
    cut_software_cycles,
    estimated_speedup,
    merit_breakdown,
    uniform_cost_model,
)
from repro.ir.opcodes import Opcode
from repro.ir.synth import make_dfg


@pytest.fixture(scope="module")
def model():
    return CostModel()


def chain(ops, live_last=True):
    edges = [(i, i + 1) for i in range(len(ops) - 1)]
    live = [len(ops) - 1] if live_last else []
    return make_dfg(ops, edges, live_out=live)


class TestLatencies:
    def test_software_accumulates(self, model):
        dfg = chain([Opcode.MUL, Opcode.ADD, Opcode.ADD])
        assert cut_software_cycles(dfg, range(3), model) == 4  # 2+1+1

    def test_critical_path_follows_chain(self, model):
        dfg = chain([Opcode.ADD] * 4)
        cp = cut_hardware_critical_path(dfg, range(4), model)
        assert cp == pytest.approx(4 * 0.30)

    def test_critical_path_of_partial_cut(self, model):
        dfg = chain([Opcode.ADD] * 4)
        # Two non-adjacent nodes: paths don't connect inside the cut.
        cp = cut_hardware_critical_path(dfg, {0, 2}, model)
        assert cp == pytest.approx(0.30)

    def test_hw_cycles_is_ceiling(self, model):
        dfg = chain([Opcode.ADD] * 4)        # cp = 1.2 -> 2 cycles
        assert cut_hardware_cycles(dfg, range(4), model) == 2
        assert cut_hardware_cycles(dfg, range(3), model) == 1  # 0.9
        assert cut_hardware_cycles(dfg, [], model) == 0

    def test_forbidden_node_has_infinite_delay(self, model):
        dfg = make_dfg([Opcode.LOAD], [], live_out=[0])
        with pytest.raises(ValueError):
            cut_hardware_cycles(dfg, {0}, model)

    def test_constant_shift_is_cheap(self, model):
        # Shift with a constant amount: second operand is a Const.
        from repro.ir.instructions import binop
        from repro.ir.values import Const, Reg
        dfg = chain([Opcode.SHL, Opcode.SHL])
        node = dfg.nodes[0]
        # make_dfg pads operands with registers; emulate const shift:
        const_shift = binop(Opcode.SHL, "x", Reg("a"), Const(3))
        node.insns = (const_shift,)
        assert model.hw(node) < model.hw_delay[Opcode.SHL]


class TestMerit:
    def test_merit_formula(self, model):
        dfg = chain([Opcode.MUL, Opcode.ADD])
        merit = cut_merit(dfg, {0, 1}, model)
        sw = cut_software_cycles(dfg, {0, 1}, model)
        hw = cut_hardware_cycles(dfg, {0, 1}, model)
        assert merit == pytest.approx(dfg.weight * (sw - hw))

    def test_empty_cut_merit_zero(self, model):
        dfg = chain([Opcode.ADD])
        assert cut_merit(dfg, [], model) == 0.0

    def test_breakdown_consistency(self, model):
        dfg = chain([Opcode.MUL, Opcode.ADD, Opcode.XOR])
        info = merit_breakdown(dfg, range(3), model)
        assert info.merit == pytest.approx(
            info.weight * info.saved_per_execution)
        assert info.hardware_cycles == math.ceil(
            info.critical_path_mac - 1e-9)
        assert info.area_mac > 0

    def test_area_accumulates(self, model):
        dfg = chain([Opcode.MUL, Opcode.MUL])
        assert cut_area(dfg, range(2), model) == pytest.approx(1.8)


class TestApplicationSpeedup:
    def test_application_cycles_weighted(self, model):
        a = chain([Opcode.ADD] * 2)
        b = make_dfg([Opcode.MUL], [], live_out=[0], weight=10.0)
        total = application_cycles([a, b], model)
        assert total == pytest.approx(1 * 2 + 10 * 2)

    def test_application_cycles_memo_is_exact(self):
        # A collapsed block holds a forbidden supernode: its software
        # cycles count here, unlike in DataFlowGraph.cost_vectors.
        collapsed = chain([Opcode.MUL, Opcode.ADD, Opcode.SHL]).collapse(
            {0, 1}, "ise1")
        blocks = [chain([Opcode.ADD, Opcode.MUL]),
                  make_dfg([Opcode.MUL, Opcode.XOR], [(0, 1)],
                           live_out=[1], weight=0.1),
                  collapsed]
        collapsed.weight = 3.7

        def unmemoised(model):
            total = 0.0
            for dfg in blocks:
                total += dfg.weight * sum(model.sw(node)
                                          for node in dfg.nodes)
            return total

        first, twin = CostModel(), CostModel()
        assert first == twin and first is not twin
        slow = CostModel()
        slow.sw_latency[Opcode.MUL] += 3
        for model in (first, twin, first, slow, twin, slow):
            assert application_cycles(blocks, model) == unmemoised(model)
        assert (application_cycles(blocks, slow)
                > application_cycles(blocks, first))
        # The block weight stays outside the memo.
        blocks[1].weight = 12.5
        for model in (first, twin, slow):
            assert application_cycles(blocks, model) == unmemoised(model)

    def test_estimated_speedup(self):
        assert estimated_speedup(100, 50) == pytest.approx(2.0)
        assert estimated_speedup(100, 0) == pytest.approx(1.0)
        assert estimated_speedup(0, 0) == 1.0
        assert math.isinf(estimated_speedup(100, 100))


class TestUniformModel:
    def test_every_legal_op_same_cost(self):
        uniform = uniform_cost_model()
        assert uniform.sw_latency[Opcode.MUL] == \
            uniform.sw_latency[Opcode.ADD] == 1
        assert uniform.hw_delay[Opcode.MUL] == \
            uniform.hw_delay[Opcode.XOR] == 0.3
        assert math.isinf(uniform.hw_delay[Opcode.LOAD])
