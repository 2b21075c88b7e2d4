"""The fused AFU netlist against the cut it implements.

The key property: evaluating the :class:`~repro.exec.rewrite.FusedAFU`
the rewrite splices in must agree with *program-order* execution of the
cut's instructions — an independent semantic path that goes through
neither the DFG edges nor the netlist ordering.  The structure tests
tie the unit's interface to the cut's inputs, outputs and size.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Constraints, find_best_cut
from repro.exec import rewrite_module
from repro.hwmodel import CostModel
from repro.ir import Reg
from repro.passes.constant_folding import evaluate_pure_op

MODEL = CostModel()


def fused(app, cut):
    """The one unit rewriting *app* with *cut* splices in."""
    [afu] = rewrite_module(app.module, [cut], MODEL).afus
    return afu


def best_cut(app, constraints):
    res = find_best_cut(app.hot_dfg, constraints, MODEL)
    assert res.cut is not None
    return res.cut


def body_position(node) -> int:
    """Original body position, encoded in the node label (``add#5``)."""
    return int(node.label.rsplit("#", 1)[1])


def program_order_eval(dfg, members, reg_inputs):
    """Execute the cut's instructions in original program order through
    a register file; returns each member's result by node index."""
    regs = dict(reg_inputs)
    results = {}
    for i in members:
        insn = dfg.nodes[i].insns[0]
        values = [regs[op.name] if isinstance(op, Reg) else op.value
                  for op in insn.operands]
        results[i] = regs[insn.dest] = evaluate_pure_op(insn.opcode, values)
    return results


class TestAgainstProgramOrder:
    @pytest.mark.parametrize("constraints", [
        Constraints(2, 1), Constraints(4, 2), Constraints(8, 4),
    ])
    def test_adpcm_cut_equivalence(self, adpcm_decode_app, constraints):
        dfg = adpcm_decode_app.hot_dfg
        cut = best_cut(adpcm_decode_app, constraints)
        afu = fused(adpcm_decode_app, cut)
        members = sorted(cut.nodes,
                         key=lambda i: body_position(dfg.nodes[i]))
        # Ports are the cut's external sources in first-use order.
        sources = []
        for i in members:
            for src in dfg.operand_sources[i]:
                external = src[0] == "var" or (
                    src[0] == "node" and src[1] not in cut.nodes)
                if external and src not in sources:
                    sources.append(src)
        assert len(sources) == len(afu.input_ports)
        for port, src in zip(afu.input_ports, sources):
            if src[0] == "var":     # live-in registers keep their names
                assert port == src[1]
        outputs = sorted(dfg.cut_outputs(set(cut.nodes)),
                         key=lambda i: body_position(dfg.nodes[i]))
        assert len(outputs) == len(afu.output_wires)

        rng = random.Random(0)
        for _ in range(25):
            values = [rng.randint(-(2 ** 31), 2 ** 31 - 1)
                      for _ in afu.input_ports]
            regs = {}
            for value, src in zip(values, sources):
                name = (src[1] if src[0] == "var"
                        else dfg.nodes[src[1]].insns[0].dest)
                regs[name] = value
            expected = program_order_eval(dfg, members, regs)
            assert afu.evaluate(values) == [expected[j] for j in outputs]


class TestStructure:
    def test_ports_match_cut_io(self, gsm_app):
        cut = best_cut(gsm_app, Constraints(4, 2))
        afu = fused(gsm_app, cut)
        assert len(afu.input_ports) == cut.num_inputs
        assert len(afu.output_wires) == cut.num_outputs

    def test_gate_per_node(self, gsm_app):
        cut = best_cut(gsm_app, Constraints(4, 2))
        assert len(fused(gsm_app, cut).gates) == cut.size

    def test_gates_in_dataflow_order(self, adpcm_decode_app):
        afu = fused(adpcm_decode_app,
                    best_cut(adpcm_decode_app, Constraints(3, 1)))
        produced = set(afu.input_ports)
        for gate in afu.gates:
            for ref in gate.inputs:
                if isinstance(ref, str):
                    assert ref in produced
            produced.add(gate.output)

    def test_latency_and_area_populated(self, mixer_app):
        afu = fused(mixer_app, best_cut(mixer_app, Constraints(4, 2)))
        assert afu.latency_cycles >= 1
        assert afu.area_mac > 0
