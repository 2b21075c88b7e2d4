"""Verilog emission from the fused units the rewritten program runs.

The CLI verb ``afu`` and :meth:`repro.session.Session.afu` must describe the
interface that executes: one module per spliced
:class:`~repro.exec.rewrite.FusedAFU`, named after it, with input ports
in the ISE instruction's operand order and outputs in its dest order.
"""

from __future__ import annotations

import pytest

from repro import WORKLOADS
from repro.core import Constraints, evaluate_cut, find_best_cut
from repro.exec import emit_verilog, rewrite_module
from repro.frontend import compile_source
from repro.hwmodel import CostModel
from repro.ir import Opcode
from repro.ir.dfg import function_dfgs
from repro.session import Session

MODEL = CostModel()


def fused(app, constraints=Constraints(4, 2)):
    res = find_best_cut(app.hot_dfg, constraints, MODEL)
    [afu] = rewrite_module(app.module, [res.cut], MODEL).afus
    return afu


def declared(text, direction):
    """Port names of one direction, in declaration order."""
    return [line.split()[-1].rstrip(",") for line in text.splitlines()
            if line.strip().startswith(direction)]


class TestVerilog:
    def test_module_structure(self, adpcm_decode_app):
        afu = fused(adpcm_decode_app)
        text = emit_verilog(afu)
        assert text.startswith("// Custom instruction")
        assert f"module {afu.name} (" in text
        assert f"{len(afu.gates)} operators" in text.splitlines()[0]
        assert text.rstrip().endswith("endmodule")

    def test_unique_wires(self, adpcm_decode_app):
        text = emit_verilog(fused(adpcm_decode_app))
        wires = [line.strip() for line in text.splitlines()
                 if line.strip().startswith("wire")]
        assert len(wires) == len(set(wires))

    def test_ports_declared(self, gsm_app):
        afu = fused(gsm_app)
        text = emit_verilog(afu)
        assert declared(text, "input") == [
            p.replace(".", "_") for p in afu.input_ports]
        assert declared(text, "output") == [
            w.replace(".", "_") + "_out" for w in afu.output_wires]

    def test_one_assign_per_gate(self, mixer_app):
        afu = fused(mixer_app)
        assigns = [line for line in emit_verilog(afu).splitlines()
                   if line.strip().startswith("assign")]
        assert len(assigns) == len(afu.gates) + len(afu.output_wires)

    def test_select_renders_as_mux(self, adpcm_decode_app):
        afu = fused(adpcm_decode_app)
        if any(g.opcode is Opcode.SELECT for g in afu.gates):
            assert "?" in emit_verilog(afu)

    def test_sanitised_names_stay_distinct(self):
        # The rewrite's fresh register ise.0 sanitises onto the live-in
        # parameter ise_0; the wire must not shadow the port.
        module = compile_source(
            "int f(int ise_0, int b) { return (ise_0 + b) * 3; }")
        [dfg] = [d for d in function_dfgs(module.function("f")) if d.n]
        cut = evaluate_cut(dfg, set(range(dfg.n)), MODEL)
        [afu] = rewrite_module(module, [cut], MODEL).afus
        assert afu.input_ports == ("ise_0", "b")
        assert afu.gates[0].output == "ise.0"
        text = emit_verilog(afu)
        assert declared(text, "input") == ["ise_0", "b"]
        assert "assign ise_0_1 = ise_0 + b;" in text
        assert "assign ise_1 = ise_0_1 * 32'd3;" in text

    def test_keywords_are_renamed_and_stay_distinct(self):
        # Live-in variables named like Verilog keywords become ports;
        # ``begin_`` is taken by the escaped ``begin`` and moves on.
        module = compile_source("""
            int f(int begin, int end, int begin_) {
                int wire = begin * end;
                int s = 0;
                int i = 0;
                while (i < 3) {
                    s = s + ((wire ^ begin) + end + begin_) * 3;
                    i = i + 1;
                }
                return s;
            }""")
        [dfg] = [d for d in function_dfgs(module.function("f"))
                 if d.name == "f/loop_body1"]
        cut = evaluate_cut(dfg, set(range(dfg.n)), MODEL)
        [afu] = rewrite_module(module, [cut], MODEL).afus
        assert afu.input_ports[:4] == ("wire", "begin", "end", "begin_")
        text = emit_verilog(afu)
        assert declared(text, "input")[:4] == [
            "wire_", "begin_", "end_", "begin__1"]
        assert "assign ise_0 = wire_ ^ begin_;" in text
        assert "assign ise_1 = ise_0 + end_;" in text
        assert "assign ise_2 = ise_1 + begin__1;" in text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_session_afu_matches_executed_units(name):
    """One module per executed unit, with its name, operand order and
    dest order — the Verilog describes the ISEs that actually run."""
    session = Session(store=False)
    modules = session.afu(name, ninstr=2)
    result = session.select(name, ninstr=2)
    app = session.prepare(name)
    afus = rewrite_module(app.module, result.cuts, session.model).afus
    assert afus and len(modules) == len(afus)
    for text, afu in zip(modules, afus):
        assert f"module {afu.name} (" in text
        assert declared(text, "input") == [
            p.replace(".", "_") for p in afu.input_ports]
        assert declared(text, "output") == [
            w.replace(".", "_") + "_out" for w in afu.output_wires]
