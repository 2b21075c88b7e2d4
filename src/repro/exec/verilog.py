"""Structural Verilog emission for fused custom instructions.

Renders the :class:`~repro.exec.rewrite.FusedAFU` that the rewritten
program executes as a self-contained combinational module: one 32-bit
input port per register-file read, in the ISE instruction's operand
order; one ``<wire>_out`` output per write-back, in its dest order; and
a continuous assignment per operator.  The paper's AFUs are purely
combinational (Section 2: no architecturally visible state), so no clock
is emitted — the surrounding pipeline registers the results.

Wire and port names are the rewrite's register names made legal
(``ise.7`` -> ``ise_7``); live-in registers keep their names unless a
name is a Verilog keyword (``begin`` -> ``begin_``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir.opcodes import Opcode
from .rewrite import FusedAFU, FusedGate

_BINARY_FMT = {
    Opcode.ADD: "{a} + {b}",
    Opcode.SUB: "{a} - {b}",
    Opcode.MUL: "{a} * {b}",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SHL: "{a} << ({b} & 32'd31)",
    Opcode.LSHR: "{a} >> ({b} & 32'd31)",
    Opcode.ASHR: "$signed({a}) >>> ({b} & 32'd31)",
    Opcode.EQ: "{{31'd0, {a} == {b}}}",
    Opcode.NE: "{{31'd0, {a} != {b}}}",
    Opcode.SLT: "{{31'd0, $signed({a}) < $signed({b})}}",
    Opcode.SLE: "{{31'd0, $signed({a}) <= $signed({b})}}",
    Opcode.SGT: "{{31'd0, $signed({a}) > $signed({b})}}",
    Opcode.SGE: "{{31'd0, $signed({a}) >= $signed({b})}}",
    Opcode.DIV: "$signed({a}) / $signed({b})",
    Opcode.REM: "$signed({a}) % $signed({b})",
}

#: IEEE 1364-2005 reserved words: a MiniC variable named like one
#: cannot be a port or wire name as it is.
_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez
    cell cmos config deassign default defparam design disable edge else
    end endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout
    input instance integer join large liblist library localparam
    macromodule medium module nand negedge nmos nor noshowcancelled not
    notif0 notif1 or output parameter pmos posedge primitive pull0 pull1
    pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1
    scalared showcancelled signed small specify specparam strong0
    strong1 supply0 supply1 table task time tran tranif0 tranif1 tri
    tri0 tri1 triand trior trireg unsigned use uwire vectored wait wand
    weak0 weak1 while wire wor xnor xor
""".split())


def _identifiers(afu: FusedAFU) -> Tuple[Dict[str, str], List[str]]:
    """Distinct Verilog identifiers for the unit's wires and output ports.

    Returns ``(wires, outputs)``: every input port and gate output mapped
    to a legal identifier (``.`` -> ``_``, a leading digit gets ``w``,
    a keyword gets a trailing ``_``), and the ``<wire>_out`` name of
    each output in ``output_wires`` order.  A name that sanitises onto
    one already taken (``x.1`` beside ``x_1``, ``begin`` beside
    ``begin_``) gets a ``_<k>`` suffix.
    """
    taken: Set[str] = set()

    def claim(base: str) -> str:
        if base in _KEYWORDS:
            base += "_"
        ident, k = base, 0
        while ident in taken:
            k += 1
            ident = f"{base}_{k}"
        taken.add(ident)
        return ident

    wires: Dict[str, str] = {}
    for name in (*afu.input_ports, *(g.output for g in afu.gates)):
        if name not in wires:
            base = name.replace(".", "_")
            wires[name] = claim("w" + base if base[:1].isdigit() else base)
    outputs = [claim(f"{wires[w]}_out") for w in afu.output_wires]
    return wires, outputs


def _operand(ref, wires: Dict[str, str]) -> str:
    if isinstance(ref, int):
        if ref < 0:
            return f"-32'sd{-ref}"
        return f"32'd{ref}"
    return wires[ref]


def _gate_expr(gate: FusedGate, wires: Dict[str, str]) -> str:
    op = gate.opcode
    ins = [_operand(x, wires) for x in gate.inputs]
    if op in _BINARY_FMT:
        return _BINARY_FMT[op].format(a=ins[0], b=ins[1])
    if op is Opcode.NEG:
        return f"-{ins[0]}"
    if op is Opcode.NOT:
        return f"~{ins[0]}"
    if op is Opcode.COPY:
        return ins[0]
    if op is Opcode.SELECT:
        return f"({ins[0]} != 32'd0) ? {ins[1]} : {ins[2]}"
    raise ValueError(f"no Verilog form for {op}")


def emit_verilog(afu: FusedAFU) -> str:
    """Render *afu* as a synthesisable Verilog-2001 module named after
    the unit, with ports in the executed instruction's operand and dest
    order."""
    wires, outputs = _identifiers(afu)
    ports = [f"    input  wire [31:0] {wires[p]}" for p in afu.input_ports]
    ports += [f"    output wire [31:0] {out}" for out in outputs]
    lines = [
        f"// Custom instruction {afu.name}: {len(afu.gates)} operators, "
        f"{afu.latency_cycles} cycle(s), "
        f"~{afu.area_mac:.2f} MAC-equivalent area.",
        f"module {afu.name} (",
        ",\n".join(ports),
        ");",
        "",
    ]
    lines += [f"    wire [31:0] {wires[g.output]};" for g in afu.gates]
    lines.append("")
    lines += [f"    assign {wires[g.output]} = {_gate_expr(g, wires)};"
              for g in afu.gates]
    lines.append("")
    lines += [f"    assign {out} = {wires[w]};"
              for out, w in zip(outputs, afu.output_wires)]
    lines += ["", "endmodule"]
    return "\n".join(lines)
