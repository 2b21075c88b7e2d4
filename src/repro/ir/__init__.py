"""Intermediate representation: values, instructions, blocks, CFG and DFG."""

from .opcodes import (
    COMPARISON_OPS,
    NEGATED_COMPARISON,
    PURE_OPS,
    Opcode,
    is_afu_legal,
    is_memory,
    is_terminator,
    opinfo,
)
from .values import (
    Const,
    Operand,
    Reg,
    is_const,
    is_reg,
    to_signed,
    to_unsigned,
    wrap32,
)
from .instructions import (
    Instruction,
    binop,
    br,
    call,
    copy_reg,
    jmp,
    load,
    ret,
    select,
    store,
    unop,
)
from .function import (
    BasicBlock,
    Function,
    GlobalArray,
    Module,
    count_real_instructions,
)
from .cfg import (
    Liveness,
    predecessors,
    reachable_blocks,
    reverse_postorder,
    successors,
)
from .dfg import DataFlowGraph, DFGMasks, DFGNode, build_dfg, function_dfgs
from .printer import IRParseError, parse_module, print_module, roundtrip

__all__ = [
    "Opcode", "opinfo", "is_afu_legal", "is_memory", "is_terminator",
    "PURE_OPS", "COMPARISON_OPS", "NEGATED_COMPARISON",
    "Const", "Reg", "Operand", "is_reg", "is_const",
    "wrap32", "to_signed", "to_unsigned",
    "Instruction", "binop", "unop", "select", "load", "store", "call",
    "br", "jmp", "ret", "copy_reg",
    "BasicBlock", "Function", "GlobalArray", "Module",
    "count_real_instructions",
    "Liveness", "successors", "predecessors", "reachable_blocks",
    "reverse_postorder",
    "DataFlowGraph", "DFGMasks", "DFGNode", "build_dfg", "function_dfgs",
    "print_module", "parse_module", "roundtrip", "IRParseError",
]
