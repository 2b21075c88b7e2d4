"""Instruction objects of the repro IR.

An :class:`Instruction` is a mutable record — passes rewrite operands and
destinations in place.  Structural helpers (:meth:`Instruction.uses`,
:meth:`Instruction.defs`) expose the register-level dataflow that CFG
liveness and DFG construction are built on.

Terminators are ordinary instructions with ``Opcode.BR``/``JMP``/``RET`` and
carry their successor labels in :attr:`Instruction.targets`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .opcodes import Opcode, opinfo
from .values import Const, Operand, Reg


class Instruction:
    """A single IR instruction.

    Attributes:
        opcode: the operation.
        dest: destination register name, or ``None`` (stores, terminators).
        operands: register/constant operands.  For ``LOAD`` the single
            operand is the index; for ``STORE`` operands are
            ``(index, value)``; for ``BR`` the single operand is the
            condition; for ``RET`` zero or one operand; for ``CALL`` the
            actual arguments.
        array: global array symbol for ``LOAD``/``STORE``.
        callee: function name for ``CALL``.
        targets: successor labels for terminators
            (``BR``: (then, else); ``JMP``: (label,); ``RET``: ()).
    """

    __slots__ = ("opcode", "dest", "operands", "array", "callee", "targets")

    def __init__(
        self,
        opcode: Opcode,
        dest: Optional[str] = None,
        operands: Sequence[Operand] = (),
        array: Optional[str] = None,
        callee: Optional[str] = None,
        targets: Sequence[str] = (),
    ) -> None:
        self.opcode = opcode
        self.dest = dest
        self.operands: Tuple[Operand, ...] = tuple(operands)
        self.array = array
        self.callee = callee
        self.targets: Tuple[str, ...] = tuple(targets)
        self._validate()

    def _validate(self) -> None:
        info = opinfo(self.opcode)
        if info.has_dest and self.opcode is not Opcode.CALL:
            if self.dest is None:
                raise ValueError(f"{self.opcode} requires a destination")
        if self.opcode in (Opcode.LOAD, Opcode.STORE) and self.array is None:
            raise ValueError(f"{self.opcode} requires an array symbol")
        if self.opcode is Opcode.CALL and self.callee is None:
            raise ValueError("CALL requires a callee")
        if self.opcode is Opcode.BR and len(self.targets) != 2:
            raise ValueError("BR requires exactly two targets")
        if self.opcode is Opcode.JMP and len(self.targets) != 1:
            raise ValueError("JMP requires exactly one target")

    # ------------------------------------------------------------------
    # Dataflow structure.
    # ------------------------------------------------------------------
    def uses(self) -> List[str]:
        """Names of registers read by this instruction (with duplicates)."""
        return [op.name for op in self.operands if isinstance(op, Reg)]

    def defs(self) -> List[str]:
        """Names of registers written by this instruction (0 or 1)."""
        return [self.dest] if self.dest is not None else []

    def replace_uses(self, mapping: dict) -> None:
        """Rewrite register operands through ``mapping`` (name -> Operand)."""
        new_ops = []
        for op in self.operands:
            if isinstance(op, Reg) and op.name in mapping:
                new_ops.append(mapping[op.name])
            else:
                new_ops.append(op)
        self.operands = tuple(new_ops)

    # ------------------------------------------------------------------
    # Classification helpers.
    # ------------------------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return opinfo(self.opcode).is_terminator

    @property
    def is_memory(self) -> bool:
        return opinfo(self.opcode).is_memory

    @property
    def has_side_effects(self) -> bool:
        return opinfo(self.opcode).has_side_effects

    @property
    def afu_legal(self) -> bool:
        return opinfo(self.opcode).afu_legal

    # ------------------------------------------------------------------
    # Display.
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        op = self.opcode.value
        if self.opcode is Opcode.LOAD:
            return f"%{self.dest} = load {self.array}[{self.operands[0]}]"
        if self.opcode is Opcode.STORE:
            index, value = self.operands
            return f"store {self.array}[{index}] = {value}"
        if self.opcode is Opcode.CALL:
            args = ", ".join(str(o) for o in self.operands)
            prefix = f"%{self.dest} = " if self.dest else ""
            return f"{prefix}call {self.callee}({args})"
        if self.opcode is Opcode.BR:
            return (f"br {self.operands[0]}, {self.targets[0]}, "
                    f"{self.targets[1]}")
        if self.opcode is Opcode.JMP:
            return f"jmp {self.targets[0]}"
        if self.opcode is Opcode.RET:
            if self.operands:
                return f"ret {self.operands[0]}"
            return "ret"
        args = ", ".join(str(o) for o in self.operands)
        return f"%{self.dest} = {op} {args}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instruction {self}>"

    def copy(self) -> "Instruction":
        """Shallow structural copy (operands are immutable)."""
        return Instruction(self.opcode, self.dest, self.operands,
                           self.array, self.callee, self.targets)


class ISEInstruction(Instruction):
    """A fused custom instruction bound to an AFU.

    Produced only by the ISE rewriter (:mod:`repro.exec.rewrite`).  Unlike
    every other instruction it may define *several* registers — one per
    AFU output port — carried in :attr:`dests` (``dest`` stays ``None``).
    ``operands`` hold the input-port values in port order; ``afu`` is the
    bound :class:`~repro.exec.rewrite.FusedAFU` — the walker calls its
    ``evaluate``, the compiled backends inline its gate netlist.
    """

    __slots__ = ("afu", "dests")

    def __init__(self, afu, operands: Sequence[Operand],
                 dests: Sequence[str]) -> None:
        self.afu = afu
        self.dests: Tuple[str, ...] = tuple(dests)
        super().__init__(Opcode.ISE, None, operands)

    def defs(self) -> List[str]:
        """All registers written by the custom instruction."""
        return list(self.dests)

    def copy(self) -> "ISEInstruction":
        return ISEInstruction(self.afu, self.operands, self.dests)

    def __str__(self) -> str:
        outs = ", ".join(f"%{d}" for d in self.dests)
        args = ", ".join(str(o) for o in self.operands)
        name = getattr(self.afu, "name", "afu")
        return f"{outs} = ise {name}({args})"


# ----------------------------------------------------------------------
# Convenience constructors, used heavily by the frontend and by tests.
# ----------------------------------------------------------------------
def binop(opcode: Opcode, dest: str, a: Operand, b: Operand) -> Instruction:
    return Instruction(opcode, dest, (a, b))


def unop(opcode: Opcode, dest: str, a: Operand) -> Instruction:
    return Instruction(opcode, dest, (a,))


def select(dest: str, cond: Operand, if_true: Operand,
           if_false: Operand) -> Instruction:
    return Instruction(Opcode.SELECT, dest, (cond, if_true, if_false))


def load(dest: str, array: str, index: Operand) -> Instruction:
    return Instruction(Opcode.LOAD, dest, (index,), array=array)


def store(array: str, index: Operand, value: Operand) -> Instruction:
    return Instruction(Opcode.STORE, None, (index, value), array=array)


def call(dest: Optional[str], callee: str,
         args: Iterable[Operand] = ()) -> Instruction:
    return Instruction(Opcode.CALL, dest, tuple(args), callee=callee)


def br(cond: Operand, then_label: str, else_label: str) -> Instruction:
    return Instruction(Opcode.BR, None, (cond,),
                       targets=(then_label, else_label))


def jmp(label: str) -> Instruction:
    return Instruction(Opcode.JMP, targets=(label,))


def ret(value: Optional[Operand] = None) -> Instruction:
    operands = (value,) if value is not None else ()
    return Instruction(Opcode.RET, operands=operands)


def copy_reg(dest: str, src: Operand) -> Instruction:
    return Instruction(Opcode.COPY, dest, (src,))


__all__ = [
    "Instruction", "ISEInstruction", "binop", "unop", "select", "load",
    "store", "call", "br", "jmp", "ret", "copy_reg", "Const", "Reg",
]
