"""Basic blocks, functions, global arrays and modules.

A :class:`Function` is an ordered list of labelled :class:`BasicBlock`; the
first block is the entry.  Every block ends in exactly one terminator
instruction.  A :class:`Module` groups functions together with the global
arrays they address.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .instructions import Instruction
from .opcodes import Opcode
from .values import wrap32


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.instructions: List[Instruction] = []

    # ------------------------------------------------------------------
    def append(self, insn: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(
                f"block {self.label} is already terminated; cannot append "
                f"{insn}")
        self.instructions.append(insn)
        return insn

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def body(self) -> List[Instruction]:
        """All instructions except the terminator."""
        if self.is_terminated:
            return self.instructions[:-1]
        return list(self.instructions)

    def successors(self) -> List[str]:
        term = self.terminator
        if term is None:
            return []
        return list(term.targets)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {insn}" for insn in self.instructions)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BasicBlock {self.label} ({len(self)} insns)>"


class Function:
    """A function: named parameters plus an ordered list of basic blocks."""

    def __init__(self, name: str, params: Sequence[str] = ()) -> None:
        self.name = name
        self.params: List[str] = list(params)
        self.blocks: List[BasicBlock] = []
        self._by_label: Dict[str, BasicBlock] = {}
        self._next_temp = 0
        self._next_label = 0

    # ------------------------------------------------------------------
    # Block management.
    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, label: Optional[str] = None) -> BasicBlock:
        if label is None:
            label = self.new_label()
        if label in self._by_label:
            raise ValueError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._by_label[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        return self._by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._by_label

    def remove_block(self, label: str) -> None:
        block = self._by_label.pop(label)
        self.blocks.remove(block)

    def reindex(self) -> None:
        """Rebuild the label map after external surgery on ``blocks``."""
        self._by_label = {b.label: b for b in self.blocks}

    # ------------------------------------------------------------------
    # Name generation.
    # ------------------------------------------------------------------
    def new_temp(self, hint: str = "t") -> str:
        name = f"{hint}{self._next_temp}"
        self._next_temp += 1
        return name

    def new_label(self, hint: str = "bb") -> str:
        while True:
            label = f"{hint}{self._next_label}"
            self._next_label += 1
            if label not in self._by_label:
                return label

    # ------------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __str__(self) -> str:
        header = f"func {self.name}({', '.join(self.params)}):"
        return "\n".join([header] + [str(b) for b in self.blocks])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class GlobalArray:
    """A module-level array of 32-bit integers.

    Scalars at global scope are modelled as arrays of size 1 by the frontend.
    """

    def __init__(self, name: str, size: int,
                 init: Optional[Iterable[int]] = None) -> None:
        if size <= 0:
            raise ValueError(f"array {name} must have positive size")
        self.name = name
        self.size = size
        values = [wrap32(v) for v in init] if init is not None else []
        if len(values) > size:
            raise ValueError(
                f"array {name}: {len(values)} initialisers for size {size}")
        values.extend([0] * (size - len(values)))
        self.init: List[int] = values

    def copy(self) -> "GlobalArray":
        """A fresh array with its own copy of the initial values, which
        are already wrapped and sized, so they are not checked again."""
        clone = GlobalArray.__new__(GlobalArray)
        clone.name = self.name
        clone.size = self.size
        clone.init = list(self.init)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GlobalArray {self.name}[{self.size}]>"


class Module:
    """A compilation unit: functions plus global arrays."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalArray] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global(self, array: GlobalArray) -> GlobalArray:
        if array.name in self.globals:
            raise ValueError(f"duplicate global {array.name!r}")
        self.globals[array.name] = array
        return array

    def function(self, name: str) -> Function:
        return self.functions[name]

    def __str__(self) -> str:
        parts = []
        for g in self.globals.values():
            parts.append(f"global {g.name}[{g.size}]")
        parts.extend(str(f) for f in self.functions.values())
        return "\n\n".join(parts)


def count_real_instructions(func: Function) -> int:
    """Number of non-terminator instructions in *func* (used in reports)."""
    return sum(
        1 for insn in func.instructions()
        if insn.opcode not in (Opcode.BR, Opcode.JMP, Opcode.RET)
    )
