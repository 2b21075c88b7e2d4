"""Memory image for IR execution: the global arrays of a module."""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..ir.function import Module
from ..ir.values import wrap32


class TrapError(RuntimeError):
    """Run-time fault: out-of-bounds access or division by zero."""


class Memory:
    """The data memory of a running module: one row per global array.

    Loads and stores are bounds-checked; MiniC has no pointers, so any
    out-of-bounds index is a workload bug and traps immediately.

    Rows are never replaced or resized while a program runs: stores
    write in place, and harness code only refills rows between runs.
    Compiled units rely on that: each binds the rows it touches and
    their lengths once, at entry, and indexes them inline
    (:mod:`repro.interp.compile`).
    """

    def __init__(self, module: Module) -> None:
        self.arrays: Dict[str, List[int]] = {
            g.name: list(g.init) for g in module.globals.values()
        }

    def _row(self, array: str, what: str) -> List[int]:
        """Look up a global array, trapping (never ``KeyError``) on an
        unknown name — all access paths fault consistently."""
        row = self.arrays.get(array)
        if row is None:
            raise TrapError(f"{what} unknown array {array!r}")
        return row

    def load(self, array: str, index: int) -> int:
        """Bounds-checked read of ``array[index]`` (traps when outside)."""
        row = self._row(array, "load from")
        if not 0 <= index < len(row):
            raise TrapError(
                f"load {array}[{index}] out of bounds (size {len(row)})")
        return row[index]

    def store(self, array: str, index: int, value: int) -> None:
        """Bounds-checked, 32-bit-wrapping write of ``array[index]``."""
        row = self._row(array, "store to")
        if not 0 <= index < len(row):
            raise TrapError(
                f"store {array}[{index}] out of bounds (size {len(row)})")
        row[index] = wrap32(value)

    # ------------------------------------------------------------------
    # Harness conveniences.
    # ------------------------------------------------------------------
    def write_array(self, array: str, values: Iterable[int],
                    offset: int = 0) -> None:
        """Bulk-fill an array (used by workload drivers)."""
        row = self._row(array, "write_array to")
        for i, value in enumerate(values):
            if offset + i >= len(row):
                raise TrapError(f"write_array overflows {array!r}")
            row[offset + i] = wrap32(value)

    def read_array(self, array: str, length: int = -1,
                   offset: int = 0) -> List[int]:
        """Copy out a slice of an array (whole row by default)."""
        row = self._row(array, "read_array from")
        if length < 0:
            length = len(row) - offset
        return list(row[offset:offset + length])

    def changed_rows(self, module: Module) -> Dict[str, List[int]]:
        """Each row that differs from *module*'s initial globals,
        trimmed to its last changed word: rows and suffixes still at
        their initial values are left out."""
        changed: Dict[str, List[int]] = {}
        for name, row in self.arrays.items():
            init = module.globals[name].init
            if row != init:
                last = max(i for i, (new, old)
                           in enumerate(zip(row, init)) if new != old)
                changed[name] = row[:last + 1]
        return changed

    def scalar(self, name: str) -> int:
        """Value of a global scalar (size-1 array)."""
        return self._row(name, "scalar read of")[0]

    def set_scalar(self, name: str, value: int) -> None:
        """Write a global scalar (size-1 array), 32-bit wrapped."""
        self._row(name, "scalar write of")[0] = wrap32(value)
