"""Execution profiles: per-basic-block execution counts.

The merit function weighs each cut by how often its block runs; the
profile is gathered by actually executing the compiled workload in the IR
interpreter, exactly as the paper gathers MediaBench profiles.  The
walker records each block entry as it happens; the compiled backend
tallies them per function and folds the tallies in once per
``Interpreter.run`` (:meth:`ProfileData.record_block_entries`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class ProfileData:
    """Block execution counts keyed by ``(function, block label)``."""

    counts: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    steps: int = 0

    def record_block(self, func: str, label: str) -> None:
        """Count one entry of block *label* in function *func*."""
        self.counts[(func, label)] += 1

    def record_block_entries(self, func: str,
                             entries: Dict[str, int]) -> None:
        """Fold one function's ``label -> entry count`` tally in.

        The compiled backend (:mod:`repro.interp.compile`) tallies block
        entries per function while executing, and
        :meth:`Interpreter.run <repro.interp.interpreter.Interpreter.run>`
        folds the tallies in once per run through this method — the
        totals are identical to the walker's per-entry
        :meth:`record_block` calls.  Zero counts (a loop unit's block
        that no iteration reached) are skipped: the walker never
        records them.
        """
        counts = self.counts
        for label, count in entries.items():
            if count:
                counts[(func, label)] += count

    def record_call(self, func: str) -> None:
        """Count one invocation of function *func*."""
        self.calls[func] += 1

    def block_count(self, func: str, label: str) -> int:
        """Entries recorded for one ``(function, block label)`` pair."""
        return self.counts[(func, label)]

    def weights_for(self, func: str) -> Dict[str, float]:
        """Block label -> execution count, for one function."""
        return {
            label: float(count)
            for (f, label), count in self.counts.items()
            if f == func
        }

    def hottest(self, limit: int = 10) -> Tuple[Tuple[Tuple[str, str], int],
                                                ...]:
        """The *limit* most frequently entered blocks, hottest first."""
        return tuple(self.counts.most_common(limit))

    def merge(self, other: "ProfileData") -> None:
        """Fold another profile's counts, calls and steps into this one."""
        self.counts.update(other.counts)
        self.calls.update(other.calls)
        self.steps += other.steps
