"""Sweep artifacts: Fig. 11-style tables, JSON and CSV.

The JSON payload is the machine-readable record a paper table is built
from (one object per grid point, cuts included); the CSV flattens the
same rows for spreadsheets; ``format_table`` prints the familiar
ports-by-algorithm matrix, one block per (model, workload, Ninstr).
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Optional, Sequence

from .runner import SweepOutcome

#: Flat columns shared by the CSV artifact and external tooling.
CSV_COLUMNS = [
    "workload", "nin", "nout", "ninstr", "algorithm", "model", "status",
    "speedup", "measured_speedup", "measured_identical", "total_merit",
    "num_instructions", "complete", "cuts_considered", "ub_pruned",
    "nin_pruned", "elapsed_s",
]


def rows_payload(outcome: SweepOutcome) -> dict:
    """The full machine-readable record of one sweep."""
    return {
        "spec": outcome.spec.to_dict(),
        "meta": {
            "points": len(outcome.rows),
            "prepare_s": outcome.prepare_s,
            "warm_s": outcome.warm_s,
            "points_s": outcome.points_s,
            "sweep_s": outcome.sweep_s,
            "points_per_second": outcome.points_per_second,
            "warm_units": outcome.warm_units,
            "cache_entries": outcome.cache_entries,
            "cache_stats": outcome.cache_stats,
            "unit_reports": outcome.unit_reports,
            "failed_units": outcome.failed_units,
            "warm_workers": sorted({report["worker"] for report
                                    in outcome.unit_reports}),
        },
        "rows": outcome.rows,
    }


def write_json(outcome: SweepOutcome, path) -> None:
    with open(path, "w") as fh:
        json.dump(rows_payload(outcome), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(outcome: SweepOutcome, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS,
                                extrasaction="ignore")
        writer.writeheader()
        for row in outcome.rows:
            writer.writerow(row)


def _cell(row: Optional[dict]) -> str:
    if row is None:
        return "." .rjust(9)
    if row["status"] != "ok":
        return "n/a".rjust(9)
    if "measured_speedup" in row:
        # Measured (executed) speedup wins over the static estimate;
        # '!' marks a bit-exactness failure (should never happen), '*'
        # still marks an exhausted search budget.
        if not row.get("measured_identical", True):
            flag = "!"
        else:
            flag = "" if row.get("complete") else "*"
        value = row["measured_speedup"]
        if value is None:       # JSON-safe stand-in for infinity
            return f"{'inf':>8s}{flag or ' '}"
        return f"{value:8.3f}{flag or ' '}"
    flag = "" if row.get("complete") else "*"
    return f"{row['speedup']:8.3f}{flag or ' '}"


def format_table(rows: Sequence[dict]) -> str:
    """Fig. 11-style speedup matrix: (Nin, Nout) rows x algorithm
    columns, one block per (model, workload, Ninstr) combination.
    ``*`` marks rows whose search budget was exhausted; ``n/a`` marks
    grid points the algorithm refused (oversized block for Optimal)."""
    algorithms: List[str] = []
    for row in rows:
        if row["algorithm"] not in algorithms:
            algorithms.append(row["algorithm"])
    blocks: Dict[tuple, Dict[tuple, dict]] = {}
    for row in rows:
        block_key = (row["model"], row["workload"], row["ninstr"])
        cell_key = (row["nin"], row["nout"], row["algorithm"])
        blocks.setdefault(block_key, {})[cell_key] = row

    lines: List[str] = []
    for (model, workload, ninstr), cells in blocks.items():
        title = f"{workload}  Ninstr={ninstr}"
        if model != "default":
            title += f"  model={model}"
        lines.append(title)
        header = f"  {'Nin':>3s} {'Nout':>4s} |"
        for algo in algorithms:
            header += f" {algo:>9s}"
        lines.append(header)
        ports = []
        for nin, nout, _ in cells:
            if (nin, nout) not in ports:
                ports.append((nin, nout))
        for nin, nout in ports:
            line = f"  {nin:3d} {nout:4d} |"
            for algo in algorithms:
                line += f" {_cell(cells.get((nin, nout, algo)))}"
            lines.append(line)
        lines.append("")
    return "\n".join(lines).rstrip("\n")
