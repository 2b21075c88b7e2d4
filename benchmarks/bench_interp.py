#!/usr/bin/env python
"""Interpreter backend benchmark and bit-identity gate (DESIGN.md §11).

For every registered workload this measures interpreter throughput
(dynamic steps per second) three ways:

* **walk** — the tree-walking reference backend;
* **compiled cold** — the compiled-block backend with an empty code
  memo (the run pays per-block codegen);
* **compiled warm** — the same run with the memo populated, the state
  every repeated sweep/measure invocation sees.

Each workload is measured twice: as compiled, and ISE-rewritten
(iterative selection, Nin 4 / Nout 2 / Ninstr 16), where the compiled
backend inlines every custom instruction's gate netlist.

It is a CI **gate**, not telemetry: the job fails when

* any workload's warm compiled throughput is below ``MIN_SPEEDUP`` (3x)
  over the walker, baseline or rewritten;
* any backend pair disagrees on the result value, step count, block
  profile or final memory image, or the rewritten program's value or
  final memory image differs from the baseline's;
* ``repro speedup``-style rows measured under the two backends are not
  byte-identical (the Fig. 9/10 artifact must not depend on the engine).

It also records, as telemetry without a gate, the size of the generated
code: compiled units, total source lines and characters (also split by
unit kind: block, region, loop), the register-store lines (``R[...] =``)
per unit kind, and the best cold codegen time for
building every dispatch table of all workloads, baseline plus
rewritten, from an empty code memo.

Emits ``benchmarks/results/BENCH_interp.json``.

Run:  PYTHONPATH=src python benchmarks/bench_interp.py
"""

import json
import re
import sys
import time
from pathlib import Path

from repro import SearchLimits, WORKLOADS
from repro.exec.speedup import run_speedup
from repro.interp import Interpreter, Memory
from repro.interp.compile import (_MEMO, build_function_table,
                                  clear_code_memo, code_memo_stats)

try:
    from _bench_utils import RESULTS_DIR, report, rewritten_workload
except ImportError:  # standalone run: benchmarks/ not on sys.path
    sys.path.insert(0, str(Path(__file__).parent))
    from _bench_utils import RESULTS_DIR, report, rewritten_workload

#: Hard floor for warm compiled-vs-walker throughput, per workload
#: (the ISSUE's acceptance bar; the target is 5x, typically exceeded).
MIN_SPEEDUP = 3.0

#: A generated line that stores a register into ``R`` (a loop unit's
#: ``finally`` guards some behind ``if v is not None:``).
_STORE = re.compile(r"\s*(?:if v\d+ is not None: )?R\[")

#: Differential rows config (kept small: selection, not execution, is
#: the expensive part of a speedup row).
DIFF_WORKLOADS = ("fir", "crc32")
DIFF_N = 32
DIFF_LIMIT = SearchLimits(max_considered=200_000)


#: Timed repetitions per measurement; the reported time is the best of
#: these, so a GC pause or scheduler hiccup on a shared CI runner
#: cannot flip the throughput gate.
REPEATS = 3


def _execute(module, workload, backend, repeats=REPEATS, pre_run=None):
    """Best-of-*repeats* run; returns (RunResult, counts, arrays, s).

    Identity data (result, profile, memory) comes from the first run;
    each repetition executes on fresh state, so later runs only refine
    the timing.  *pre_run* runs before every repetition (the cold
    measurement clears the code memo there, so each rep pays codegen).
    """
    best = None
    first = None
    for _ in range(repeats):
        if pre_run is not None:
            pre_run()
        memory = Memory(module)
        args = workload.driver(memory, workload.default_n)
        interp = Interpreter(module, memory=memory, backend=backend)
        start = time.perf_counter()
        outcome = interp.run(workload.entry, args)
        elapsed = time.perf_counter() - start
        if first is None:
            first = (outcome, dict(interp.profile.counts), memory.arrays)
        best = elapsed if best is None else min(best, elapsed)
    return first[0], first[1], first[2], best


def _measure(module, workload):
    """Walk, cold and warm compiled runs of one module: (row, outcome).

    ``row["identical"]`` holds the three runs to each other; *outcome*
    is the (value, memory image) a rewritten program must reproduce.
    """
    walk, walk_prof, walk_mem, walk_s = _execute(module, workload, "walk")
    cold, cold_prof, cold_mem, cold_s = _execute(
        module, workload, "compiled", pre_run=clear_code_memo)
    warm, warm_prof, warm_mem, warm_s = _execute(
        module, workload, "compiled")
    identical = (
        walk.value == cold.value == warm.value
        and walk.steps == cold.steps == warm.steps
        and walk_prof == cold_prof == warm_prof
        and walk_mem == cold_mem == warm_mem
    )
    row = {
        "steps": walk.steps,
        "walk_s": walk_s,
        "compiled_cold_s": cold_s,
        "compiled_warm_s": warm_s,
        "walk_steps_per_s": walk.steps / walk_s,
        "compiled_warm_steps_per_s": warm.steps / warm_s,
        "speedup_cold": walk_s / cold_s,
        "speedup_warm": walk_s / warm_s,
        "identical": identical,
    }
    return row, (walk.value, walk_mem)


def _unit_kind(code):
    """``loop`` for a unit that iterates in place, else ``region`` for a
    multi-block chain, else ``block``."""
    if code.loop:
        return "loop"
    return "region" if code.span > 1 else "block"


def _codegen_size(modules):
    """Cold codegen of every dispatch table of *modules*.

    Returns ``{"units", "lines", "chars", "cold_s", "by_kind",
    "writebacks"}``: the distinct compiled closures, their total
    generated source lines and characters, the best-of-``REPEATS`` wall
    time to build all tables from an empty code memo, units, lines and
    characters per unit kind (see :func:`_unit_kind`), and the lines
    per unit kind that store a register into ``R``.
    """
    best = None
    for _ in range(REPEATS):
        clear_code_memo()
        start = time.perf_counter()
        for module in modules:
            for func in module.functions.values():
                build_function_table(func)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    by_kind = {kind: {"units": 0, "lines": 0, "chars": 0}
               for kind in ("block", "region", "loop")}
    writebacks = dict.fromkeys(by_kind, 0)
    for code in _MEMO.values():
        if code.fn is not None:
            kind = _unit_kind(code)
            size = by_kind[kind]
            lines = code.source.splitlines()
            size["units"] += 1
            size["lines"] += len(lines)
            size["chars"] += len(code.source)
            writebacks[kind] += sum(bool(_STORE.match(line))
                                    for line in lines)
    totals = {key: sum(size[key] for size in by_kind.values())
              for key in ("units", "lines", "chars")}
    return {**totals, "cold_s": best, "by_kind": by_kind,
            "writebacks": writebacks}


def main() -> int:
    rows = {}
    rewritten_rows = {}
    failures = []
    modules = []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        app, rewritten = rewritten_workload(name)
        modules += [app.module, rewritten]
        rows[name], outcome = _measure(app.module, workload)
        rewritten_rows[name], rewritten_outcome = _measure(rewritten,
                                                           workload)
        rewritten_rows[name]["identical"] &= rewritten_outcome == outcome
        for kind, row in (("baseline", rows[name]),
                          ("rewritten", rewritten_rows[name])):
            if not row["identical"]:
                failures.append(f"{name} ({kind}): compiled run diverged "
                                f"from walker")
            if row["speedup_warm"] < MIN_SPEEDUP:
                failures.append(
                    f"{name} ({kind}): warm compiled speedup "
                    f"{row['speedup_warm']:.2f}x < {MIN_SPEEDUP:.1f}x")
            report("interp",
                   f"{name:14s} {kind:9s} steps={row['steps']:8d} "
                   f"walk={row['walk_s'] * 1e3:8.2f}ms "
                   f"warm={row['compiled_warm_s'] * 1e3:8.2f}ms "
                   f"cold={row['compiled_cold_s'] * 1e3:8.2f}ms "
                   f"speedup={row['speedup_warm']:6.2f}x "
                   f"bit-exact={'yes' if row['identical'] else 'NO'}")

    # Differential artifact gate: measured-speedup rows byte-identical.
    diff_rows = {}
    for backend in ("walk", "compiled"):
        diff_rows[backend] = [
            row.as_dict()
            for row in run_speedup(list(DIFF_WORKLOADS), n=DIFF_N,
                                   limits=DIFF_LIMIT, backend=backend)
        ]
    rows_identical = diff_rows["walk"] == diff_rows["compiled"]
    if not rows_identical:
        failures.append("speedup rows differ between backends")
    report("interp",
           f"speedup-row differential ({','.join(DIFF_WORKLOADS)}): "
           f"{'byte-identical' if rows_identical else 'DIVERGED'}")

    memo = code_memo_stats().as_dict()
    worst = min(r["speedup_warm"]
                for r in (*rows.values(), *rewritten_rows.values()))
    report("interp",
           f"worst warm speedup {worst:.2f}x (gate {MIN_SPEEDUP:.1f}x); "
           f"code memo: {memo}")
    codegen = _codegen_size(modules)
    kinds = ", ".join(
        f"{kind} {size['units']}/{size['lines']}/{size['chars']}/"
        f"{codegen['writebacks'][kind]}"
        for kind, size in codegen["by_kind"].items())
    report("interp",
           f"generated code, all workloads baseline+rewritten: "
           f"{codegen['units']} units, {codegen['lines']} lines, "
           f"{codegen['chars']} chars (units/lines/chars/register "
           f"stores: {kinds}), "
           f"cold codegen {codegen['cold_s'] * 1e3:.1f}ms")

    payload = {
        "config": {"min_speedup": MIN_SPEEDUP,
                   "diff_workloads": list(DIFF_WORKLOADS),
                   "diff_n": DIFF_N},
        "workloads": rows,
        "rewritten": rewritten_rows,
        "rows_identical": rows_identical,
        "code_memo": memo,
        "codegen": codegen,
        "worst_warm_speedup": worst,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_interp.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
