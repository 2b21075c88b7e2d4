"""Command-line interface: ``repro <subcommand>``.

Subcommands:

* ``list`` — show the registered workloads;
* ``ir`` — dump the optimised IR of a workload;
* ``identify`` — best single cut of the hottest block (Problem 1);
* ``select`` — choose up to Ninstr instructions with any algorithm
  (Problem 2), including area-constrained selection (Section 9);
* ``compare`` — one Fig. 11-style row: all four algorithms side by side;
* ``sweep`` — a whole design-space grid (workloads x ports x Ninstr x
  algorithms x cost models) in one invocation, with memoized per-block
  identification and JSON/CSV artifacts (``--measure`` adds executed
  speedups per grid point);
* ``speedup`` — measure end-to-end speedup by actually executing the
  selected instructions: rewrite each workload, run baseline and
  rewritten programs, check outputs bit-for-bit, report cycle counts
  (the paper's Fig. 9/10 numbers);
* ``run`` — execute one workload (optionally after the ISE rewrite)
  and print its result, step count and wall time — the quickest way to
  eyeball a program or compare execution backends;
* ``check`` — statically verify a workload end to end: baseline IR
  (CFG/opcode/dataflow invariants), every selected cut through the
  independent mask-based constraint checker, and the rewritten clone
  (ISE contracts, memory-chain preservation); exit 1 on any error
  diagnostic, nothing executed;
* ``fuzz`` — differential fuzzing: seeded generated programs through
  the whole stack (both backends, baseline vs rewritten, single vs
  batched lanes, verifier + selection checker), failures shrunk to
  minimal reproducers; ``--soak`` for open-ended runs;
* ``chaos`` — seeded fault-injection soak (DESIGN.md §16): a
  store-backed cluster sweep under injected store/wire/worker faults
  plus a mid-run store-server restart, asserted bit-identical to the
  fault-free serial run (exit 1 on any divergence);
* ``afu`` — generate Verilog for the selected custom instructions;
* ``cache`` — inspect or maintain the persistent artifact store;
* ``store`` — run store services: ``repro store serve`` exports a
  store over TCP so other processes and nodes mount it as
  ``--store-dir tcp://HOST:PORT``;
* ``worker`` — join a running ``repro sweep --listen`` leader and
  pull sweep units (one evaluation group each) until its queue drains
  (``--workers N`` shards the same queue over local processes); a
  worker started before its leader listens retries the connect.

Every option is declared once, in :data:`_OPTIONS`; :data:`_VERBS`
lists the options each verb takes and the few defaults it changes.
Workload names are checked against the registry while the arguments
are parsed, so a typo is an argparse usage error (exit status 2).

``--json [PATH]`` (``list``, ``sweep``, ``speedup``, ``check``,
``fuzz``, ``chaos``, ``cache stats``): a bare ``--json`` prints the
machine-readable payload on stdout instead of the text report;
``--json PATH`` writes it to PATH, leaves the text report on stdout
unchanged and prints ``wrote PATH`` on stderr.  The value is optional,
so write ``--json`` after any positional (``cache stats --json``, not
``cache --json stats``).

Errors: bad input that gets past the parser — a size a workload
cannot run, a malformed port list or batch file, a block too large
for Optimal selection, a program trap, a path that cannot be read or
written (``--batch-file``, ``--json PATH``, ``--csv PATH``), an
address ``store serve`` cannot bind — ends the invocation with one
stderr line ``<verb>: <message>`` and exit status 1.  A
:class:`~repro.analysis.diagnostics.VerificationError` keeps its
traceback: it reports a toolchain bug, not bad input.

Verbs that execute programs accept ``--backend walk|compiled``
(default: ``$REPRO_BACKEND``, else the compiled backend, DESIGN.md
§11–§12); every printed table and artifact is byte-identical either
way.

Every verb bootstraps one shared :class:`repro.session.Session`, so the
expensive products (compiled modules, profiles and the profiling
run's outcome, search results) persist in the content-addressed store
across invocations: a repeated command warm-starts and prints
byte-identical results.  ``--no-store`` disables persistence for one
invocation, ``--store-dir`` relocates it, and the ``REPRO_STORE``
environment variable sets the default root (or turns the store off
globally).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import List, Optional, Tuple

from . import __version__
from .analysis.diagnostics import VerificationError
from .core import BlockTooLargeError, SearchLimits
from .fuzz import SHAPES as FUZZ_SHAPES
from .interp import TrapError
from .pipeline import compile_workload, fill_inputs
from .session import ALGORITHMS, Session
from .store.artifacts import ArtifactStore, resolve_store, stock_store_dir
from .workloads import WORKLOADS


def _resolve_store_args(args):
    """Store selected by the flags: ``--no-store`` wins, ``--store-dir``
    names a root, an explicit ``--store`` overrides even a
    ``$REPRO_STORE`` off-switch (falling back to the stock default
    root), and otherwise the environment decides."""
    if getattr(args, "store", None) is False:
        if getattr(args, "store_dir", None):
            print("note: --no-store wins over --store-dir "
                  f"{args.store_dir}; nothing will be persisted",
                  file=sys.stderr)
        return None
    if getattr(args, "store_dir", None):
        return resolve_store(args.store_dir)
    store = resolve_store("auto")
    if store is None and getattr(args, "store", None) is True:
        store = ArtifactStore(stock_store_dir())
    return store


def _make_session(args) -> Session:
    """The one shared Session bootstrap behind every verb."""
    return Session(store=_resolve_store_args(args),
                   workers=getattr(args, "workers", None),
                   backend=getattr(args, "backend", None))


def _limits(args) -> Optional[SearchLimits]:
    if args.limit is None:
        return None
    return SearchLimits(max_considered=args.limit)


def _emit_json(dest: Optional[str], payload) -> bool:
    """The one ``--json [PATH]`` writer (module doc).

    *dest* ``"-"`` (a bare ``--json``) prints *payload* on stdout and
    returns True: the verb then skips its text report.  A PATH gets the
    file and a ``wrote PATH`` line on stderr; ``None`` writes nothing.
    Both return False, so the text report still prints.
    """
    if dest is None:
        return False
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stdout.write(text)
        return True
    with open(dest, "w") as fh:
        fh.write(text)
    print(f"wrote {dest}", file=sys.stderr)
    return False


def cmd_list(args) -> int:
    records = [
        {
            "name": name,
            "entry": workload.entry,
            "default_n": workload.default_n,
            "description": workload.description,
            "paper_benchmark": workload.paper_benchmark,
        }
        for name, workload in sorted(WORKLOADS.items())
    ]
    if _emit_json(args.json, records):
        return 0
    for name, workload in sorted(WORKLOADS.items()):
        star = "*" if workload.paper_benchmark else " "
        print(f"{star} {name:14s} {workload.description}")
    print("(* = benchmark of the paper's Fig. 11)")
    return 0


def cmd_ir(args) -> int:
    session = _make_session(args)
    app = session.prepare(args.workload, n=args.n, unroll=args.unroll)
    print(app.module)
    print()
    print(app.describe())
    return 0


def cmd_identify(args) -> int:
    session = _make_session(args)
    app = session.prepare(args.workload, n=args.n, unroll=args.unroll)
    dfg = app.hot_dfg
    start = time.time()
    result = session.identify(args.workload, nin=args.nin, nout=args.nout,
                              limits=_limits(args), n=args.n,
                              unroll=args.unroll)
    elapsed = time.time() - start
    print(f"hot block {dfg.name}: {dfg.n} nodes, weight {dfg.weight:g}")
    # Timing goes to stderr: stdout stays byte-identical warm vs. cold.
    print(f"searched {result.stats.cuts_considered} cuts in "
          f"{elapsed:.2f}s (complete={result.complete})", file=sys.stderr)
    if result.cut is None:
        print("no profitable cut under these constraints")
        return 1
    print(result.cut.describe())
    for label in result.cut.node_labels():
        print(f"  {label}")
    return 0


def cmd_select(args) -> int:
    session = _make_session(args)
    result = session.select(
        args.workload, algorithm=args.algo, nin=args.nin, nout=args.nout,
        ninstr=args.ninstr, limits=_limits(args), n=args.n,
        unroll=args.unroll, max_nodes=args.max_nodes,
        area_budget=args.area_budget, area_method=args.area_method)
    print(result.describe())
    return 0


def cmd_compare(args) -> int:
    session = _make_session(args)
    limits = _limits(args) or SearchLimits(max_considered=2_000_000)
    kwargs = dict(nin=args.nin, nout=args.nout, ninstr=args.ninstr,
                  limits=limits, n=args.n, unroll=args.unroll)
    try:
        optimal = session.select(args.workload, algorithm="optimal",
                                 max_nodes=args.max_nodes, **kwargs)
        optimal_note = ""
    except BlockTooLargeError as exc:
        # Degrade like the paper's own Fig. 11 note (Optimal could not
        # be run on the largest adpcm-decode block) instead of crashing
        # the whole comparison.
        optimal = None
        optimal_note = str(exc)
    rows = [
        ("Optimal", optimal),
        ("Iterative", session.select(args.workload,
                                     algorithm="iterative", **kwargs)),
        ("Clubbing", session.select(args.workload,
                                    algorithm="clubbing", **kwargs)),
        ("MaxMISO", session.select(args.workload,
                                   algorithm="maxmiso", **kwargs)),
    ]
    print(f"{args.workload}  Nin={args.nin} Nout={args.nout} "
          f"Ninstr={args.ninstr}")
    for name, result in rows:
        if result is None:
            print(f"  {name:10s} n/a ({optimal_note})")
            continue
        flag = "" if result.complete else " (budget hit)"
        print(f"  {name:10s} speedup {result.speedup:6.3f}x  "
              f"merit {result.total_merit:10.0f}  "
              f"instrs {result.num_instructions:2d}{flag}")
    return 0


def _csv_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    try:
        return [int(item) for item in _csv_list(text)]
    except ValueError:
        raise ValueError(f"bad integer list {text!r} (expected e.g. "
                         f"2,4)") from None


def _port_pairs(text: str) -> List[Tuple[int, int]]:
    """``NINxNOUT`` pairs of a comma-separated ``--ports`` value."""
    pairs = []
    for token in _csv_list(text):
        try:
            nin, nout = token.lower().split("x")
            pairs.append((int(nin), int(nout)))
        except ValueError:
            raise ValueError(f"bad --ports entry {token!r} (expected "
                             f"NINxNOUT, e.g. 4x2)") from None
    return pairs


def _parse_ports(args) -> List[Tuple[int, int]]:
    """Port pairs: explicit ``--ports 2x1,4x2`` wins over the cross
    product of ``--nins`` and ``--nouts``."""
    if args.ports:
        return _port_pairs(args.ports)
    return [(nin, nout)
            for nin in _csv_ints(args.nins)
            for nout in _csv_ints(args.nouts)]


def cmd_sweep(args) -> int:
    from .explore import SweepSpec, format_table, rows_payload, write_csv

    spec = SweepSpec(
        workloads=args.workloads,
        ports=tuple(_parse_ports(args)),
        ninstrs=tuple(_csv_ints(args.ninstr)),
        algorithms=tuple(_csv_list(args.algos)),
        models=tuple(_csv_list(args.models)),
        n=args.n,
        unroll=args.unroll,
        limit=args.limit,
        max_nodes=args.max_nodes,
        area_budget=args.area_budget,
        measure=args.measure,
    )
    session = _make_session(args)
    echo = (lambda line: print(line, file=sys.stderr)) \
        if not args.quiet else None
    outcome = session.sweep(spec, use_cache=not args.no_cache,
                            echo=echo, listen=args.listen)
    cache_note = ""
    if outcome.cache_stats is not None:
        cache_note = (f", cache {outcome.cache_stats['hits']} hit(s) / "
                      f"{outcome.cache_stats['misses']} miss(es)")
    # Timing footer on stderr: the stdout table is byte-identical with
    # the store enabled, disabled or pre-warmed.
    print(f"{len(outcome.rows)} grid points in {outcome.sweep_s:.2f}s "
          f"({outcome.points_per_second:.2f} points/s{cache_note})",
          file=sys.stderr)
    if not _emit_json(args.json, rows_payload(outcome)):
        print(format_table(outcome.rows))
    if args.csv:
        write_csv(outcome, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def cmd_speedup(args) -> int:
    from .exec import format_speedup_table

    session = _make_session(args)
    rows = session.speedup(
        args.workloads,
        nin=args.nin,
        nout=args.nout,
        ninstr=args.ninstr,
        algorithm=args.algo,
        limits=_limits(args),
        n=args.n,
        unroll=args.unroll,
        max_nodes=args.max_nodes,
        area_budget=args.area_budget,
    )
    if not _emit_json(args.json,
                      {"rows": [row.as_dict() for row in rows]}):
        print(format_speedup_table(rows))
    broken = [row.workload for row in rows if not row.identical]
    if broken:
        print(f"\nFAIL: rewritten output diverged for "
              f"{', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


def _print_fallbacks() -> None:
    """Stderr telemetry: why code ran on the walker instead.

    Empty for fully compiled programs that never replayed; otherwise it
    names the diagnostic code (``C0xx`` codegen limits, ``V0xx``
    ill-formed IR — see :data:`repro.analysis.diagnostics.CODES`) per
    refused function, then the count of run-time replays (a compiled
    function handing its frame to the walker near the step budget).
    """
    from .interp.compile import code_memo_stats

    stats = code_memo_stats()
    parts = [f"{code}x{count}"
             for code, count in sorted(stats.fallback_codes.items())]
    if stats.replays:
        parts.append(f"{stats.replays} replays")
    if parts:
        print(f"walker fallbacks: {', '.join(parts)}", file=sys.stderr)


def _read_batch_file(path: str, module) -> list:
    """``--batch-file`` records as lanes, each checked as it is read.

    A record is an object with any of ``args`` (a list of ints),
    ``arrays`` (an array of *module* -> a list of ints that fits it)
    and ``max_steps`` (an int); anything else is a ``ValueError`` that
    names the record's index.
    """
    from .interp import Lane, Memory

    with open(path) as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of records")
    rows = Memory(module).arrays
    lanes = []
    for index, record in enumerate(records):
        where = f"{path}: record {index}"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: expected an object")
        unknown = sorted(set(record) - {"args", "arrays", "max_steps"})
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {unknown}")
        args = record.get("args", [])
        if not _is_int_list(args):
            raise ValueError(f"{where}: 'args' must be a list of ints")
        arrays = record.get("arrays", {})
        if not isinstance(arrays, dict):
            raise ValueError(f"{where}: 'arrays' must be an object")
        for name, values in arrays.items():
            if name not in rows:
                raise ValueError(f"{where}: unknown array {name!r}")
            if not _is_int_list(values) or len(values) > len(rows[name]):
                raise ValueError(f"{where}: array {name!r} must be a list "
                                 f"of at most {len(rows[name])} ints")
        max_steps = record.get("max_steps")
        if max_steps is not None and type(max_steps) is not int:
            raise ValueError(f"{where}: 'max_steps' must be an int")
        lanes.append(Lane(args=tuple(args), arrays=arrays,
                          max_steps=max_steps))
    return lanes


def _is_int_list(value) -> bool:
    """A JSON list of ints (``true``/``false`` are not ints here)."""
    return (isinstance(value, list)
            and all(type(item) is int for item in value))


def _run_batch_mode(args, workload, module, note) -> int:
    """Batched ``repro run``: N input lanes per call (DESIGN.md §12).

    stdout stays byte-stable for CI diffing — lane counts, total steps
    and the bit-identity verdict, no timing; throughput and the
    per-lane verified tally go to stderr like every other verb's
    telemetry.  ``--inputs`` lanes replay one driver record and are
    each held bit-for-bit to a golden reference lane; ``--batch-file``
    lanes are arbitrary user records, so only trap-freeness can be
    checked (``verified: n/a``).
    """
    from .interp import driver_lanes, image_verifier, run_batch

    size = args.n if args.n is not None else workload.default_n
    if args.batch_file:
        lanes = _read_batch_file(args.batch_file, module)
        check = None
    else:
        lanes = driver_lanes(module, partial(fill_inputs, workload), size,
                             args.inputs)
        # Golden reference: one lane verified against the workload's
        # model; every timed lane is then held to its exact image.
        reference = run_batch(
            module, workload.entry, lanes[:1], backend=args.backend,
            keep_arrays=True,
            verify=lambda memory, lane: workload.verify(memory, size))
        ref = reference.lanes[0]
        if not ref.ok or ref.verified is not True:
            print(f"{args.workload} n={size} ({note})")
            detail = ref.trap if ref.trap else "golden verification failed"
            print(f"reference lane FAIL: {detail}")
            return 1
        check = image_verifier(ref.value, ref.arrays)
    start = time.perf_counter()
    batch = run_batch(module, workload.entry, lanes,
                      backend=args.backend, verify=check)
    wall = time.perf_counter() - start
    verified = batch.verified_count == len(lanes) if check else None
    print(f"{args.workload} n={size} ({note}, batch)")
    print(f"lanes:    {len(lanes)} ({batch.ok_count} ok)")
    print(f"steps:    {batch.total_steps}")
    print("verified: "
          + ("n/a" if verified is None else "yes" if verified else "NO"))
    print(f"{batch.backend} backend: {wall:.4f}s "
          f"({len(lanes) / max(wall, 1e-9):,.0f} inputs/s, "
          f"{batch.verified_count}/{len(lanes)} lanes verified)",
          file=sys.stderr)
    _print_fallbacks()
    if verified is None:
        return 0 if batch.ok_count == len(lanes) else 1
    return 0 if verified else 1


def cmd_run(args) -> int:
    from .exec.rewrite import rewrite_module
    from .interp import Interpreter, Memory
    from .workloads.registry import get_workload

    workload = get_workload(args.workload)
    if args.rewrite:
        # Selection needs the profiled application; the session memo /
        # store make repeated invocations warm-start.
        session = _make_session(args)
        app = session.prepare(args.workload, n=args.n, unroll=args.unroll)
        selection = session.select(
            args.workload, algorithm=args.algo, nin=args.nin,
            nout=args.nout, ninstr=args.ninstr, limits=_limits(args),
            n=args.n, unroll=args.unroll)
        rewritten = rewrite_module(app.module, selection.cuts,
                                   session.model)
        module = rewritten.module
        note = (f"rewritten: {rewritten.num_instructions} custom "
                f"instruction(s) in {rewritten.rewritten_blocks} "
                f"block(s)")
    else:
        # The baseline needs only the optimised module — compiling is
        # cheap; a profiling pre-run would double the verb's wall time.
        module = compile_workload(workload, unroll=args.unroll)
        note = "baseline"
    if args.inputs is not None or args.batch_file:
        return _run_batch_mode(args, workload, module, note)
    size = args.n if args.n is not None else workload.default_n
    memory = Memory(module)
    run_args = fill_inputs(workload, memory, size)
    interp = Interpreter(module, memory=memory, backend=args.backend)
    start = time.perf_counter()
    outcome = interp.run(workload.entry, run_args)
    wall = time.perf_counter() - start
    verified = True
    try:
        workload.verify(memory, size)
    except AssertionError:
        verified = False
    print(f"{args.workload} n={size} ({note})")
    print(f"result:   {outcome.value}")
    print(f"steps:    {outcome.steps}")
    print(f"verified: {'yes' if verified else 'NO'}")
    # Wall time on stderr: stdout stays byte-identical across backends
    # (and warm vs. cold), like every other verb.
    print(f"{interp.backend} backend: {wall:.4f}s "
          f"({outcome.steps / max(wall, 1e-9):,.0f} steps/s)",
          file=sys.stderr)
    _print_fallbacks()
    return 0 if verified else 1


def cmd_check(args) -> int:
    """Static verification gate: baseline, selection, rewritten clone.

    Pure analysis — nothing is executed; exit status 1 on any
    error-severity diagnostic (warnings are reported but pass).
    """
    session = _make_session(args)
    reports = [
        session.check(name, algorithm=args.algo, nin=args.nin,
                      nout=args.nout, ninstr=args.ninstr,
                      limits=_limits(args), n=args.n,
                      unroll=args.unroll, max_nodes=args.max_nodes)
        for name in args.workload
    ]
    ok = all(report.ok for report in reports)
    if not _emit_json(args.json, {"ok": ok, "reports": [
            report.as_dict() for report in reports]}):
        for index, report in enumerate(reports):
            if index:
                print()
            print(report.render())
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    """Differential fuzzing campaign (DESIGN.md §14).

    Each generated program runs through the full pipeline — both
    execution backends (walker and compiled), baseline vs. rewritten,
    single vs. batched lanes, the verifier and the selection checker —
    and any bit-level divergence is a failure, shrunk to a minimal
    reproducer under ``--artifacts``.  An invalid-program sweep of the
    same size rides along, holding the frontend to structured
    diagnostics.  ``--soak`` repeats rounds (advancing the base seed)
    until interrupted.

    stdout carries the byte-stable summary (or a bare ``--json``);
    per-round soak telemetry goes to stderr like every other verb's
    timing.
    """
    from .fuzz import check_invalid_corpus

    # Generated programs are throwaways: the campaign never touches
    # the store.
    session = Session(store=False)
    rounds = 0
    programs = 0
    failed: List[str] = []
    totals = {"cuts": 0, "rewritten_blocks": 0, "traps": 0,
              "max_loop_depth": 0}
    fallbacks: dict = {}
    by_shape: dict = {}
    last = None
    start = time.perf_counter()
    try:
        while True:
            base = args.seed + rounds * args.count
            result = session.fuzz(
                count=args.count, seed=base, shape=args.shape,
                artifacts=args.artifacts, nin=args.nin,
                nout=args.nout, ninstr=args.ninstr,
                limits=_limits(args))
            problems = check_invalid_corpus(count=args.count, seed=base)
            rounds += 1
            programs += result.programs
            totals["cuts"] += result.cuts
            totals["rewritten_blocks"] += result.rewritten_blocks
            totals["traps"] += result.traps
            totals["max_loop_depth"] = max(totals["max_loop_depth"],
                                           result.max_loop_depth)
            for shape, num in result.by_shape.items():
                by_shape[shape] = by_shape.get(shape, 0) + num
            for code, num in result.fallback_codes.items():
                fallbacks[code] = fallbacks.get(code, 0) + num
            for record in result.failures:
                where = (f" -> {record.artifact_dir}"
                         if record.artifact_dir else "")
                failed.append(
                    f"seed {record.seed} shape {record.shape} "
                    f"[{', '.join(record.stages)}]{where}")
            failed.extend(problems)
            last = result
            if not args.soak:
                break
            rate = programs / max(time.perf_counter() - start, 1e-9)
            print(f"soak round {rounds}: seeds {base}.."
                  f"{base + args.count - 1}, {len(result.failures)} "
                  f"failure(s), {len(problems)} frontend problem(s), "
                  f"{rate:.1f} programs/s", file=sys.stderr)
    except KeyboardInterrupt:
        print(f"soak interrupted after {rounds} round(s)",
              file=sys.stderr)
    payload = last.as_dict() if rounds == 1 else {
        "rounds": rounds, "programs": programs, **totals,
        "by_shape": dict(sorted(by_shape.items())),
        "fallback_codes": dict(sorted(fallbacks.items())),
        "failures": failed, "ok": not failed,
    }
    if _emit_json(args.json, payload):
        return 0 if not failed else 1
    shapes = " ".join(f"{shape}={num}"
                      for shape, num in sorted(by_shape.items()))
    print(f"fuzz: {programs} program(s), base seed {args.seed}"
          + (f", {rounds} round(s)" if args.soak else ""))
    print(f"shapes:    {shapes}")
    print(f"cuts:      {totals['cuts']} "
          f"(rewritten blocks {totals['rewritten_blocks']})")
    print(f"traps:     {totals['traps']}")
    print(f"loops:     max depth {totals['max_loop_depth']}")
    if fallbacks:
        detail = ", ".join(f"{code}x{num}"
                           for code, num in sorted(fallbacks.items()))
        print(f"fallbacks: {detail}")
    print(f"failures:  {len(failed)}")
    for line in failed:
        print(f"  {line}")
    rate = programs / max(time.perf_counter() - start, 1e-9)
    print(f"{rate:.1f} programs/s through the differential oracle",
          file=sys.stderr)
    return 0 if not failed else 1


def cmd_afu(args) -> int:
    session = _make_session(args)
    modules = session.afu(args.workload, ninstr=args.ninstr,
                          nin=args.nin, nout=args.nout,
                          limits=_limits(args), n=args.n,
                          unroll=args.unroll)
    if not modules:
        print("no instructions selected")
        return 1
    for text in modules:
        print(text)
        print()
    return 0


def cmd_worker(args) -> int:
    from .cluster import worker_loop

    echo = (lambda line: print(line, file=sys.stderr)) \
        if not args.quiet else None
    try:
        done = worker_loop(args.connect, name=args.name, echo=echo)
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"worker: cannot serve {args.connect}: {exc}")
    print(f"{done} unit(s) completed")
    return 0


def cmd_store(args) -> int:
    from .store import StoreServer, open_backend
    from .store.artifacts import default_backend_spec
    from .store.net import DEFAULT_PORT
    from .wire import parse_address

    spec = args.store_dir or default_backend_spec()
    if spec is None:
        raise SystemExit("store: persistent store disabled by "
                         "$REPRO_STORE; pass --store-dir")
    host, port = parse_address(args.listen, default_port=DEFAULT_PORT)
    backend = open_backend(spec)
    server = StoreServer(backend, host=host, port=port)
    print(f"serving {backend.spec} on {server.address} "
          f"(clients: --store-dir tcp://{server.address}); "
          f"Ctrl-C to stop", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("store: interrupted", file=sys.stderr)
    finally:
        server.shutdown()
        backend.close()
    return 0


def cmd_chaos(args) -> int:
    from .chaos import run_chaos

    echo = (lambda line: print(line, file=sys.stderr)) \
        if not args.quiet else None
    report = run_chaos(
        seed=args.seed, workers=args.workers, workloads=args.workloads,
        ports=tuple(_port_pairs(args.ports)),
        ninstrs=tuple(_csv_ints(args.ninstr)),
        algorithms=tuple(_csv_list(args.algos)),
        limit=args.limit, n=args.n, server=args.server,
        unit_attempts=args.unit_attempts,
        unit_deadline=args.unit_deadline,
        cluster_deadline=args.deadline,
        workdir=args.workdir, echo=echo)
    if not _emit_json(args.json, report.as_dict()):
        verdict = "OK" if report.ok else "FAILED"
        print(f"chaos soak {verdict} (seed {report.seed}, "
              f"server {report.server}, {report.workers} worker(s))")
        print(f"  rows:      {report.rows} "
              f"({'bit-identical' if report.rows_identical else 'DIVERGED'})")
        keys = {True: "bit-identical", False: "DIVERGED",
                None: "skipped (server down)"}[report.keys_identical]
        print(f"  store:     keys {keys}; {report.retries} retrie(s), "
              f"{report.store_errors} error(s), "
              f"{report.degraded_events} degraded event(s)")
        print(f"  injected:  {report.injected_store} store fault(s), "
              f"{report.injected_wire} wire fault(s)")
        failed = sorted(unit["index"] for unit in report.failed_units)
        verdict = ("exactly the poison unit" if report.failed_expected
                   else "UNEXPECTED")
        print(f"  failed:    unit(s) {failed} ({verdict})")
        for note in report.notes:
            print(f"  note:      {note}")
    return 0 if report.ok else 1


def cmd_cache(args) -> int:
    store = _resolve_store_args(args)
    if store is None:
        print("persistent store disabled ($REPRO_STORE)", file=sys.stderr)
        return 1
    if args.action == "stats":
        info = store.info()
        if _emit_json(args.json, {"root": info.root,
                                  "entries": info.entries,
                                  "bytes": info.bytes,
                                  "kinds": info.kinds}):
            return 0
        print(f"store {info.root}")
        print(f"  {info.entries} artifact(s), {info.bytes / 1024:.1f} KiB")
        for kind in sorted(info.kinds):
            print(f"  {kind:10s} {info.kinds[kind]}")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    removed, freed = store.gc(max_age_days=args.max_age_days)
    print(f"removed {removed} artifact(s) older than "
          f"{args.max_age_days:g} day(s) ({freed / 1024:.1f} KiB) "
          f"from {store.root}")
    return 0


def _workload(text: str) -> str:
    """``type=`` of a workload name: a registered one, or a usage
    error."""
    if text not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; known: "
            f"{', '.join(sorted(WORKLOADS))}")
    return text


def _workloads(text: str) -> Tuple[str, ...]:
    """``type=`` of a comma-separated list of workload names, or
    ``all`` for every registered workload (sorted)."""
    if text.strip().lower() == "all":
        return tuple(sorted(WORKLOADS))
    names = tuple(_workload(name) for name in _csv_list(text))
    if not names:
        raise argparse.ArgumentTypeError("no workload named")
    return names


# Every option of every verb, declared once: ``add_argument`` keywords
# keyed by option string.  ``%(default)s`` keeps each help line true
# for the verbs that change a default (_VERBS).
_OPTIONS = {
    "workload": dict(type=_workload, help="registered workload name"),
    "--workloads": dict(type=_workloads,
                        help="comma-separated registry names, or 'all'"),
    "--n": dict(type=int, default=None,
                help="run size for profiling and measurement (default: "
                     "each workload's)"),
    "--unroll": dict(type=int, default=None,
                     help="loop unroll factor (Section 9 extension)"),
    "--nin": dict(type=int, default=4,
                  help="register-file read ports (default %(default)s)"),
    "--nout": dict(type=int, default=2,
                   help="register-file write ports (default %(default)s)"),
    "--ninstr": dict(type=int, default=16,
                     help="instruction budget (default %(default)s)"),
    "--limit": dict(type=int, default=None,
                    help="max cuts considered per search"),
    "--algo": dict(choices=ALGORITHMS, default="iterative",
                   help="selection algorithm (default %(default)s)"),
    "--max-nodes": dict(type=int, default=40,
                        help="node guard for the optimal algorithm "
                             "(compare and sweep report n/a above it)"),
    "--area-budget": dict(type=float, default=2.0,
                          help="silicon budget in MAC units for area "
                               "selection (default %(default)s)"),
    "--area-method": dict(choices=["knapsack", "greedy"],
                          default="knapsack",
                          help="area selector: exact DP or density "
                               "greedy"),
    "--store": dict(action="store_true", default=None,
                    help="use the persistent artifact store (the "
                         "default; see also $REPRO_STORE)"),
    "--no-store": dict(dest="store", action="store_false",
                       help="disable the persistent store for this "
                            "invocation (results are identical, later "
                            "invocations start cold)"),
    "--store-dir": dict(default=None, metavar="PATH",
                        help="store root: a directory, sqlite:PATH or "
                             "tcp://HOST:PORT (default: $REPRO_STORE, "
                             "else ~/.cache/repro)"),
    "--backend": dict(choices=["walk", "compiled"], default=None,
                      help="execution backend (default: $REPRO_BACKEND, "
                           "else compiled; results are bit-identical)"),
    "--json": dict(nargs="?", const="-", default=None, metavar="PATH",
                   help="machine-readable report: on stdout instead of "
                        "the text report, or to PATH (write it after "
                        "any positional)"),
    "--quiet": dict(action="store_true",
                    help="suppress progress lines on stderr"),
    "--workers": dict(type=int, default=None, metavar="N",
                      help="local worker processes (sweep: default "
                           "$REPRO_WORKERS, else serial, 0 = one per "
                           "CPU; chaos: default 2); results are "
                           "bit-identical to serial"),
    "--listen": dict(default=None, metavar="HOST:PORT",
                     help="sweep: also accept remote 'repro worker "
                          "--connect' nodes on this address; store "
                          "serve: bind address (default 127.0.0.1:9723; "
                          "trusted networks only, the protocol is "
                          "unauthenticated)"),
    "--seed": dict(type=int, default=0,
                   help="base seed (default %(default)s); same seed, "
                        "same programs or faults"),
    "--ports": dict(default=None,
                    help="comma-separated NINxNOUT pairs, e.g. 2x1,4x2 "
                         "(sweep: overrides --nins/--nouts)"),
    "--nins": dict(default="4",
                   help="comma-separated Nin values (crossed with "
                        "--nouts; default %(default)s)"),
    "--nouts": dict(default="2",
                    help="comma-separated Nout values (default "
                         "%(default)s)"),
    "--algos": dict(default="iterative,clubbing,maxmiso",
                    help="comma-separated algorithms out of iterative,"
                         "optimal,clubbing,maxmiso,area (default "
                         "%(default)s)"),
    "--models": dict(default="default",
                     help="comma-separated cost models (default,uniform)"),
    "--measure": dict(action="store_true",
                      help="also execute each grid point's selection "
                           "(rewrite + run) and report the measured "
                           "speedup next to the estimate"),
    "--no-cache": dict(action="store_true",
                       help="disable the identification memo AND the "
                            "persistent store (cold baseline; results "
                            "are identical, just slower)"),
    "--csv": dict(default=None, metavar="PATH",
                  help="write the flat per-point table here"),
    "--connect": dict(required=True, metavar="HOST:PORT",
                      help="address of the leader to serve (a refused "
                           "connect is retried for 30 s)"),
    "--name": dict(default=None,
                   help="worker name in the leader's telemetry "
                        "(default: hostname-derived)"),
    "--rewrite": dict(action="store_true",
                      help="select custom instructions and execute the "
                           "ISE-rewritten program instead of the "
                           "baseline"),
    "--inputs": dict(type=int, default=None, metavar="N",
                     help="batched mode: execute the workload over N "
                          "input lanes in one call (driver runs once; "
                          "every lane is verified bit-for-bit against a "
                          "golden reference lane)"),
    "--batch-file": dict(default=None, metavar="PATH",
                         help="batched mode with explicit lanes: a JSON "
                              "list of records {args: [...], arrays: "
                              "{name: [...]}, max_steps: int} executed "
                              "in order"),
    "--count": dict(type=int, default=200,
                    help="programs per campaign/round (default "
                         "%(default)s)"),
    "--shape": dict(choices=list(FUZZ_SHAPES), default=None,
                    help="pin one generator shape (default: round-robin "
                         "over all)"),
    "--soak": dict(action="store_true",
                   help="repeat rounds with advancing seeds until "
                        "interrupted (telemetry per round on stderr)"),
    "--artifacts": dict(default=None, metavar="DIR",
                        help="write failing cases (original, reduced "
                             "reproducer, report) under this directory"),
    "--server": dict(choices=["restart", "down", "up"], default="restart",
                     help="store-server profile: restart it mid-sweep "
                          "(retries must absorb the outage), leave it "
                          "down (degraded mode must kick in), or leave "
                          "it up (pure injected faults)"),
    "--unit-attempts": dict(type=int, default=4,
                            help="per-unit attempt cap before quarantine "
                                 "(default %(default)s)"),
    "--unit-deadline": dict(type=float, default=60.0,
                            help="seconds a unit may sit on one worker "
                                 "before requeue (default %(default)s)"),
    "--deadline": dict(type=float, default=600.0,
                       help="overall chaos-sweep deadline in seconds "
                            "(default %(default)s)"),
    "--workdir": dict(default=None, metavar="DIR",
                      help="keep the soak's stores here (default: a "
                           "fresh temp dir)"),
    "action": {},
    "--max-age-days": dict(type=float, default=30.0,
                           help="gc cutoff in days (default %(default)s)"),
}

# Option groups several verbs share; a tuple inside is a mutually
# exclusive group.
_STORE = [("--store", "--no-store"), "--store-dir", "--backend"]
_COMMON = ["workload", "--n", "--unroll", "--nin", "--nout", "--limit",
           *_STORE]
# The comma-separated form of --ninstr (sweep and chaos grids).
_NINSTR_LIST = dict(type=None, default="16",
                    help="comma-separated instruction budgets (default "
                         "%(default)s)")

# verb -> (handler, help, options, {option: overridden keywords}).
_VERBS = {
    "list": (cmd_list, "list workloads", ["--json"], {}),
    "ir": (cmd_ir, "dump optimised IR",
           ["workload", "--n", "--unroll", *_STORE], {}),
    "identify": (cmd_identify, "best single cut (Problem 1)", _COMMON, {}),
    "select": (cmd_select, "select Ninstr cuts (Problem 2)",
               [*_COMMON, "--ninstr", "--algo", "--max-nodes",
                "--area-budget", "--area-method"], {}),
    "compare": (cmd_compare, "compare all four algorithms",
                [*_COMMON, "--ninstr", "--max-nodes"], {}),
    "sweep": (cmd_sweep,
              "run a design-space grid in one invocation (memoized "
              "identification, JSON/CSV artifacts)",
              ["--workloads", "--ports", "--nins", "--nouts", "--ninstr",
               "--algos", "--models", "--n", "--unroll", "--limit",
               "--max-nodes", "--area-budget", "--measure", "--no-cache",
               "--json", "--csv", "--quiet", "--workers", "--listen",
               *_STORE],
              {"--workloads": dict(required=True),
               "--ninstr": _NINSTR_LIST}),
    "worker": (cmd_worker,
               "join a running 'repro sweep --listen' leader and pull "
               "sweep units (one evaluation group each) until its queue "
               "drains", ["--connect", "--name", "--quiet"], {}),
    "speedup": (cmd_speedup,
                "measure end-to-end speedup by executing selected AFUs "
                "(bit-exactness enforced)",
                ["--workloads", "--n", "--unroll", "--nin", "--nout",
                 "--ninstr", "--limit", "--algo", "--max-nodes",
                 "--area-budget", "--json", *_STORE],
                {"--workloads": dict(default="all")}),
    "run": (cmd_run,
            "execute one workload (optionally post-rewrite) and print "
            "result, steps and wall time",
            ["workload", "--n", "--unroll", "--rewrite", "--algo", "--nin",
             "--nout", "--ninstr", "--limit", "--inputs", "--batch-file",
             *_STORE], {}),
    "check": (cmd_check,
              "statically verify a workload: baseline IR, selected cuts "
              "(independent checker) and the rewritten clone",
              [*_COMMON, "--ninstr", "--algo", "--max-nodes", "--json"],
              {"workload": dict(type=_workloads,
                                help="registered workload name, a "
                                     "comma-separated list, or 'all'")}),
    "fuzz": (cmd_fuzz,
             "differential fuzzing: generated programs through both "
             "execution backends, rewrite and batch, bit-identical or it "
             "fails",
             ["--count", "--seed", "--shape", "--soak", "--artifacts",
              "--nin", "--nout", "--ninstr", "--limit", "--json"],
             {"--ninstr": dict(default=8)}),
    "chaos": (cmd_chaos,
              "seeded fault-injection soak: a store-backed cluster sweep "
              "under store/wire/worker faults, asserted bit-identical to "
              "the fault-free run",
              ["--seed", "--workers", "--workloads", "--ports", "--ninstr",
               "--algos", "--n", "--limit", "--server", "--unit-attempts",
               "--unit-deadline", "--deadline", "--workdir", "--json",
               "--quiet"],
              {"--workers": dict(default=2),
               "--workloads": dict(default="fir,crc32"),
               "--ports": dict(default="2x1,2x2,4x1,4x2"),
               "--ninstr": dict(_NINSTR_LIST, default="2"),
               "--algos": dict(default="iterative,maxmiso"),
               "--n": dict(default=16),
               "--limit": dict(default=100000)}),
    "afu": (cmd_afu, "emit Verilog for selected AFUs",
            [*_COMMON, "--ninstr"], {"--ninstr": dict(default=2)}),
    "cache": (cmd_cache, "inspect or maintain the persistent artifact "
                         "store",
              ["action", "--max-age-days", "--json", "--store-dir"],
              {"action": dict(choices=["stats", "clear", "gc"],
                              help="stats: entry/byte counts per "
                                   "artifact kind; clear: drop "
                                   "everything; gc: drop old entries")}),
    "store": (cmd_store,
              "run store services (serve: export a store over TCP for "
              "tcp:// clients on other processes and nodes)",
              ["action", "--listen", "--store-dir"],
              {"action": dict(choices=["serve"],
                              help="serve: accept tcp:// store clients "
                                   "until interrupted"),
               "--listen": dict(default="127.0.0.1:9723")}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic instruction-set extensions under "
                    "microarchitectural constraints (Atasu et al., 2003)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (handler, text, options, overrides) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        for option in options:
            group = isinstance(option, tuple)
            target = p.add_mutually_exclusive_group() if group else p
            for name in option if group else (option,):
                target.add_argument(
                    name, **{**_OPTIONS[name], **overrides.get(name, {})})
        p.set_defaults(fn=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* and run its verb behind the one error boundary
    (module doc): bad input exits 1 with one ``<verb>: <message>``
    line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError:
        raise
    except (ValueError, BlockTooLargeError, TrapError, OSError) as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
