"""End-to-end application pipeline: MiniC source to profiled DFGs.

This is the top of the public API: :func:`prepare_application` compiles a
workload, optimises it (including the paper's if-conversion preprocessing
and, optionally, loop unrolling), executes it in the interpreter to gather
basic-block frequencies, and builds one weighted dataflow graph per block —
everything the identification/selection algorithms need.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .frontend import analyze, lower_program, parse
from .interp import Interpreter, Memory, ProfileData, TrapError
from .ir import Module
from .ir.dfg import DataFlowGraph, function_dfgs
from .passes import optimize_module, unroll_loops
from .store.keys import workload_key
from .workloads.registry import Workload, get_workload


@dataclass
class Application:
    """A compiled, profiled workload ready for ISE identification.

    ``profile_n``/``profile_value``/``profile_image`` keep the profiling
    run's input size, return value and final memory image, so
    measurements need not run the baseline again; ``None`` on hand-built
    apps.  The image holds each row the run changed, up to its last
    changed word, as a read-only ``array('i')`` (every word is 32-bit
    wrapped); the rest of the image is the module's initial globals.
    """

    name: str
    module: Module
    entry: str
    profile: ProfileData
    dfgs: List[DataFlowGraph] = field(default_factory=list)
    profile_n: Optional[int] = None
    profile_value: Optional[int] = None
    profile_image: Optional[Dict[str, array]] = None

    @property
    def hot_dfg(self) -> DataFlowGraph:
        """The most frequently executed non-trivial block."""
        candidates = [d for d in self.dfgs if d.n >= 2]
        if not candidates:
            raise ValueError(f"{self.name}: no non-trivial blocks")
        return max(candidates, key=lambda d: d.weight * d.n)

    def describe(self) -> str:
        """Block inventory sorted by heat (weight x size), for reports."""
        lines = [f"application {self.name} (entry {self.entry}):"]
        for dfg in sorted(self.dfgs, key=lambda d: -d.weight * d.n):
            lines.append(
                f"  {dfg.name}: {dfg.n} nodes, weight {dfg.weight:g}")
        return "\n".join(lines)


def compile_workload(workload: Workload, unroll: Optional[int] = None,
                     if_convert: bool = True) -> Module:
    """Compile a workload's MiniC source through the full pipeline."""
    program = parse(workload.source)
    if unroll is not None and unroll >= 2:
        unroll_loops(program, unroll)
    symbols = analyze(program)
    module = lower_program(program, symbols, name=workload.name)
    optimize_module(module, if_convert=if_convert)
    return module


def fill_inputs(workload: Workload, memory: Memory,
                n: int) -> Sequence[int]:
    """Run *workload*'s driver for size *n*: fill its input arrays in
    *memory* and return the entry function's arguments.

    An *n* below 1, or one that overflows an input array, raises
    ``ValueError`` naming the workload and *n*.
    """
    if n < 1:
        raise ValueError(f"workload {workload.name!r}: n={n} must be at "
                         f"least 1")
    try:
        return workload.driver(memory, n)
    except TrapError as exc:    # it only fills input arrays
        raise ValueError(f"workload {workload.name!r}: n={n} is too "
                         f"large ({exc})") from exc


def profiled_dfgs(module: Module, profile: ProfileData,
                  min_nodes: int = 2) -> List[DataFlowGraph]:
    """One DFG of at least *min_nodes* nodes per block of *module* that
    *profile* saw run, weighted by its execution count."""
    dfgs: List[DataFlowGraph] = []
    for func in module.functions.values():
        weights = profile.weights_for(func.name)
        if weights:             # else never executed
            dfgs.extend(function_dfgs(func, weights, min_nodes=min_nodes))
    # Ignore blocks that never ran: their weight is zero.
    return [d for d in dfgs if d.weight > 0]


def prepare_application(
    name_or_workload,
    n: Optional[int] = None,
    unroll: Optional[int] = None,
    if_convert: bool = True,
    verify: bool = True,
    min_nodes: int = 2,
    store=None,
    backend: Optional[str] = None,
) -> Application:
    """Build an :class:`Application` for a registered workload.

    Args:
        name_or_workload: registry name or a :class:`Workload` instance.
        n: problem size for the profiling run (default: the workload's).
        unroll: optional loop-unroll factor (the paper's Section 9
            extension).
        if_convert: run if-conversion (the paper always does).
        verify: additionally check interpreter output against the golden
            model — catching any compiler/pass bug before it can distort
            experiment results.
        min_nodes: drop DFGs smaller than this many nodes.
        store: optional :class:`repro.store.ArtifactStore` memoising the
            whole compile+profile product, keyed on the workload source
            and every parameter above (:func:`repro.store.keys.
            workload_key`) — a hit skips compilation, optimisation and
            the profiling run and returns a bit-identical application.
        backend: execution backend for the profiling run (``"walk"`` or
            ``"compiled"``; default ``$REPRO_BACKEND``, else compiled).
            Profiles are bit-identical either way, so the store key
            deliberately excludes it.

    An *n* below 1, or one that overflows one of the workload's input
    arrays, raises ``ValueError`` naming the workload, *n* (and the
    array) — :func:`fill_inputs`.
    """
    workload = (name_or_workload
                if isinstance(name_or_workload, Workload)
                else get_workload(name_or_workload))
    size = n if n is not None else workload.default_n

    # A size below 1 is left to fill_inputs to reject, even where an
    # older store holds an application for it.
    if store is not None and size >= 1:
        key = workload_key(workload, size, unroll, if_convert, verify,
                           min_nodes)
        app = store.get("app", key)
        if app is not None:
            return app

    module = compile_workload(workload, unroll=unroll,
                              if_convert=if_convert)
    memory = Memory(module)
    args = fill_inputs(workload, memory, size)
    interpreter = Interpreter(module, memory=memory, backend=backend)
    outcome = interpreter.run(workload.entry, args)
    image = {name: array("i", row)
             for name, row in memory.changed_rows(module).items()}
    if verify:
        workload.verify(memory, size)

    app = Application(
        name=workload.name,
        module=module,
        entry=workload.entry,
        profile=interpreter.profile,
        dfgs=profiled_dfgs(module, interpreter.profile, min_nodes),
        profile_n=size,
        profile_value=outcome.value,
        profile_image=image,
    )
    if store is not None:
        store.put("app", key, app)
    return app
