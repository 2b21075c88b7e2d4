"""Differential suite: the compiled backend vs. the walker oracle.

The compiled-block backend (:mod:`repro.interp.compile`) carries strict
bit-identity obligations (DESIGN.md §11): identical ``RunResult``
values, step counts, profile block/call counts, traps, measured cycles
and measured-speedup artifacts on every workload, with the walker kept
as the reference.  This suite enforces all of it:

* every registry workload × {baseline, ISE-rewritten} × both backends;
* byte-identical ``repro speedup`` rows and ``sweep --measure`` rows;
* randomized-input property tests over op-dense blocks (division,
  remainder, shifts, selects — everything with a wrap or a trap edge);
* the step-limit regression: ``ExecutionLimitExceeded`` must fire at
  the same step index with the same side effects and profile even when
  the budget expires in the middle of a block, inside a callee, or
  right after a ``CALL`` inside a loop region (the resume path).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.cycles import run_with_cycles
from repro.exec.rewrite import rewrite_module
from repro.exec.speedup import run_speedup
from repro.frontend import compile_source
from repro.hwmodel import CostModel
from repro.interp import (
    ExecutionLimitExceeded,
    Interpreter,
    Memory,
    TrapError,
    resolve_backend,
)
from repro.interp.compile import (
    block_digest,
    build_function_table,
    clear_code_memo,
    code_memo_stats,
)
from repro.pipeline import prepare_application
from repro.workloads.registry import WORKLOADS, get_workload

#: Small profiling sizes keep the whole-registry sweep quick.
RUN_SIZES = {
    "adpcm-decode": 48, "adpcm-encode": 48, "gsm": 24, "fir": 24,
    "crc32": 12, "g721": 16, "mixer": 24, "sha": 2,
}

LIMITS = SearchLimits(max_considered=200_000)


def _run(module, entry, driver, n, backend):
    """One full execution: returns (result, profile, memory arrays)."""
    memory = Memory(module)
    args = driver(memory, n)
    interp = Interpreter(module, memory=memory, backend=backend)
    outcome = interp.run(entry, args)
    return outcome, interp.profile, memory.arrays


def _assert_same_run(module, entry, driver, n):
    walk, walk_prof, walk_mem = _run(module, entry, driver, n, "walk")
    comp, comp_prof, comp_mem = _run(module, entry, driver, n, "compiled")
    assert comp.value == walk.value
    assert comp.steps == walk.steps
    assert comp_prof.counts == walk_prof.counts
    assert comp_prof.calls == walk_prof.calls
    assert comp_prof.steps == walk_prof.steps
    assert comp_mem == walk_mem


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_baseline_equivalence(name):
    workload = get_workload(name)
    n = RUN_SIZES[name]
    app = prepare_application(name, n=n)
    _assert_same_run(app.module, app.entry, workload.driver, n)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rewritten_equivalence(name):
    workload = get_workload(name)
    n = RUN_SIZES[name]
    app = prepare_application(name, n=n)
    model = CostModel()
    selection = select_iterative(app.dfgs, Constraints(nin=4, nout=2,
                                                       ninstr=8),
                                 model, LIMITS)
    rewritten = rewrite_module(app.module, selection.cuts, model)
    _assert_same_run(rewritten.module, app.entry, workload.driver, n)


@pytest.mark.parametrize("name", ["fir", "crc32", "g721"])
def test_measured_cycles_identical(name):
    """run_with_cycles must charge identical cycles on both backends."""
    workload = get_workload(name)
    n = RUN_SIZES[name]
    app = prepare_application(name, n=n)
    reports = {}
    for backend in ("walk", "compiled"):
        memory = Memory(app.module)
        args = workload.driver(memory, n)
        reports[backend] = run_with_cycles(app.module, app.entry, args,
                                           memory=memory,
                                           backend=backend)
    assert reports["compiled"] == reports["walk"]


def test_speedup_rows_byte_identical():
    """The Fig. 9/10 table artifact must not depend on the backend."""
    rows = {}
    for backend in ("walk", "compiled"):
        rows[backend] = [
            row.as_dict()
            for row in run_speedup(["fir", "crc32"], n=24, limits=LIMITS,
                                   backend=backend)
        ]
    assert rows["compiled"] == rows["walk"]


def test_sweep_measure_rows_byte_identical():
    """`sweep --measure` rows (timing aside) are backend-independent."""
    from repro.explore import SweepSpec, run_sweep

    spec = SweepSpec(workloads=("fir",), ports=((4, 2),), ninstrs=(2, 4),
                     algorithms=("iterative",), n=16, limit=100_000,
                     measure=True)
    outcomes = {}
    for backend in ("walk", "compiled"):
        outcome = run_sweep(spec, use_cache=False, backend=backend)
        outcomes[backend] = [
            {k: v for k, v in row.items() if k != "elapsed_s"}
            for row in outcome.rows
        ]
    assert outcomes["compiled"] == outcomes["walk"]


# ----------------------------------------------------------------------
# Randomized-input property tests on op-dense blocks.
# ----------------------------------------------------------------------
EXPRESSION_SOURCE = """
int scratch[4];
int f(int a, int b, int c) {
  int t = a * 3 + (b ^ c) - (a >> 3);
  int u = (t << 2) | (b & 15);
  int s = t < u ? t : u;
  scratch[0] = s;
  scratch[1] = (a >> 31) ^ (b >> 31);
  return s + u * 5 - (c >> 1);
}
"""

DIVISION_SOURCE = """
int f(int a, int b) {
  int q = a / b;
  int r = a % b;
  return q * b + r + (q == a ? 1 : 0);
}
"""

MIDBLOCK_TRAP_SOURCE = """
int a[4];
int f(int x, int y) {
  int t = x * 2 + 1;
  a[0] = t;
  int u = t - y;
  a[1] = u;
  int q = u / y;
  a[2] = q;
  return q + t;
}
"""

CALL_SOURCE = """
int helper(int x, int y) {
  int i;
  int acc = x;
  for (i = 0; i < 3; i++) { acc = acc * 2 + y; }
  return acc;
}
int f(int a, int b) {
  return helper(a, b) - helper(b, a) + helper(a & 7, 1);
}
"""

int32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)


def _compare_backends(module, args):
    """Run both backends; both must agree on the outcome *or* the trap.

    Trap outcomes compare the message, the committed memory image AND
    ``Interpreter._steps`` — the cumulative step budget must survive a
    caught trap identically, or a later ``run()`` on the same
    interpreter would hit its limit at different indices per backend.
    """
    outcomes = {}
    for backend in ("walk", "compiled"):
        memory = Memory(module)
        interp = Interpreter(module, memory=memory, backend=backend)
        try:
            result = interp.run("f", args)
            outcomes[backend] = ("ok", result.value, result.steps,
                                 memory.arrays)
        except TrapError as exc:
            outcomes[backend] = ("trap", str(exc), interp._steps,
                                 memory.arrays)
    assert outcomes["compiled"] == outcomes["walk"]


class TestRandomizedInputs:
    @settings(max_examples=60, deadline=None)
    @given(a=int32, b=int32, c=int32)
    def test_expression_block(self, a, b, c):
        module = compile_source(EXPRESSION_SOURCE)
        _compare_backends(module, [a, b, c])

    @settings(max_examples=60, deadline=None)
    @given(a=int32, b=int32)
    def test_division_block(self, a, b):
        # b=0 exercises the trap path: both backends must raise the
        # same TrapError with the same message.
        module = compile_source(DIVISION_SOURCE)
        _compare_backends(module, [a, b])

    @settings(max_examples=30, deadline=None)
    @given(a=int32, b=int32)
    def test_call_block(self, a, b):
        module = compile_source(CALL_SOURCE)
        _compare_backends(module, [a, b])

    def test_midblock_trap_steps_and_side_effects_exact(self):
        """A trap in the middle of a block must leave the identical
        step counter and committed stores as the walker (regression:
        the fast path used to pre-commit the whole block's steps)."""
        module = compile_source(MIDBLOCK_TRAP_SOURCE)
        _compare_backends(module, [7, 0])    # y=0: div traps mid-block
        _compare_backends(module, [7, 3])    # and the clean path too


# ----------------------------------------------------------------------
# Step-limit exactness (the PR's accounting bugfix).
# ----------------------------------------------------------------------
LIMIT_SOURCE = """
int a[8];
int f(int n) {
  int i;
  int s = 1;
  for (i = 0; i < n; i++) {
    s = s + i;
    a[0] = s;
    s = s * 2;
    a[1] = s;
    s = s - 3;
    a[2] = s;
  }
  return s;
}
"""


#: A CALL in a non-head block of a loop region, with a store and
#: arithmetic after it: the budget re-check after the call must resume
#: the block on the walker at the exact step.
CALL_IN_LOOP_SOURCE = """
int a[4];
int g(int x) { return x * 3 + 1; }
int f(int n) {
  int i;
  int s = 1;
  for (i = 0; i < n; i++) {
    s = g(s) + i;
    a[0] = s;
    s = s * 2 - 3;
  }
  return s;
}
"""


def _run_with_limit(source, args, max_steps, backend):
    module = compile_source(source)
    memory = Memory(module)
    interp = Interpreter(module, memory=memory, max_steps=max_steps,
                         backend=backend)
    profile = interp.profile
    try:
        outcome = interp.run("f", args)
        return ("ok", outcome.value, outcome.steps, interp._steps,
                memory.arrays, profile.counts, profile.calls)
    except ExecutionLimitExceeded as exc:
        return ("limit", str(exc), interp._steps, memory.arrays,
                profile.counts, profile.calls)


class TestStepLimitExactness:
    @pytest.mark.parametrize("source", [LIMIT_SOURCE, CALL_IN_LOOP_SOURCE],
                             ids=["loop", "call"])
    def test_limit_mid_block_every_index(self, source):
        """Sweep the budget across every step index of a run whose hot
        block stores mid-block — also right after a CALL in a loop
        region, where the compiled block resumes on the walker: the
        limit must trip at the identical index, with identical
        committed side effects and profile, on both backends (the
        regression for block-granular fast paths)."""
        total = _run_with_limit(source, [4], 10**9, "walk")[2]
        assert total > 30
        for max_steps in range(1, total + 2):
            walk = _run_with_limit(source, [4], max_steps, "walk")
            comp = _run_with_limit(source, [4], max_steps, "compiled")
            assert comp == walk, f"diverged at max_steps={max_steps}"

    def test_limit_inside_callee_every_index(self):
        """Same sweep with the budget expiring inside called functions
        (exercises the per-segment accounting around CALL sites)."""
        total = _run_with_limit(CALL_SOURCE, [5, 9], 10**9, "walk")[2]
        for max_steps in range(1, total + 2):
            walk = _run_with_limit(CALL_SOURCE, [5, 9], max_steps, "walk")
            comp = _run_with_limit(CALL_SOURCE, [5, 9], max_steps,
                                   "compiled")
            assert comp == walk, f"diverged at max_steps={max_steps}"

    def test_replays_are_counted(self):
        """Every hand-off to the walker is a counted replay: a budget
        expiring mid-region counts some, a full workload run none."""
        total = _run_with_limit(CALL_IN_LOOP_SOURCE, [4], 10**9,
                                "walk")[2]
        clear_code_memo()
        outcome = _run_with_limit(CALL_IN_LOOP_SOURCE, [4], total // 2,
                                  "compiled")
        assert outcome[0] == "limit"
        assert code_memo_stats().replays >= 1
        assert code_memo_stats().as_dict()["replays"] >= 1

        name, n = "fir", RUN_SIZES["fir"]
        app = prepare_application(name, n=n)
        clear_code_memo()
        assert code_memo_stats().replays == 0
        _run(app.module, app.entry, get_workload(name).driver, n,
             "compiled")
        assert code_memo_stats().replays == 0

    def test_infinite_loop_message(self):
        module = compile_source("void f() { while (1) { } }")
        for backend in ("walk", "compiled"):
            interp = Interpreter(module, max_steps=999, backend=backend)
            with pytest.raises(ExecutionLimitExceeded,
                               match="exceeded 999 steps in 'f'"):
                interp.run("f")


# ----------------------------------------------------------------------
# Backend selection and the code memo.
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "compiled"

    def test_env_var_selects_walker(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "walk")
        module = compile_source("int f() { return 7; }")
        interp = Interpreter(module)
        assert interp.backend == "walk"
        assert interp.run("f").value == 7

    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "walk")
        assert resolve_backend("compiled") == "compiled"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("jit")

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        module = compile_source("int f() { return 7; }")
        with pytest.raises(ValueError, match="unknown execution backend"):
            Interpreter(module)


class TestUndefinedRegisterFallback:
    def test_trap_point_and_side_effects_match_walker(self):
        """Hand-built IR reading an undefined register after a store:
        the compiled backend must replay the entry on the walker so the
        store commits, the step counter matches, and the trap message
        names the register (regression: eager entry loads used to trap
        before the store, at step 0)."""
        from repro.ir.function import Function, GlobalArray, Module
        from repro.ir.instructions import binop, ret, store
        from repro.ir.opcodes import Opcode
        from repro.ir.values import Const, Reg

        def build():
            module = Module("m")
            module.add_global(GlobalArray("a", 4))
            func = Function("f", params=["x"])
            block = func.add_block("entry")
            block.append(store("a", Const(0), Reg("x")))
            block.append(binop(Opcode.ADD, "y", Reg("ghost"), Const(1)))
            block.append(ret(Reg("y")))
            module.add_function(func)
            return module

        outcomes = {}
        for backend in ("walk", "compiled"):
            module = build()
            memory = Memory(module)
            interp = Interpreter(module, memory=memory, backend=backend)
            with pytest.raises(TrapError, match="undefined register "
                                                "%ghost"):
                interp.run("f", [5])
            outcomes[backend] = (interp._steps, memory.read_array("a"))
        assert outcomes["compiled"] == outcomes["walk"]
        assert outcomes["walk"][1][0] == 5      # the store committed


def _closure(module):
    """The closure of ``f``'s entry block, a one-block chain, from the
    dispatch table of ``f`` (built through the code memo)."""
    func = module.functions["f"]
    return build_function_table(func)[func.entry.label]


class TestCodeMemo:
    def test_cloned_blocks_share_compiled_code(self):
        """Digest-equal blocks (e.g. from rewrite_module's clones) must
        reuse one compiled closure — the sweep/measure warm path."""
        module_a = compile_source("int f(int x) { return x * 2 + 1; }")
        module_b = compile_source("int f(int x) { return x * 2 + 1; }")
        block_a = module_a.functions["f"].entry
        block_b = module_b.functions["f"].entry
        assert block_digest(block_a) == block_digest(block_b)
        before = code_memo_stats().hits
        fn_a = _closure(module_a)
        fn_b = _closure(module_b)
        assert fn_a is fn_b
        assert fn_a is not None
        assert code_memo_stats().hits > before

    def test_afu_name_is_digest_relevant(self):
        """Blocks identical up to the bound AFU's *name* must not share
        a closure: the compiled trap message bakes the name in, and the
        walker's message would diverge (regression)."""
        from repro.exec.rewrite import FusedAFU, FusedGate
        from repro.ir.function import Function, Module
        from repro.ir.instructions import ISEInstruction, ret
        from repro.ir.opcodes import Opcode
        from repro.ir.values import Reg

        def build(afu_name):
            afu = FusedAFU(
                name=afu_name, block="f/entry",
                gates=(FusedGate(Opcode.ADD, "w0", ("p0", "p1")),),
                input_ports=("p0", "p1"), output_wires=("w0",),
                latency_cycles=1, software_cycles=2.0, area_mac=0.1)
            module = Module("m")
            func = Function("f", params=["a", "b"])
            block = func.add_block("entry")
            block.append(ISEInstruction(afu, (Reg("a"), Reg("b")),
                                        ("t0",)))
            block.append(ret(Reg("t0")))
            module.add_function(func)
            return block

        assert (block_digest(build("ise0"))
                != block_digest(build("ise1")))
        assert (block_digest(build("ise0"))
                == block_digest(build("ise0")))

    def test_different_constants_do_not_collide(self):
        module_a = compile_source("int f(int x) { return x + 1; }")
        module_b = compile_source("int f(int x) { return x + 2; }")
        assert (block_digest(module_a.functions["f"].entry)
                != block_digest(module_b.functions["f"].entry))

    def test_clear_code_memo(self):
        module = compile_source("int f() { return 3; }")
        _closure(module)
        assert clear_code_memo() > 0
        stats = code_memo_stats()
        assert stats.hits == 0 and stats.compiled == 0

    def test_rewritten_module_hits_shared_memo(self):
        """An ISE-rewritten module's unmodified functions must *hit*
        the memo an earlier run of the original module populated, not
        recompile (regression: ``repro run --rewrite`` after a sweep
        used to pay full codegen again).  Function digests are purely
        structural, so a digest-equal function from the rewrite's clone
        reuses the original's closure.  g721's callees are not all
        rewritten; fir is one function, so it has none to reuse."""
        from repro import interp
        from repro.core import Constraints, select_iterative
        from repro.exec.rewrite import rewrite_module
        from repro.hwmodel import CostModel
        from repro.pipeline import prepare_application
        from repro.workloads.registry import get_workload

        name, n = "g721", RUN_SIZES["g721"]
        app = prepare_application(name, n=n)
        model = CostModel()
        selection = select_iterative(
            app.dfgs, Constraints(nin=4, nout=2, ninstr=4), model,
            LIMITS)
        rewritten = rewrite_module(app.module, selection.cuts, model)
        assert rewritten.rewritten_blocks > 0

        workload = get_workload(name)
        clear_code_memo()
        # Populate: one compiled run of the *original* module.
        memory = Memory(app.module)
        interp.execute(app.module, app.entry,
                       workload.driver(memory, n), memory=memory,
                       backend="compiled")
        # code_memo_stats() returns the live counters — snapshot them.
        warm = code_memo_stats().as_dict()
        assert warm["compiled"] > 0
        # The rewritten module recompiles only blocks the rewrite
        # actually changed; everything digest-equal is a memo hit.
        memory = Memory(rewritten.module)
        interp.execute(rewritten.module, app.entry,
                       workload.driver(memory, n), memory=memory,
                       backend="compiled")
        after = code_memo_stats().as_dict()
        assert after["hits"] > warm["hits"]
        assert (after["compiled"] - warm["compiled"]
                < warm["compiled"]), "rewritten run recompiled everything"


class TestMemoLRU:
    """Satellite: LRU eviction replaced the wholesale drop-at-capacity."""

    def _flood(self, count, start=0):
        """Compile *count* distinct single-block functions."""
        for k in range(start, start + count):
            _closure(compile_source(f"int f() {{ return {k}; }}"))

    def test_memo_never_exceeds_cap(self, monkeypatch):
        from repro.interp import compile as compile_mod

        monkeypatch.setattr(compile_mod, "MEMO_LIMIT", 8)
        clear_code_memo()
        self._flood(30)
        assert len(compile_mod._MEMO) <= 8
        assert code_memo_stats().evictions >= 30 - 8

    def test_hot_digest_survives_eviction_cycle(self, monkeypatch):
        """A digest re-looked-up between floods must stay resident
        while cold entries churn out around it — the property the old
        drop-everything behaviour lacked."""
        from repro.interp import compile as compile_mod

        monkeypatch.setattr(compile_mod, "MEMO_LIMIT", 8)
        clear_code_memo()
        hot_module = compile_source("int f(int x) { return x ^ 42; }")
        hot = _closure(hot_module)
        for round_ in range(4):
            # More cold entries than the cap, in two instalments, with
            # a hot touch between them to refresh recency.
            self._flood(5, start=100 * (round_ + 1))
            assert _closure(hot_module) is hot
            self._flood(5, start=100 * (round_ + 1) + 50)
            assert _closure(hot_module) is hot
        assert code_memo_stats().evictions > 0
        assert len(compile_mod._MEMO) <= 8
        clear_code_memo()
