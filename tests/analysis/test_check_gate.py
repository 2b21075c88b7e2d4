"""The check gate end to end: pass-boundary verification, rewrite
cross-checks, compile fallback telemetry, ``CheckReport`` /
``Session.check`` / ``repro check``."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Diagnostic, VerificationError, verify_module
from repro.analysis.report import CheckReport
from repro.cli import main
from repro.exec.rewrite import rewrite_module
from repro.frontend import analyze, lower_program, parse
from repro.ir import Const, Function, ret
from repro.ir.function import BasicBlock
from repro.passes import PassManager, optimize_module
from repro.session import Session
from repro.workloads.registry import get_workload


# ----------------------------------------------------------------------
# Pass-boundary verification.
# ----------------------------------------------------------------------
class TestPassManagerVerification:
    def make_func(self):
        func = Function("f")
        func.add_block("entry").append(ret(Const(0)))
        return func

    def test_breaking_pass_is_named(self):
        def drop_terminator(func):
            func.entry.instructions.pop()
            return True

        manager = PassManager([drop_terminator], verify=True)
        with pytest.raises(VerificationError) as info:
            manager.run(self.make_func())
        assert info.value.context == (
            "pass 'drop_terminator' broke function 'f'")
        assert [d.code for d in info.value.diagnostics] == ["V002"]

    def test_unchanged_function_is_not_reverified(self):
        def lazy_liar(func):
            func.entry.instructions.pop()
            return False        # reports "no change": not re-checked.

        manager = PassManager([lazy_liar], verify=True)
        manager.run(self.make_func())   # does not raise

    def test_verify_off_skips_checks(self):
        def drop_terminator(func):
            func.entry.instructions.pop()
            return True

        manager = PassManager([drop_terminator], verify=False)
        manager.run(self.make_func())   # does not raise
        assert manager.verifying is False

    def test_method_pass_named_by_class(self):
        class Nop:
            def run(self, func):
                return False

        manager = PassManager([Nop().run], verify=True)
        assert manager.run(self.make_func()) is False


@settings(max_examples=8, deadline=None)
@given(
    workload=st.sampled_from(["fir", "crc32", "mixer"]),
    if_convert=st.booleans(),
    max_speculated=st.integers(0, 64),
)
def test_pipeline_keeps_modules_verifier_clean(workload, if_convert,
                                               max_speculated):
    """Property: the standard pass pipeline never produces IR with
    error-severity diagnostics, whatever its configuration."""
    spec = get_workload(workload)
    program = parse(spec.source)
    module = lower_program(program, analyze(program), name=workload)
    optimize_module(module, if_convert=if_convert,
                    max_speculated=max_speculated, verify=True)
    assert [d for d in verify_module(module)
            if d.severity == "error"] == []


# ----------------------------------------------------------------------
# Rewrite verification wiring.
# ----------------------------------------------------------------------
class TestRewriteVerification:
    def test_rewrite_module_verifies_clone(self, fir_app, model):
        from repro.core import Constraints, select_iterative

        cons = Constraints(nin=4, nout=2, ninstr=4)
        result = select_iterative(fir_app.dfgs, cons, model)
        rewritten = rewrite_module(fir_app.module, result.cuts,
                                   model=model, verify=True)
        assert rewritten.rewritten_blocks >= 1
        assert [d for d in verify_module(rewritten.module)
                if d.severity == "error"] == []


# ----------------------------------------------------------------------
# Compile fallback telemetry.
# ----------------------------------------------------------------------
def _naked_function():
    """A one-block function whose block has no terminator (``V002``)."""
    func = Function("f")
    func.add_block("naked")
    return func


class TestFallbackTelemetry:
    def test_fallback_reason_v002(self):
        from repro.interp.compile import compile_block

        block = BasicBlock("b")
        code = compile_block(block)
        assert code.fn is None
        assert code.reason == "V002"
        assert code.detail == "no terminator"

    def test_fallback_reason_c002(self):
        from repro.interp.compile import compile_block
        from repro.ir import Opcode, binop

        block = BasicBlock("b")
        insn = binop(Opcode.ADD, "d", Const(1), Const(2))
        insn.operands = ("mystery", Const(2))
        block.instructions.append(insn)
        block.append(ret(Const(0)))
        # The digest walk also chokes on the alien operand; pass one.
        code = compile_block(block, digest="test-c002")
        assert code.fn is None
        assert code.reason == "C002"
        assert code.detail == "operand 'mystery'"

    def test_fallback_reason_c003(self):
        from repro.interp.compile import compile_region

        first = BasicBlock("a")
        first.append(ret(Const(0)))
        second = BasicBlock("b")
        second.append(ret(Const(0)))
        code = compile_region([first, second])
        assert code.fn is None
        assert code.reason == "C003"
        assert code.detail == ("chain link is not a JMP/BR into the "
                               "next block")

    def test_stats_count_by_code(self):
        from repro.interp.compile import BlockCode, CodeMemoStats

        stats = CodeMemoStats()
        stats.count_fallback(BlockCode(fn=None, label="b",
                                       reason="V002"))
        stats.count_fallback(BlockCode(fn=None, label="b",
                                       reason="V002"))
        # Legacy fallbacks without a recorded reason count as C001.
        stats.count_fallback(BlockCode(fn=None, label="b"))
        assert stats.fallbacks == 3
        assert stats.fallback_codes == {"V002": 2, "C001": 1}
        assert stats.as_dict()["fallback_codes"] == {
            "C001": 1, "V002": 2}

    def test_memo_counts_fallbacks(self):
        from repro.interp import compile as compmod

        compmod.clear_code_memo()
        before = dict(compmod.code_memo_stats().fallback_codes)
        assert before == {}
        func = _naked_function()
        assert compmod.build_function_table(func) == {"naked": None}
        assert compmod.code_memo_stats().fallback_codes == {"V002": 1}
        # A memo hit does not double-count.
        compmod.build_function_table(func)
        assert compmod.code_memo_stats().fallback_codes == {"V002": 1}
        compmod.clear_code_memo()
        assert compmod.code_memo_stats().fallback_codes == {}


# ----------------------------------------------------------------------
# CheckReport.
# ----------------------------------------------------------------------
def make_report(**kwargs):
    defaults = dict(workload="fir", algorithm="iterative", nin=4,
                    nout=2, ninstr=16)
    defaults.update(kwargs)
    return CheckReport(**defaults)


class TestCheckReport:
    def test_ok_ignores_warnings(self):
        warn = Diagnostic(code="V006", message="m", severity="warning")
        report = make_report(phases={"baseline": [warn]})
        assert report.ok is True
        report.phases["selection"] = [Diagnostic(code="S001",
                                                 message="m")]
        assert report.ok is False

    def test_diagnostics_in_phase_order(self):
        a = Diagnostic(code="S001", message="m")
        b = Diagnostic(code="V002", message="m")
        report = make_report(phases={"selection": [a],
                                     "baseline": [b]})
        assert report.diagnostics == [b, a]

    def test_as_dict_shape(self):
        report = make_report(
            phases={"baseline": [Diagnostic(code="V002", message="m",
                                            function="f", block="b")]},
            functions=2, cuts_checked=5, rewritten_blocks=1,
            skipped=["note"])
        record = report.as_dict()
        assert record["workload"] == "fir"
        assert record["ok"] is False
        assert record["functions"] == 2
        assert record["cuts_checked"] == 5
        assert record["skipped"] == ["note"]
        assert record["diagnostics"]["baseline"][0]["code"] == "V002"
        json.dumps(record)      # JSON-serialisable throughout.

    def test_render_clean_and_failing(self):
        report = make_report(phases={"baseline": [], "selection": [],
                                     "rewritten": []},
                             functions=1, cuts_checked=3,
                             rewritten_blocks=2)
        text = report.render()
        assert text.splitlines()[0] == (
            "check fir (iterative, Nin=4, Nout=2, Ninstr=16)")
        assert "baseline:  clean (1 function(s) verified)" in text
        assert "selection: clean (3 cut(s) checked)" in text
        assert "rewritten: clean (2 block(s) rewritten)" in text
        assert text.endswith("result: OK")
        report.phases["baseline"].append(
            Diagnostic(code="V002", message="block has no terminator",
                       function="f", block="entry"))
        text = report.render()
        assert "baseline:  1 error(s) (1 function(s) verified)" in text
        assert "    V002 f/entry: block has no terminator" in text
        assert text.endswith("result: FAIL")


# ----------------------------------------------------------------------
# Session.check and the CLI verb.
# ----------------------------------------------------------------------
class TestSessionCheck:
    def test_clean_workload(self):
        report = Session().check("fir", n=16, ninstr=4)
        assert report.ok
        assert set(report.phases) == {"baseline", "selection",
                                      "rewritten"}
        assert report.functions >= 1
        assert report.cuts_checked >= 1
        assert report.rewritten_blocks >= 1
        assert report.diagnostics == [d for d in report.diagnostics
                                      if d.severity == "warning"]

    def test_report_carries_constraint_point(self):
        report = Session().check("crc32", n=16, nin=3, nout=1,
                                 ninstr=2, algorithm="maxmiso")
        assert (report.nin, report.nout, report.ninstr) == (3, 1, 2)
        assert report.algorithm == "maxmiso"
        assert report.ok


class TestCheckCli:
    def test_text_mode(self, capsys):
        assert main(["check", "fir", "--n", "16", "--ninstr", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check fir (iterative, Nin=4, Nout=2, "
                              "Ninstr=4)")
        assert "result: OK" in out

    def test_json_to_stdout(self, capsys):
        assert main(["check", "fir", "--n", "16", "--ninstr", "4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [r["workload"] for r in payload["reports"]] == ["fir"]

    def test_json_to_file_and_csv_workloads(self, tmp_path, capsys):
        path = tmp_path / "check.json"
        assert main(["check", "fir,crc32", "--n", "16", "--ninstr", "4",
                     "--json", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"wrote {path}" in captured.err
        payload = json.loads(path.read_text())
        assert [r["workload"] for r in payload["reports"]] == [
            "fir", "crc32"]
        assert all(r["ok"] for r in payload["reports"])

    def test_failing_module_exits_nonzero(self, capsys, monkeypatch):
        broken = make_report(phases={"baseline": [
            Diagnostic(code="V002", message="block has no terminator",
                       function="f", block="entry")]})
        monkeypatch.setattr(Session, "check",
                            lambda self, name, **kw: broken)
        assert main(["check", "fir"]) == 1
        assert "result: FAIL" in capsys.readouterr().out


class TestRunTelemetry:
    def test_run_reports_fallback_codes_on_stderr(self, capsys):
        from repro.interp import compile as compmod

        compmod.clear_code_memo()
        assert main(["run", "fir", "--n", "16"]) == 0
        err = capsys.readouterr().err
        # fir compiles fully: no fallback line.
        assert "walker fallbacks:" not in err

    def test_fallback_line_format(self, capsys):
        from repro.cli import _print_fallbacks
        from repro.interp import compile as compmod

        compmod.clear_code_memo()
        compmod.build_function_table(_naked_function())
        _print_fallbacks()
        err = capsys.readouterr().err
        assert err.strip() == "walker fallbacks: V002x1"
        compmod.clear_code_memo()


# ----------------------------------------------------------------------
# Session.check surfaces verifier failures instead of raising.
# ----------------------------------------------------------------------
class TestCheckSurfacesFailures:
    def test_broken_baseline_is_reported_not_raised(self, monkeypatch):
        import repro.session as sessmod

        real_prepare = sessmod.prepare_application

        def sabotage(*args, **kwargs):
            app = real_prepare(*args, **kwargs)
            bad = Function("__broken__")
            bad.add_block("entry")     # no terminator
            app.module.add_function(bad)
            return app

        monkeypatch.setattr(sessmod, "prepare_application", sabotage)
        report = Session().check("fir", n=16, ninstr=2)
        assert report.ok is False
        assert any(d.code == "V002"
                   for d in report.phases["baseline"])
