"""The diagnostic vocabulary is API: codes, severities and renderings
are stable, so tools and CI gates can match on them."""

from __future__ import annotations

import pytest

from repro.analysis import CODES, Diagnostic, VerificationError, errors_of
from repro.analysis.diagnostics import SEVERITIES


class TestCodesTable:
    def test_every_family_is_populated(self):
        families = {code[:2] if code[0] == "V" else code[0]
                    for code in CODES}
        assert {"V0", "V1", "V2", "V3", "S", "C"} <= families

    def test_expected_codes_present(self):
        expected = {
            "V001", "V002", "V003", "V004", "V005", "V006",
            "V101", "V102", "V103", "V104", "V105", "V106",
            "V201", "V202",
            "V301", "V302", "V303", "V304", "V305", "V306",
            "S001", "S002", "S003", "S004", "S005", "S006",
            "C001", "C002", "C004",
        }
        assert expected == set(CODES)

    def test_meanings_are_one_liners(self):
        for code, meaning in CODES.items():
            assert meaning and "\n" not in meaning, code


class TestDiagnostic:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic(code="V999", message="nope")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Diagnostic(code="V001", message="m", severity="fatal")

    def test_location_forms(self):
        full = Diagnostic(code="V002", message="m", function="f",
                          block="entry")
        assert full.location == "f/entry"
        func_only = Diagnostic(code="V001", message="m", function="f")
        assert func_only.location == "f"
        assert Diagnostic(code="V001", message="m").location == "<module>"

    def test_render_is_canonical(self):
        d = Diagnostic(code="V004", message="branch target 'x' names no "
                       "block", function="f", block="entry")
        assert d.render() == ("V004 f/entry: branch target 'x' names no "
                              "block")
        assert str(d) == d.render()

    def test_as_dict_round_trip(self):
        d = Diagnostic(code="S002", message="m", function="f", block="b",
                       severity="warning")
        assert d.as_dict() == {
            "code": "S002", "severity": "warning", "function": "f",
            "block": "b", "message": "m",
        }

    def test_severities(self):
        assert SEVERITIES == ("error", "warning")


class TestVerificationError:
    def test_carries_diagnostics_and_renders_them(self):
        diags = [
            Diagnostic(code="V002", message="block has no terminator",
                       function="f", block="entry"),
            Diagnostic(code="V004", message="branch target 'x' names no "
                       "block", function="f", block="entry"),
        ]
        exc = VerificationError("pass 'Dce' broke function 'f'", diags)
        assert exc.context == "pass 'Dce' broke function 'f'"
        assert exc.diagnostics == diags
        text = str(exc)
        assert text.startswith(
            "pass 'Dce' broke function 'f': 2 verifier diagnostic(s)")
        assert "  V002 f/entry: block has no terminator" in text

    def test_is_a_value_error(self):
        assert issubclass(VerificationError, ValueError)


class TestErrorsOf:
    def test_filters_warnings(self):
        err = Diagnostic(code="V002", message="m")
        warn = Diagnostic(code="V006", message="m", severity="warning")
        assert errors_of([warn, err, warn]) == [err]
