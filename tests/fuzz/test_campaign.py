"""Campaign orchestration: telemetry, failure artifacts, and the
``Session.fuzz`` / ``repro fuzz`` entry points."""

from __future__ import annotations

import json

import strategies as sh
from repro.cli import main
from repro.fuzz import SHAPES, run_campaign
from repro.session import Session


def test_small_campaign_is_clean_and_covers_shapes():
    count = 2 * len(SHAPES)
    result = run_campaign(count=count, seed=0)
    assert result.ok
    assert result.programs == count
    # Round-robin scheduling: every shape gets count / len(SHAPES) slots.
    assert set(result.by_shape) == set(SHAPES)
    assert all(n == count // len(SHAPES)
               for n in result.by_shape.values())
    assert result.cuts > 0, "interesting shapes must yield cuts"
    assert result.rewritten_blocks > 0
    assert not result.failures


def test_campaign_pins_one_shape():
    result = run_campaign(count=4, seed=0, shape="memory")
    assert result.ok
    assert result.by_shape == {"memory": 4}


def test_failing_campaign_writes_artifacts(tmp_path):
    """A planted miscompile produces a failure record plus an artifact
    directory holding the original, the reduced reproducer, and the
    machine-readable report."""
    result = run_campaign(count=2, seed=7, shape="chain",
                          artifacts=tmp_path,
                          inject=sh.inject_opcode_flip)
    assert not result.ok
    assert result.failures
    record = result.failures[0]
    artifact_dir = tmp_path / f"{record.shape}-seed{record.seed}"
    assert (artifact_dir / "original.c").is_file()
    assert (artifact_dir / "reduced.c").is_file()
    report = json.loads((artifact_dir / "report.json").read_text())
    assert report["report"]["failures"]
    assert record.reduced_lines <= 15
    reduced = (artifact_dir / "reduced.c").read_text()
    assert len(reduced.splitlines()) == record.reduced_lines


def test_session_fuzz_facade():
    result = Session().fuzz(count=6, seed=3)
    assert result.ok
    assert result.programs == 6
    payload = result.as_dict()
    assert payload["programs"] == 6
    assert payload["ok"] is True


def test_cli_fuzz_smoke(capsys):
    assert main(["fuzz", "--count", "6", "--seed", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["programs"] == 6
    assert payload["ok"] is True


def test_cli_fuzz_shape_pin(capsys):
    assert main(["fuzz", "--count", "3", "--seed", "1",
                 "--shape", "chain"]) == 0
    out = capsys.readouterr().out
    assert "chain" in out
