"""Seed-pinned regression corpus: every case under ``corpus/`` replays
through the full differential stack on every run.

Two kinds of cases live there:

* ``<shape>-seed<N>.json`` — generator output pinned by (seed, shape),
  chosen so selection finds cuts and the rewriter fires.  For these the
  stored source must also match what the generator produces *today*:
  silent generator drift would otherwise quietly retire a regression.
* ``hand-*.json`` — hand-written programs pinning past bug classes
  (multi-output region codegen, step-budget expiry inside a callee).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz import GeneratedProgram, generate_program, run_differential

CORPUS = Path(__file__).parent / "corpus"
CASES = sorted(CORPUS.glob("*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_corpus_is_populated():
    names = {path.stem for path in CASES}
    assert len(CASES) >= 8
    assert any(name.startswith("hand-") for name in names)


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_replays_clean(path):
    """The stored source passes the whole oracle: both backends,
    baseline vs rewritten, single vs batched lanes."""
    case = load(path)
    program = GeneratedProgram(
        seed=case["seed"], shape=case["shape"], source=case["source"],
        arg_sets=tuple(tuple(args) for args in case["arg_sets"]),
        entry=case.get("entry", "f"))
    report = run_differential(program)
    assert report.ok, "\n".join(str(f) for f in report.failures)


@pytest.mark.parametrize(
    "path", [p for p in CASES if not p.stem.startswith("hand-")],
    ids=lambda p: p.stem)
def test_generator_has_not_drifted(path):
    """Regenerating (seed, shape) still yields the stored program.

    If this fails after an *intentional* generator change, re-pin the
    corpus: ``python tests/fuzz/repin_corpus.py``.
    """
    case = load(path)
    regenerated = generate_program(case["seed"], case["shape"])
    assert regenerated.source == case["source"]
    assert [list(a) for a in regenerated.arg_sets] == case["arg_sets"]
