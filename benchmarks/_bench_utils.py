"""Helpers shared by the benchmark modules.

Rows are echoed to stdout (visible with ``pytest -s``) and appended to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.rewrite import rewrite_module
from repro.session import Session

RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.txt", "a") as fh:
        fh.write(text + "\n")


def rewritten_workload(name: str):
    """``(app, rewritten module)`` for one registered workload.

    Iterative selection at Nin 4 / Nout 2 / Ninstr 16 over the default
    profile, spliced in by ``rewrite_module`` — the shape the end-to-end
    benchmark's batch workload executes.  ``app.module`` stays the
    untouched baseline.
    """
    session = Session(store=False, workers=1)
    app = session.prepare(name)
    selection = session.select(name)
    rewritten = rewrite_module(app.module, selection.cuts, session.model)
    return app, rewritten.module
