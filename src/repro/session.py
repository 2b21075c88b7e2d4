"""The session facade: one object owning the whole toolchain's state.

Every entry point used to bootstrap itself — compile and profile the
workload, run the exponential searches from a cold start, measure its
own baseline — and throw all of it away on exit.  A :class:`Session`
owns the three things worth keeping instead:

* a persistent content-addressed :class:`~repro.store.ArtifactStore`
  (compiled+profiled applications, which carry the profiling run that
  doubles as the baseline run, and identification results survive the
  process and are shared between concurrent processes);
* a cost model and a :class:`~repro.explore.SearchCache` backed by the
  store, shared by every call so ``identify`` warms ``select`` warms
  ``sweep``;
* the number of worker processes a sweep's group units run on.

The facade exposes the complete API surface — :meth:`prepare`,
:meth:`identify`, :meth:`select`, :meth:`sweep`, :meth:`speedup`,
:meth:`run_batch`, :meth:`afu`, :meth:`check`, :meth:`fuzz` — with
warm-start
semantics: repeating a call (in this
process or a later one) returns bit-identical results while skipping
every expensive phase whose inputs did not change.  The store is a pure
memo; ``Session(store=False)`` computes exactly the same numbers from
scratch, which the test suite asserts property-style.

Quickstart::

    from repro import Session

    session = Session()                 # ~/.cache/repro (or $REPRO_STORE)
    result = session.select("adpcm-decode", ninstr=16)
    rows = session.speedup(["adpcm-decode"])   # shares the work above
    # A new process repeating these calls warm-starts from the store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .core import Constraints, SearchLimits, SearchResult
from .core.select_iterative import CollapseChain
from .core.selection import SelectionResult
from .exec.rewrite import rewrite_module
from .exec.speedup import ALGORITHMS, dispatch_selection
from .exec.verilog import emit_verilog
from .explore.cache import SearchCache
from .hwmodel import CostModel
from .pipeline import Application, prepare_application
from .store.artifacts import ArtifactStore, resolve_store
from .workloads.registry import get_workload

__all__ = ["ALGORITHMS", "Session"]


class Session:
    """Shared toolchain state with warm-start semantics (module doc)."""

    def __init__(
        self,
        store="auto",
        model: Optional[CostModel] = None,
        workers: Optional[int] = None,
        limits: Optional[SearchLimits] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Open a session.

        Args:
            store: ``"auto"`` (the default ``~/.cache/repro`` root, or
                ``$REPRO_STORE``; honours the env var's off switch),
                ``False``/``None`` for a purely in-memory session, a
                path, or an :class:`ArtifactStore`.
            model: cost model shared by every call (default paper model).
            workers: worker processes for a sweep's group units
                (default: ``$REPRO_WORKERS``, else serial).
            limits: default search budget applied when a call does not
                pass its own.
            backend: execution backend for every profiling/measurement
                run the session performs (``"walk"``/``"compiled"``;
                default ``$REPRO_BACKEND``, else compiled).  Results
                are bit-identical across backends, so the backend is
                deliberately absent from every memo and store key.
        """
        self.store: Optional[ArtifactStore] = resolve_store(store)
        self.model = model or CostModel()
        self.workers = workers
        self.limits = limits
        self.backend = backend
        self.cache = SearchCache(backing=self.store)
        self._apps: Dict[Tuple, Application] = {}

    # ------------------------------------------------------------------
    def prepare(self, name: str, n: Optional[int] = None,
                unroll: Optional[int] = None, if_convert: bool = True,
                verify: bool = True) -> Application:
        """Compile+profile *name* — memoised in-process and, through the
        store, across processes.  Hits are bit-identical to cold runs."""
        # Resolve the default size so n=None and an explicit
        # n=default_n share one memo entry, like workload_key does.
        size = n if n is not None else get_workload(name).default_n
        key = (name, size, unroll, if_convert, verify)
        app = self._apps.get(key)
        if app is None:
            app = prepare_application(name, n=n, unroll=unroll,
                                      if_convert=if_convert, verify=verify,
                                      store=self.store,
                                      backend=self.backend)
            self._apps[key] = app
        return app

    def _limits(self, limits) -> Optional[SearchLimits]:
        return limits if limits is not None else self.limits

    # ------------------------------------------------------------------
    def identify(self, workload: str, nin: int = 4, nout: int = 2,
                 limits: Optional[SearchLimits] = None,
                 n: Optional[int] = None,
                 unroll: Optional[int] = None) -> SearchResult:
        """Best single cut of the hottest block (Problem 1): link 0 of
        its collapse chain on the shared search cache, so it warms
        :meth:`select`."""
        app = self.prepare(workload, n=n, unroll=unroll)
        return CollapseChain(app.hot_dfg, Constraints(nin=nin, nout=nout),
                             self.model, self._limits(limits),
                             self.cache).link(0)

    def select(self, workload: str, algorithm: str = "iterative",
               nin: int = 4, nout: int = 2, ninstr: int = 16,
               limits: Optional[SearchLimits] = None,
               n: Optional[int] = None, unroll: Optional[int] = None,
               max_nodes: int = 40, area_budget: float = 2.0,
               area_method: str = "knapsack") -> SelectionResult:
        """Select up to *ninstr* instructions (Problem 2) with any of the
        five algorithm families, warm-starting identification from the
        session cache.  Dispatch is shared with ``repro speedup``
        (:func:`repro.exec.speedup.dispatch_selection`), so the two
        paths can never wire the same flags differently."""
        app = self.prepare(workload, n=n, unroll=unroll)
        return dispatch_selection(
            algorithm, app.dfgs,
            Constraints(nin=nin, nout=nout, ninstr=ninstr),
            self.model, self._limits(limits), max_nodes, area_budget,
            area_method=area_method, cache=self.cache)

    # ------------------------------------------------------------------
    def sweep(self, spec, use_cache: bool = True, echo=None,
              listen=None, unit_attempts: int = 3,
              unit_deadline=None, cluster_deadline=None):
        """Run a whole design-space grid (:func:`repro.explore.
        run_sweep`) through the session's cache and store — a repeated
        identical sweep skips preparation and searches nothing.
        Group units run on the session's ``workers`` processes;
        ``listen`` additionally accepts remote ``repro worker`` nodes.
        Rows are bit-identical to a serial sweep either way.
        ``unit_attempts`` / ``unit_deadline`` / ``cluster_deadline``
        are the scheduler's robustness knobs (poison-unit
        quarantine, hung-worker requeue, overall deadline)."""
        from .explore.runner import run_sweep

        return run_sweep(spec, use_cache=use_cache,
                         cache=self.cache if use_cache else None,
                         workers=self.workers, echo=echo,
                         store=self.store, backend=self.backend,
                         listen=listen,
                         unit_attempts=unit_attempts,
                         unit_deadline=unit_deadline,
                         cluster_deadline=cluster_deadline,
                         prepare=lambda name, size, unr: self.prepare(
                             name, n=size, unroll=unr))

    def speedup(self, workloads: Sequence[str], nin: int = 4,
                nout: int = 2, ninstr: int = 16,
                algorithm: str = "iterative",
                limits: Optional[SearchLimits] = None,
                n: Optional[int] = None, unroll: Optional[int] = None,
                max_nodes: int = 40, area_budget: float = 2.0,
                area_method: str = "knapsack"):
        """Measured end-to-end speedup rows (:func:`repro.exec.
        run_speedup`), sharing preparation (the in-process memo and the
        store; the prepared app's profiling run is the baseline run)
        and identification with every other session call."""
        from .exec.speedup import run_speedup

        return run_speedup(
            workloads, nin=nin, nout=nout, ninstr=ninstr,
            algorithm=algorithm, model=self.model,
            limits=self._limits(limits), n=n, unroll=unroll,
            max_nodes=max_nodes, area_budget=area_budget,
            area_method=area_method,
            cache=self.cache, backend=self.backend,
            prepare=lambda name, size, unr: self.prepare(
                name, n=size, unroll=unr))

    def run_batch(self, workload: str, count: int,
                  n: Optional[int] = None, unroll: Optional[int] = None,
                  rewrite: bool = False, algorithm: str = "iterative",
                  nin: int = 4, nout: int = 2, ninstr: int = 16,
                  limits: Optional[SearchLimits] = None,
                  max_nodes: int = 40):
        """Execute one workload over *count* input lanes
        (:func:`repro.exec.speedup.measure_batch`), sharing preparation
        — and, with ``rewrite=True``, selection — with every other
        session call through the in-process memo and the store.  The
        compiled-code memo is process-wide, so a batch after a sweep
        reuses the sweep's region closures."""
        from .exec.speedup import measure_batch

        app = self.prepare(workload, n=n, unroll=unroll)
        selection = None
        if rewrite:
            selection = self.select(
                workload, algorithm=algorithm, nin=nin, nout=nout,
                ninstr=ninstr, limits=limits, n=n, unroll=unroll,
                max_nodes=max_nodes)
        return measure_batch(app, count, model=self.model, n=n,
                             selection=selection, backend=self.backend)

    def check(self, workload: str, algorithm: str = "iterative",
              nin: int = 4, nout: int = 2, ninstr: int = 16,
              limits: Optional[SearchLimits] = None,
              n: Optional[int] = None, unroll: Optional[int] = None,
              max_nodes: int = 40):
        """Statically verify one workload end to end (``repro check``).

        Three phases, each reported separately in the returned
        :class:`~repro.analysis.report.CheckReport`:

        1. **baseline** — the full IR verifier over the optimised
           module (CFG shape, opcode contracts, def-before-use);
        2. **selection** — every cut the chosen algorithm returns,
           re-validated by the independent mask-based checker
           (convexity, port budgets, forbidden ops, metric agreement);
        3. **rewritten** — the ISE-rewritten clone: full module
           verification, ISE/AFU netlist contracts, and preservation
           of each block's memory/call chain.

        Pure analysis — nothing is executed; ``report.ok`` is the gate
        currency (warnings don't fail it).
        """
        from .analysis import check_cut_record, check_rewrite, verify_module
        from .analysis.diagnostics import VerificationError
        from .analysis.report import CheckReport
        from .exec.rewrite import RewriteError, rewrite_module

        app = self.prepare(workload, n=n, unroll=unroll)
        report = CheckReport(workload=workload, algorithm=algorithm,
                             nin=nin, nout=nout, ninstr=ninstr,
                             functions=len(app.module.functions))
        report.phases["baseline"] = verify_module(app.module)

        selection_diags = []
        selection = None
        try:
            selection = self.select(
                workload, algorithm=algorithm, nin=nin, nout=nout,
                ninstr=ninstr, limits=limits, n=n, unroll=unroll,
                max_nodes=max_nodes)
        except VerificationError as exc:
            # The in-path assertion (on under $REPRO_VERIFY) fired
            # first; fold its diagnostics into the report instead of
            # crashing the check verb.
            selection_diags.extend(exc.diagnostics)
        if selection is not None:
            for cut in selection.cuts:
                report.cuts_checked += 1
                selection_diags.extend(check_cut_record(cut, nin, nout))
        report.phases["selection"] = selection_diags

        rewrite_diags = []
        if selection is not None:
            try:
                # verify=False: check_rewrite below reports diagnostics
                # instead of raising mid-rewrite.
                result = rewrite_module(app.module, selection.cuts,
                                        self.model, verify=False)
            except (RewriteError, VerificationError) as exc:
                if isinstance(exc, VerificationError):
                    rewrite_diags.extend(exc.diagnostics)
                else:
                    from .analysis.diagnostics import Diagnostic

                    rewrite_diags.append(Diagnostic(
                        code="V306", message=str(exc)))
            else:
                report.rewritten_blocks = result.rewritten_blocks
                report.skipped = list(result.skipped)
                rewrite_diags.extend(
                    check_rewrite(app.module, result.module))
        report.phases["rewritten"] = rewrite_diags
        return report

    def fuzz(self, count: int = 100, seed: int = 0,
             shape: Optional[str] = None,
             artifacts: Optional[str] = None,
             nin: int = 4, nout: int = 2, ninstr: int = 8,
             limits: Optional[SearchLimits] = None,
             on_progress=None):
        """Differential fuzzing campaign (``repro fuzz``).

        Generates *count* seeded MiniC programs and runs each through
        the full differential oracle — walker vs ``compiled``,
        baseline vs rewritten, single vs batched lanes,
        verifier and selection checker on every phase
        (:func:`repro.fuzz.run_campaign`).  Failures are shrunk to
        minimal reproducers under *artifacts*.  Generated modules are
        session-independent throwaways, so nothing here touches the
        store; the session contributes its cost model and search
        budget.
        """
        from .fuzz import run_campaign

        return run_campaign(
            count=count, seed=seed, shape=shape, artifacts=artifacts,
            on_progress=on_progress, model=self.model,
            limits=self._limits(limits), nin=nin, nout=nout,
            ninstr=ninstr)

    def afu(self, workload: str, ninstr: int = 2, nin: int = 4,
            nout: int = 2, limits: Optional[SearchLimits] = None,
            n: Optional[int] = None, unroll: Optional[int] = None,
            ) -> List[str]:
        """Verilog module texts for the selected custom instructions:
        one per :class:`~repro.exec.rewrite.FusedAFU` the rewritten
        program executes, with its name, operand and dest order."""
        result = self.select(workload, algorithm="iterative", nin=nin,
                             nout=nout, ninstr=ninstr, limits=limits,
                             n=n, unroll=unroll)
        app = self.prepare(workload, n=n, unroll=unroll)
        rewritten = rewrite_module(app.module, result.cuts, self.model)
        return [emit_verilog(afu) for afu in rewritten.afus]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cache and store telemetry of this session (for ``repro cache
        stats`` and the warm-start benchmark)."""
        record = {
            "search_cache": self.cache.stats.as_dict(),
            "search_entries": len(self.cache),
            "store": None,
        }
        if self.store is not None:
            record["store"] = {
                "root": str(self.store.root),
                **self.store.stats.as_dict(),
            }
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = self.store.root if self.store is not None else "memory"
        return f"<Session store={where}>"
