"""The paper's contribution: identification and selection of instruction-set
extensions under microarchitectural constraints.

Both identification algorithms run on the shared bitset branch-and-bound
engine (:mod:`repro.core.engine`): an iterative decision-tree walk whose
incremental convexity/IO state is packed into Python-int bitsets, with
the search budget as a plain loop condition.  On top of the paper's
monotone output-port/convexity pruning, unbudgeted single-cut searches
prune by default with an admissible merit upper bound and the
permanent-input rule — the same best cut, far fewer cuts examined; the
subtrees they remove are counted in ``SearchStats.ub_pruned`` and
``SearchStats.nin_pruned``.  A ``SearchLimits(max_considered=...)``
budget walks the paper's exact tree instead (the Figs. 5/7/8
statistics), and search progress is reported in
``SearchStats.space_covered``.

The selection strategies are serial loops.  A sweep parallelises
above them: one scheduler, :func:`repro.cluster.scheduled_map`, shards
its *(model, workload, Nin, Nout)* evaluation groups over ``workers``
processes (or the ``REPRO_WORKERS`` environment variable; serial by
default), and each group runs its selections on chains it built.

Collapse chains, multi-cut searches and the selection strategies
additionally accept a duck-typed ``cache=`` memo
(``repro.explore.SearchCache``): hits skip the exponential searches
with bit-identical results, which is what makes whole design-space
sweeps (``repro sweep``) an order of magnitude cheaper than one CLI
invocation per grid point (DESIGN.md §8).
"""

from .cut import Constraints, Cut, cut_is_feasible, evaluate_cut
from .engine import run_multi_cut, run_single_cut
from .parallel import resolve_workers
from .single_cut import (
    SearchLimits,
    SearchResult,
    SearchStats,
    enumerate_feasible_cuts,
    find_best_cut,
    search_statistics,
)
from .multi_cut import MultiCutResult, find_best_cuts
from .selection import SelectionResult, make_result
from .select_area import (
    AreaCandidate,
    enumerate_candidates,
    greedy_select,
    knapsack_select,
    select_area_constrained,
)
from .select_iterative import select_iterative
from .select_optimal import BlockTooLargeError, select_optimal
from .baselines import (
    clubs_of_block,
    maxmiso_cuts,
    maxmiso_partition,
    select_clubbing,
    select_maxmiso,
)

__all__ = [
    "Constraints", "Cut", "evaluate_cut", "cut_is_feasible",
    "find_best_cut", "enumerate_feasible_cuts", "search_statistics",
    "SearchStats", "SearchLimits", "SearchResult",
    "run_single_cut", "run_multi_cut",
    "resolve_workers",
    "find_best_cuts", "MultiCutResult",
    "SelectionResult", "make_result",
    "select_iterative", "select_optimal", "BlockTooLargeError",
    "select_area_constrained", "AreaCandidate", "enumerate_candidates",
    "knapsack_select", "greedy_select",
    "select_clubbing", "clubs_of_block",
    "select_maxmiso", "maxmiso_cuts", "maxmiso_partition",
]
