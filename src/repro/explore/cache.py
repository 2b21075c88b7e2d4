"""Digest-keyed memoisation of identification results.

The exponential per-block searches dominate every sweep; everything on
top of them (selection, reporting) is polynomial.  A sweep that varies
only ``Ninstr``, the algorithm, or the workload mix therefore re-runs
*identical* identification work at every grid point — exactly what this
cache removes.

**Key.**  A cache key is ``(kind, dfg_digest, nin, nout, model_digest,
limits, extra)`` where

* ``dfg_digest`` is a SHA-256 over the *search-relevant structure* of
  the graph: per-node opcodes (member opcodes for collapsed supernodes),
  ``forbidden``/``forced_out`` flags, adjacency, external-input wiring,
  operand sources (which carry the constant shift amounts the cost
  model prices) and the block weight.  Node *labels* and the graph
  *name* are cosmetic and excluded;
* ``nin``/``nout`` come from :class:`~repro.core.cut.Constraints`;
  ``ninstr`` is deliberately **excluded** — a single-cut search does not
  depend on it, which is what lets an Ninstr sweep reuse every search;
* ``model_digest`` hashes the cost tables, not the object identity, so
  workers can rebuild an equal model and still hit;
* ``extra`` carries the per-kind parameter (``num_cuts`` for multi-cut
  searches).

There are two kinds: ``single`` (one :func:`~repro.core.single_cut.
find_best_cut` result) and ``multi`` (one :func:`~repro.core.multi_cut.
find_best_cuts` result).  An area-candidate pool needs no kind of its
own: it is a prefix of the block's collapse chain
(:class:`~repro.core.select_iterative.CollapseChain`), read link by
link through single-cut entries.

**Values** are self-contained picklable payloads: node-index tuples
plus the :class:`~repro.core.engine.SearchStats` counters.  Cuts are
*rebuilt* on lookup with :func:`~repro.core.cut.evaluate_cut`, so a
hit returns exactly what the search would have — the cache can never
change a result, only skip recomputing it.

The cache object itself is the duck-typed ``cache=`` hook accepted by
:func:`~repro.core.single_cut.find_best_cut`,
:func:`~repro.core.multi_cut.find_best_cuts` and the selection
strategies; :mod:`repro.explore.runner` shares one across processes by
warming per-``(block, constraint)`` entries in workers and merging the
returned entries into the parent's store.

**Memory and persistence.**  The cache's dict is the one in-process
memo of search results.  A cache may also be *backed* by a
:class:`repro.store.ArtifactStore`, which is persistence only:
in-memory misses fall through to the store (hits promote into the
dict), puts spill to it, and — because the store's medium is shared
(a directory, an SQLite file or a ``tcp://`` server) — warm workers
and later processes inherit every entry without pickled round-trips.
While the store is down or degraded the dict still serves everything
this process computed.  Keys are already pure content (digests plus
plain numbers), so the in-memory tuple key hashes directly into a
store key.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..core.cut import Constraints, evaluate_cut
from ..core.engine import SearchLimits, SearchStats
from ..core.multi_cut import MultiCutResult
from ..core.single_cut import SearchResult
from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from ..store.keys import (
    SEARCH_VERSION,
    dfg_digest,
    limits_key as _limits_key,
    model_digest,
)

__all__ = ["CacheStats", "SearchCache", "dfg_digest", "model_digest"]


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`SearchCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class SearchCache:
    """Process-shared memo of identification results (see module doc).

    The in-memory memo is the plain dict ``store``.  :meth:`entries`/
    :meth:`merge` move entries between caches — the sweep runner's
    workers each fill a local cache and the parent merges what they
    return, which shares the memo across processes without requiring
    OS-level shared memory (a store-less sweep has no other channel
    back from its workers).

    ``backing`` optionally adds persistence (an
    :class:`repro.store.ArtifactStore`): gets fall through to it on an
    in-memory miss and promote on hit, puts spill to it, and presence
    checks consult it — which is how warm-start sessions and sibling
    worker processes share one memo through the store's medium.
    """

    #: Artifact kind of spilled entries in the backing store.
    KIND = "search"

    def __init__(self, backing=None) -> None:
        self.store: dict = {}
        self.backing = backing
        self.stats = CacheStats()
        # Per-model digest memo with an identity guard (recycled id()s
        # must never alias a different model), as in dfg.cost_vectors.
        self._model_digests: Dict[int, Tuple[CostModel, str]] = {}

    # ------------------------------------------------------------------
    def _model_digest(self, model: CostModel) -> str:
        entry = self._model_digests.get(id(model))
        if entry is not None and entry[0] is model:
            return entry[1]
        digest = model_digest(model)
        if len(self._model_digests) >= 8:
            self._model_digests.clear()
        self._model_digests[id(model)] = (model, digest)
        return digest

    def _key(self, kind: str, dfg: DataFlowGraph, constraints: Constraints,
             model: CostModel, limits: Optional[SearchLimits],
             extra: Optional[int] = None) -> Tuple:
        # ninstr is excluded on purpose: identification never depends
        # on the instruction budget.  SEARCH_VERSION retires persisted
        # entries wholesale when engine semantics change.
        return (kind, SEARCH_VERSION, dfg_digest(dfg), constraints.nin,
                constraints.nout, self._model_digest(model),
                _limits_key(limits), extra)

    def _get(self, key: Tuple):
        value = self.store.get(key)
        if value is None and self.backing is not None:
            value = self.backing.get(
                self.KIND, self.backing.key(self.KIND, key))
            if value is not None:
                self.store[key] = value     # promote into memory
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def _put(self, key: Tuple, value) -> None:
        self.store[key] = value
        self.stats.puts += 1
        if self.backing is not None:
            self.backing.put(self.KIND, self.backing.key(self.KIND, key),
                             value)

    # ------------------------------------------------------------------
    # Single-cut searches (find_best_cut).
    # ------------------------------------------------------------------
    def get_single(self, dfg: DataFlowGraph, constraints: Constraints,
                   model: CostModel,
                   limits: Optional[SearchLimits]) -> Optional[SearchResult]:
        """Memoized :func:`find_best_cut` result for this (graph,
        constraint, model, limits) key, or ``None`` on a miss.  Cuts are
        re-hydrated against *dfg*, so the result is bit-identical to a
        cold search."""
        value = self._get(self._key("single", dfg, constraints, model,
                                    limits))
        if value is None:
            return None
        nodes, stats_dict, complete = value
        cut = (evaluate_cut(dfg, frozenset(nodes), model)
               if nodes is not None else None)
        return SearchResult(cut=cut, stats=SearchStats(**stats_dict),
                            complete=complete)

    def put_single(self, dfg: DataFlowGraph, constraints: Constraints,
                   model: CostModel, limits: Optional[SearchLimits],
                   result: SearchResult) -> None:
        """Store a :func:`find_best_cut` result (node set + stats only;
        values re-derive on :meth:`get_single`, keeping entries small
        and picklable)."""
        nodes = (tuple(sorted(result.cut.nodes))
                 if result.cut is not None else None)
        self._put(self._key("single", dfg, constraints, model, limits),
                  (nodes, asdict(result.stats), result.complete))

    # ------------------------------------------------------------------
    # Multi-cut searches (find_best_cuts).
    # ------------------------------------------------------------------
    def get_multi(self, dfg: DataFlowGraph, constraints: Constraints,
                  num_cuts: int, model: CostModel,
                  limits: Optional[SearchLimits]) -> Optional[MultiCutResult]:
        """Memoized :func:`find_best_cuts` result for ``num_cuts``
        simultaneous cuts, or ``None`` on a miss."""
        value = self._get(self._key("multi", dfg, constraints, model,
                                    limits, num_cuts))
        if value is None:
            return None
        node_sets, total_merit, stats_dict, complete = value
        cuts = [evaluate_cut(dfg, frozenset(nodes), model)
                for nodes in node_sets]
        return MultiCutResult(cuts=cuts, total_merit=total_merit,
                              stats=SearchStats(**stats_dict),
                              complete=complete)

    def put_multi(self, dfg: DataFlowGraph, constraints: Constraints,
                  num_cuts: int, model: CostModel,
                  limits: Optional[SearchLimits],
                  result: MultiCutResult) -> None:
        """Store a :func:`find_best_cuts` result under its grid key."""
        # Cuts are stored in the result's (merit-sorted) order, so the
        # decoded list is identical without re-sorting.
        node_sets = tuple(tuple(sorted(c.nodes)) for c in result.cuts)
        self._put(self._key("multi", dfg, constraints, model, limits,
                            num_cuts),
                  (node_sets, result.total_merit, asdict(result.stats),
                   result.complete))

    # ------------------------------------------------------------------
    # Presence checks: no decoding, no hit/miss accounting.  Used by
    # the sweep planner to skip warm jobs a pre-warmed cache already
    # covers.
    # ------------------------------------------------------------------
    def _has(self, key: Tuple) -> bool:
        if key in self.store:
            return True
        return (self.backing is not None
                and self.backing.contains(
                    self.KIND, self.backing.key(self.KIND, key)))

    def has_single(self, dfg: DataFlowGraph, constraints: Constraints,
                   model: CostModel,
                   limits: Optional[SearchLimits]) -> bool:
        """Presence check for a single-cut entry (no decode, no stats)."""
        return self._has(self._key("single", dfg, constraints, model,
                                   limits))

    def has_multi(self, dfg: DataFlowGraph, constraints: Constraints,
                  num_cuts: int, model: CostModel,
                  limits: Optional[SearchLimits]) -> bool:
        """Presence check for a multi-cut entry (no decode, no stats)."""
        return self._has(self._key("multi", dfg, constraints, model,
                                   limits, num_cuts))

    # ------------------------------------------------------------------
    # Cross-process sharing.
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[Tuple, object]]:
        """All (key, value) pairs, picklable, for :meth:`merge`."""
        return list(self.store.items())

    def merge(self, entries) -> None:
        """Adopt entries computed elsewhere (first writer wins); spilled
        to the backing store too so merged warm work persists."""
        for key, value in entries:
            if key not in self.store:
                self.store[key] = value
                self.stats.puts += 1
                if self.backing is not None:
                    skey = self.backing.key(self.KIND, key)
                    if not self.backing.contains(self.KIND, skey):
                        self.backing.put(self.KIND, skey, value)

    def __len__(self) -> int:
        return len(self.store)
