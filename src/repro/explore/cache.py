"""Digest-keyed memoisation of identification results.

The exponential per-block searches dominate every sweep; everything on
top of them (selection, reporting) is polynomial.  A sweep that varies
only ``Ninstr``, the algorithm, or the workload mix therefore re-runs
*identical* identification work at every grid point — exactly what this
cache removes.

**Key.**  A cache key is ``(kind, SEARCH_VERSION, dfg_digest, nin,
nout, model_digest, limits, extra)``; bumping ``SEARCH_VERSION`` retires
persisted entries wholesale when engine semantics change.  Here

* ``dfg_digest`` is a SHA-256 over the *search-relevant structure* of
  the graph: per-node opcodes (member opcodes for collapsed supernodes),
  ``forbidden``/``forced_out`` flags, adjacency, external-input wiring,
  operand sources (which carry the constant shift amounts the cost
  model prices) and the block weight.  Node *labels* and the graph
  *name* are cosmetic and excluded;
* ``nin``/``nout`` come from :class:`~repro.core.cut.Constraints`;
  ``ninstr`` is deliberately **excluded** — no search depends on it,
  which is what lets an Ninstr sweep reuse every search;
* ``model_digest`` hashes the cost tables, not the object identity, so
  workers can rebuild an equal model and still hit;
* ``extra`` carries the per-kind parameter (``num_cuts`` for multi-cut
  searches).

There are two kinds, one per search family:

* ``chain`` — one block's find-best/collapse chain
  (:class:`~repro.core.select_iterative.CollapseChain`), keyed by the
  digest of the *root* block.  Its value holds one ``(nodes | None,
  asdict(stats), complete)`` per link walked so far; a deeper walk
  puts a longer value under the same key.  Iterative selection, area
  candidate pools and ``Session.identify`` (link 0) all read it;
* ``multi`` — one :func:`~repro.core.multi_cut.find_best_cuts` result.

**Values** are self-contained picklable payloads: node-index tuples
plus the :class:`~repro.core.engine.SearchStats` counters, floats
stored as they are.  The cache never decodes them: the search that
wrote an entry reads it back, rebuilding its cuts with
:func:`~repro.core.cut.evaluate_cut` (a chain first re-collapses its
graphs), so a hit returns exactly what the search would have — the
cache can never change a result, only skip recomputing it.

The cache object itself is the duck-typed ``cache=`` hook (``key``/
``get``/``put``) accepted by
:class:`~repro.core.select_iterative.CollapseChain`,
:func:`~repro.core.multi_cut.find_best_cuts` and the selection
strategies; :mod:`repro.explore.runner` shares one across processes:
each evaluation group runs on a local cache seeded with the entries the
leader read for it (:meth:`SearchCache.peek`), and the entries that
grew there merge back into the leader's cache — and through it into
the leader's store, the only writer of search results.

**Memory and persistence.**  The cache's dict is the one in-process
memo of search results; for one key it keeps the longest value it was
given.  A cache may also be *backed* by a
:class:`repro.store.ArtifactStore`, which is persistence only:
in-memory misses fall through to the store (hits promote into the
dict), puts and merged entries that grew spill to it, and later
processes — on any node, through an SQLite file or a ``tcp://``
server — inherit every entry.  While the store is down
or degraded the dict still serves everything this process computed.
Keys are already pure content (digests plus plain numbers), so the
in-memory tuple key hashes directly into a store key.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..core.cut import Constraints
from ..core.engine import SearchLimits
from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph, per_model
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
    """Process-shared memo of identification results (module doc):
    the dict ``store``, optionally backed by the artifact store
    ``backing``.
    :meth:`entries`/:meth:`merge` carry entries from a worker's local
    cache back to the leader's."""

    #: Artifact kind of spilled entries in the backing store.
    KIND = "search"

    def __init__(self, backing=None) -> None:
        self.store: dict = {}
        self.backing = backing
        self.stats = CacheStats()
        self._model_digests: Dict[int, Tuple[CostModel, str]] = {}

    # ------------------------------------------------------------------
    def key(self, kind: str, dfg: DataFlowGraph, constraints: Constraints,
            model: CostModel, limits: Optional[SearchLimits],
            extra: Optional[int] = None) -> Tuple:
        """The key of one ``"chain"`` (rooted at *dfg*) or ``"multi"``
        search; *extra* is a multi search's ``num_cuts``."""
        return (kind, SEARCH_VERSION, dfg_digest(dfg), constraints.nin,
                constraints.nout,
                per_model(self._model_digests, model,
                          lambda: model_digest(model)),
                _limits_key(limits), extra)

    def peek(self, key: Tuple):
        """:meth:`get` without hit/miss accounting (the sweep planner's
        read: a unit that runs on the value counts the hit)."""
        value = self.store.get(key)
        if value is None and self.backing is not None:
            value = self.backing.get(
                self.KIND, self.backing.key(self.KIND, key))
            if value is not None:
                self.store[key] = value     # promote into memory
        return value

    def get(self, key: Tuple):
        """The value under *key*, read through the backing store, or
        ``None``; counted as a hit or a miss."""
        value = self.peek(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: Tuple, value) -> None:
        """Hold *value* under *key* unless a value at least as long is
        held already: chain values under one key are prefixes of one
        deterministic sequence, and multi values under one key are
        equal.  Only an entry that grew here is written through."""
        held = self.store.get(key)
        if held is not None and len(held) >= len(value):
            return
        self.store[key] = value
        self.stats.puts += 1
        if self.backing is not None:
            self.backing.put(self.KIND, self.backing.key(self.KIND, key),
                             value)

    # ------------------------------------------------------------------
    # Cross-process sharing.
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[Tuple, object]]:
        """All (key, value) pairs, picklable, for :meth:`merge`."""
        return list(self.store.items())

    def merge(self, entries) -> None:
        """Adopt entries computed elsewhere: a key's longer value wins,
        and only entries that grew here spill to the backing store."""
        for key, value in entries:
            self.put(key, value)

    def __len__(self) -> int:
        return len(self.store)
