"""Content-addressed key derivation shared by every caching layer.

A cache key must identify everything that could change a result and
nothing that could not: two runs that would compute the same artifact
must derive the same key (or the store is useless), and two runs that
would not must derive different keys (or the store is wrong).  This
module is the single place those rules live:

* :func:`dfg_digest` — SHA-256 over the *search-relevant structure* of a
  dataflow graph (opcodes, flags, adjacency, operand sources, weight;
  names and collapse labels are cosmetic and excluded).  The digest is
  memoised on the graph object together with a cheap mutation
  fingerprint — a graph whose node flags or weight changed after the
  digest was taken is re-digested instead of silently reusing the stale
  key (see :func:`_dfg_fingerprint`);
* :func:`model_digest` — SHA-256 of a cost model's tables, not its
  object identity, so an equal model rebuilt in a worker process still
  hits;
* :func:`limits_key` — the canonical tuple of a ``SearchLimits``;
* :func:`workload_key` — everything :func:`repro.pipeline.
  prepare_application` depends on: the MiniC source, the entry point,
  the profiling size and the pass configuration, plus
  :data:`PIPELINE_VERSION` so pipeline-semantics changes invalidate old
  compiled artifacts instead of replaying them;
* :func:`canonical_digest` — the generic SHA-256 over a canonical
  (repr-stable) tuple that all of the above reduce to.

Digest inputs are versioned (``dfg-v2``, ``model-v1``, ``app-v2``):
bumping a version string retires every artifact derived under the old
semantics at once.
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Optional, Tuple

#: Bump when compile/profile semantics change in a way that should
#: invalidate persisted :class:`~repro.pipeline.Application` artifacts.
PIPELINE_VERSION = 1

#: Bump when search/engine semantics change (pruning, feasibility,
#: tie-breaking, result encoding): persisted ``search`` artifacts from
#: the old engine must read as misses, not replay stale cut sets.
SEARCH_VERSION = 3

_DIGEST_ATTR = "_explore_digest"


def canonical_digest(*parts) -> str:
    """SHA-256 hex digest of the canonical tuple *parts*.

    Parts must have deterministic ``repr`` (strings, numbers, bools,
    ``None`` and nested tuples of those) — the property every caller in
    this module guarantees by construction.
    """
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _dfg_fingerprint(dfg) -> Tuple:
    """Cheap summary of the mutable surface of a DFG.

    A DataFlowGraph is immutable by convention, but its node flags
    (``forbidden``/``forced_out``) and ``weight`` are plain attributes —
    the realistic mutate-after-digest hazards.  Recomputing this
    fingerprint is O(n) with tiny constants, so the memoised digest can
    be validated on every use.
    """
    return (dfg.weight,
            tuple((node.forbidden, node.forced_out) for node in dfg.nodes))


def dfg_digest(dfg) -> str:
    """SHA-256 of the search-relevant structure of *dfg*.

    Memoised on the graph object, guarded by a mutation fingerprint:
    if the graph's flags or weight changed since the digest was taken,
    the stale digest is discarded and recomputed instead of returning a
    key that no longer describes the graph.
    """
    cached = getattr(dfg, _DIGEST_ATTR, None)
    fingerprint = _dfg_fingerprint(dfg)
    if cached is not None and cached[1] == fingerprint:
        return cached[0]
    nodes = []
    for node in dfg.nodes:
        if node.opcode is None:     # collapsed supernode
            op = ("super",) + tuple(i.opcode.value for i in node.insns)
        else:
            op = node.opcode.value
        nodes.append((op, node.forbidden, node.forced_out))
    digest = canonical_digest(
        "dfg-v2",
        dfg.weight,
        tuple(nodes),
        tuple(tuple(row) for row in dfg.succs),
        tuple(tuple(row) for row in dfg.node_inputs),
        tuple(tuple(src) for src in dfg.operand_sources),
    )
    setattr(dfg, _DIGEST_ATTR, (digest, fingerprint))
    return digest


def model_digest(model) -> str:
    """SHA-256 of the cost tables (content, not object identity)."""
    return canonical_digest(
        "model-v1",
        tuple(sorted((op.value, v) for op, v in model.sw_latency.items())),
        tuple(sorted((op.value, v) for op, v in model.hw_delay.items())),
        tuple(sorted((op.value, v) for op, v in model.area.items())),
        model.const_shift_free,
    )


def limits_key(limits) -> Tuple:
    """Canonical tuple of a ``SearchLimits`` (``None`` = unbounded)."""
    if limits is None:
        return (None,)
    return (limits.max_considered,)


def callable_fingerprint(fn) -> Tuple:
    """Best-effort content fingerprint of a Python callable.

    Prefers the function's own source text (so editing a workload's
    driver or golden verifier invalidates artifacts derived from it),
    falling back to the compiled bytecode plus constants for callables
    ``inspect`` cannot read.  Helpers the callable merely *calls* are
    not covered — a conservative limitation documented in DESIGN.md
    §10; bump :data:`PIPELINE_VERSION` when shared golden-model helpers
    change semantics.
    """
    try:
        return ("src", inspect.getsource(fn))
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        if code is not None:
            return ("code", code.co_code.hex(), repr(code.co_consts))
        return ("name", getattr(fn, "__module__", ""),
                getattr(fn, "__qualname__", repr(fn)))


def workload_key(
    workload,
    n: Optional[int],
    unroll: Optional[int],
    if_convert: bool,
    verify: bool,
    min_nodes: int,
) -> str:
    """Store key of one compile+profile run (the ``prepare`` artifact).

    Keyed on the workload's *source text* and entry point rather than
    its registry name, so editing a workload's program can never replay
    a stale compiled artifact, while renaming it costs nothing; the
    driver and golden verifier callables are fingerprinted too, so
    changing the input generator or the acceptance check also misses.
    The profiling size resolves the workload's default first — an
    explicit ``n=default_n`` and an omitted ``n`` share the artifact.
    """
    size = n if n is not None else workload.default_n
    return canonical_digest(
        "app-v2",
        PIPELINE_VERSION,
        workload.source,
        workload.entry,
        callable_fingerprint(workload.driver),
        callable_fingerprint(workload.verify),
        size,
        unroll,
        bool(if_convert),
        bool(verify),
        min_nodes,
    )
