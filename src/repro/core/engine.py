"""Bitset branch-and-bound engine — the shared hot path of identification.

Both identification algorithms (single-cut, Fig. 6; multi-cut, Fig. 9)
walk the same decision tree: level ``i`` decides the fate of DFG node
``i``, nodes being numbered in reverse topological order so the output
count and convexity of a growing cut are monotone along 1-branches.  The
seed implementation expressed this as two near-identical recursive
searches with per-edge Python loops; this module replaces both with one
iterative engine whose per-node state lives in Python ints used as
bitsets (see DESIGN.md §5 for the encoding):

* ``member`` — bit ``i`` set iff node ``i`` is in the cut;
* ``reach`` — the paper's R bit ("can reach a cut member") for all
  *decided* nodes at once;
* ``bb`` — the fused "would break convexity" bit: for an excluded node
  it equals R, for an included node it equals the paper's B bit.  A
  *committed* inclusion always has B = 0 (a violating inclusion is
  rejected before any state is touched), so including node ``v`` never
  sets a ``bb`` bit and the convexity check collapses to a single
  ``succ[i] & bb`` test;
* ``prod_union`` — union of the unified producer masks of the members,
  so ``IN(S) = popcount(prod_union & ~member)`` replaces the reference
  counting of the recursive version;
* node ``i`` is an output iff it is forced out or ``succ[i] & member !=
  succ[i]``.

Bits at or above the current tree level are kept at zero (backtracking
masks them off wholesale), so decisions only ever OR bits in — no
per-level clears, and no stale state.

The recursion is converted to an explicit decision stack (no
``sys.setrecursionlimit`` games), and the search budget is a plain loop
condition instead of a control-flow exception.

Beyond the paper's monotone output/convexity pruning, the engine applies
two exact subtree rules to every unbudgeted search (see
:class:`SearchLimits`):

* an **admissible merit upper bound**: at level ``i`` no extension can
  add more software mass than the summed software latency of the
  undecided, non-forbidden nodes ``i..n-1``, while the hardware cycle
  count can only grow — so when
  ``weight * (sw_sum + suffix_sw[i] - ceil_cycles(cp_max)) <= best_merit``
  the subtree is pruned;
* **permanent inputs** (Pozzi, Atasu & Ienne, IEEE TCAD 25(7), 2006):
  an input of the cut whose producer is block-external, a supernode
  value, forbidden, or already excluded can never be absorbed by a later
  inclusion, so at level ``i`` the popcount of
  ``prod_union & ~(member | open_[i])`` (``open_[i]`` = non-forbidden
  nodes ``i..n-1``) is a lower bound on the inputs of every cut below;
  once it exceeds Nin the subtree is pruned.

Neither rule removes a cut that could become the incumbent (ties never
replace it), so the best cut and its tie-break are those of the paper's
walk.  The removed subtrees are counted in ``SearchStats.ub_pruned`` and
``SearchStats.nin_pruned``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from .cut import Constraints


@dataclass
class SearchStats:
    """Counters describing one identification run (cf. Figs. 7 and 8)."""

    graph_nodes: int = 0
    cuts_considered: int = 0   # 1-branch tree nodes examined (after
    #   pruning: the paper's count only under a budget)
    cuts_feasible: int = 0     # passed output-port AND convexity checks
    cuts_infeasible: int = 0   # failed a monotone check (subtree pruned)
    best_updates: int = 0
    ub_pruned: int = 0         # subtrees cut by the merit upper bound
    nin_pruned: int = 0        # subtrees cut by permanent inputs > Nin
    space_covered: float = 0.0  # fraction of the 2^n node assignments
    #   decided when the search stopped: 1.0 on complete runs, the mass
    #   left of the DFS frontier on budget-stopped ones (single-cut
    #   engine only)

    @property
    def cuts_eliminated(self) -> int:
        """Cuts never examined thanks to pruning (out of 2^n - 1)."""
        total = (1 << self.graph_nodes) - 1
        return total - self.cuts_considered


@dataclass(frozen=True)
class SearchLimits:
    """Optional budget for the exponential search.

    ``max_considered`` bounds the number of cuts examined; when exhausted
    the search stops early and the result is flagged incomplete.

    Unbudgeted single-cut searches prune with two exact rules (the merit
    upper bound and permanent inputs, see the module doc): same best
    cut, far fewer cuts examined.  Budgeted searches and enumerations
    walk exactly the paper's Fig. 6 tree, so a budget reaches the same
    cuts as the paper's algorithm; a budget that cannot be reached
    (``2 ** dfg.n``) gives the paper's complete-walk statistics.
    """

    max_considered: Optional[int] = None


def ceil_cycles(critical_path: float) -> int:
    """Cycles of a *nonempty* cut: at least one (the issue slot), else the
    ceiling of the critical path."""
    if critical_path <= 0.0:
        return 1
    return max(1, math.ceil(critical_path - 1e-9))


# ----------------------------------------------------------------------
# Single-cut search (Fig. 6).
# ----------------------------------------------------------------------
def run_single_cut(
    dfg: DataFlowGraph,
    constraints: Constraints,
    model: CostModel,
    limits: Optional[SearchLimits] = None,
    on_feasible: Optional[Callable[[Tuple[int, ...], float], None]] = None,
) -> Tuple[Optional[Tuple[int, ...]], float, SearchStats, bool]:
    """Exact best-cut search; returns ``(best_nodes, best_merit, stats,
    complete)``.

    Visits tree nodes in the order of the recursive reference (include
    branch first), so tie-breaks are identical; under a budget (no
    pruning, see :class:`SearchLimits`) the statistics are identical too.
    ``on_feasible`` is invoked for every feasible cut within the input
    constraint, with the member tuple (ascending) and its merit.
    """
    n = dfg.n
    stats = SearchStats(graph_nodes=n)
    if n == 0:
        stats.space_covered = 1.0
        return None, 0.0, stats, True

    masks = dfg.masks
    succ_mask = masks.succ
    producer_mask = masks.producer
    forced_out = masks.forced_out
    forbidden = masks.forbidden
    sw, hw = dfg.cost_vectors(model)

    # Remaining software-latency mass of nodes i..n-1 (forbidden nodes
    # already cost 0.0 in the cached vector).
    suffix_sw = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_sw[j] = sw[j] + suffix_sw[j + 1]
    lowmask = [(1 << j) - 1 for j in range(n)]
    # Nodes i..n-1 that may still join a cut: every other producer bit
    # outside the cut is a permanent input (see module doc).
    selectable = masks.all_nodes & ~forbidden
    open_ = [selectable & ~lm for lm in lowmask]
    ceil_ = math.ceil

    weight = dfg.weight
    nin = constraints.nin
    nout = constraints.nout
    if limits is None or limits.max_considered is None:
        limit: float = math.inf
    else:
        limit = limits.max_considered
    has_cb = on_feasible is not None
    # Pruning changes which cuts a budget reaches and skips cuts an
    # enumeration must see, so those searches walk the paper's tree.
    prune = limit == math.inf and not has_cb
    # When Nin can never be exceeded the popcount test is dead weight.
    union_all = 0
    for pm in producer_mask:
        union_all |= pm
    check_nin = nin < union_all.bit_count()

    # Merit bookkeeping happens in "rel" space (sw_sum - cycles); the
    # block weight is a positive constant factor, multiplied back in only
    # for reporting.  All quantities are integer-valued floats, so the
    # comparisons are exact.
    member = 0          # bit i: node i is in the cut
    reach = 0           # R bits of decided nodes
    bb = 0              # fused convexity-violation bits (see module doc)
    prod_union = 0      # union of producer masks of members
    out_count = 0
    sw_sum = 0.0
    cp_max = 0.0
    cycles = 1          # ceil_cycles(cp_max), maintained incrementally
    cpl = [0.0] * n     # critical path from node to cut sinks, members only
    # Decision stack, one slot per live inclusion (parallel arrays are
    # measurably cheaper than tuple frames in this loop).
    st_v = [0] * n      # included node
    st_u = [0] * n      # previous prod_union
    st_cp = [0.0] * n   # previous cp_max
    st_cy = [1] * n     # previous cycles
    st_o = [0] * n      # did the node enter as an output
    sp = 0

    best_rel = math.inf if weight <= 0.0 else 0.0
    best_nodes: Optional[Tuple[int, ...]] = None

    considered = 0
    feasible = 0
    best_updates = 0
    ub_pruned = 0
    nin_pruned = 0
    complete = True

    i = 0
    while True:
        dead = i == n
        if prune and not dead:
            if sw_sum + suffix_sw[i] - cycles <= best_rel:
                ub_pruned += 1
                dead = True
            elif check_nin and (
                    prod_union & ~(member | open_[i])).bit_count() > nin:
                nin_pruned += 1
                dead = True
        if dead:
            # Backtrack to the deepest live inclusion.
            if not sp:
                break
            sp -= 1
            v = st_v[sp]
            prod_union = st_u[sp]
            cp_max = st_cp[sp]
            cycles = st_cy[sp]
            out_count -= st_o[sp]
            bit = 1 << v
            member ^= bit
            sw_sum -= sw[v]
            lm = lowmask[v]
            reach &= lm         # wholesale-clear bits at/above v
            bb &= lm
            sm = succ_mask[v]
            if sm & reach:      # exclude decision for v
                reach |= bit
                bb |= bit
            i = v + 1
            continue

        bit = 1 << i
        sm = succ_mask[i]
        if forbidden & bit:
            if sm & reach:
                reach |= bit
                bb |= bit
            i += 1
            continue
        considered += 1
        if considered > limit:
            complete = False
            break
        if sm & bb:
            # Convexity violated; bb implies reach, so the exclude
            # decision is unconditional.  Nothing was committed.
            reach |= bit
            bb |= bit
            i += 1
            continue
        sm_m = sm & member
        is_out = 1 if (sm_m != sm or forced_out & bit) else 0
        if out_count + is_out > nout:
            if sm & reach:
                reach |= bit
                bb |= bit
            i += 1
            continue
        # Both monotone checks hold: commit the inclusion.
        feasible += 1
        st_v[sp] = i
        st_u[sp] = prod_union
        st_cp[sp] = cp_max
        st_cy[sp] = cycles
        st_o[sp] = is_out
        sp += 1
        member |= bit
        reach |= bit
        out_count += is_out
        prod_union |= producer_mask[i]
        sw_sum += sw[i]
        # Hardware critical path through included successors.
        if sm_m:
            best_succ = 0.0
            rest = sm_m
            while rest:
                low = rest & -rest
                c = cpl[low.bit_length() - 1]
                if c > best_succ:
                    best_succ = c
                rest ^= low
            cp = hw[i] + best_succ
        else:
            cp = hw[i]
        cpl[i] = cp
        if cp > cp_max:
            cp_max = cp
            c2 = ceil_(cp - 1e-9)
            cycles = c2 if c2 > 1 else 1
        # Candidate incumbent (the input count is not monotone: it
        # filters here, and only its permanent part prunes).
        if not check_nin or (prod_union & ~member).bit_count() <= nin:
            rel = sw_sum - cycles
            if has_cb:
                on_feasible(tuple(st_v[:sp]), weight * rel)
            if rel > best_rel:
                best_rel = rel
                best_nodes = tuple(st_v[:sp])
                best_updates += 1
        i += 1

    # Deferred accounting: every considered node was either committed or
    # rejected (except one aborted by the budget), and the decided mass
    # is everything left of the DFS frontier.
    if complete:
        stats.cuts_infeasible = considered - feasible
        stats.space_covered = 1.0
    else:
        stats.cuts_infeasible = considered - feasible - 1
        covered = 0.0
        for level in range(i):
            if not member >> level & 1:
                covered += 2.0 ** -(level + 1)
        stats.space_covered = covered
    stats.cuts_considered = considered
    stats.cuts_feasible = feasible
    stats.best_updates = best_updates
    stats.ub_pruned = ub_pruned
    stats.nin_pruned = nin_pruned
    best_merit = 0.0 if best_nodes is None else weight * best_rel
    return best_nodes, best_merit, stats, complete


# ----------------------------------------------------------------------
# Multi-cut search (Fig. 9): M disjoint cuts, (M+1)-ary decision tree.
# ----------------------------------------------------------------------
def run_multi_cut(
    dfg: DataFlowGraph,
    constraints: Constraints,
    num_cuts: int,
    model: CostModel,
    limits: Optional[SearchLimits] = None,
) -> Tuple[Optional[List[Tuple[int, ...]]], float, SearchStats, bool]:
    """Exact search for up to *num_cuts* disjoint cuts maximising total
    merit; returns ``(best_sets, best_total, stats, complete)``.

    Cut labels are canonicalised exactly as in the recursive reference: a
    node may open cut ``k`` only when cuts ``0..k-1`` are already
    nonempty, which removes the factorial label symmetry.
    """
    if num_cuts < 1:
        raise ValueError("num_cuts must be >= 1")
    limits = limits or SearchLimits()
    n = dfg.n
    m = num_cuts
    stats = SearchStats(graph_nodes=n)
    if n == 0:
        stats.space_covered = 1.0
        return None, 0.0, stats, True

    masks = dfg.masks
    succ_mask = masks.succ
    producer_mask = masks.producer
    forced_out = masks.forced_out
    forbidden = masks.forbidden
    sw, hw = dfg.cost_vectors(model)

    weight = dfg.weight
    nin = constraints.nin
    nout = constraints.nout
    limit = limits.max_considered

    # Per-cut state, in parallel lists indexed by the cut label.
    member = [0] * m
    reach = [0] * m
    bad = [0] * m
    prod_union = [0] * m
    out_count = [0] * m
    sw_sum = [0.0] * m
    cp_max = [0.0] * m
    cpl = [[0.0] * n for _ in range(m)]
    open_cuts = 0

    # Frames of live inclusions: (v, k, opened, prev prod_union,
    # prev cp_max, whether v entered cut k as an output).
    frames: List[Tuple[int, int, int, int, float, int]] = []

    best_total = 0.0
    best_sets: Optional[List[Tuple[int, ...]]] = None

    considered = 0
    feasible = 0
    infeasible = 0
    best_updates = 0
    complete = True

    i = 0
    k = 0       # next cut label to try at level i
    while True:
        if i == n:
            if not frames:
                break
            v, kk, opened, prod_union[kk], cp_max[kk], was_out = \
                frames.pop()
            member[kk] ^= 1 << v
            sw_sum[kk] -= sw[v]
            out_count[kk] -= was_out
            open_cuts -= opened
            i, k = v, kk + 1
            continue

        bit = 1 << i
        if forbidden & bit:
            k = m       # no include branches for forbidden nodes
        max_k = min(m, open_cuts + 1)
        if k < max_k:
            considered += 1
            if limit is not None and considered > limit:
                complete = False
                break
            sm = succ_mask[i]
            mem_k = member[k]
            violation = sm & (bad[k] | (reach[k] & ~mem_k))
            is_out = 1 if (forced_out & bit or sm & ~mem_k) else 0
            if violation or out_count[k] + is_out > nout:
                infeasible += 1
                k += 1
                continue
            feasible += 1
            opened = 1 if mem_k == 0 else 0
            frames.append((i, k, opened, prod_union[k], cp_max[k], is_out))
            member[k] = mem_k | bit
            reach[k] |= bit
            bad[k] &= ~bit
            out_count[k] += is_out
            prod_union[k] |= producer_mask[i]
            sw_sum[k] += sw[i]
            best_succ = 0.0
            cpl_k = cpl[k]
            rest = sm & mem_k
            while rest:
                low = rest & -rest
                c = cpl_k[low.bit_length() - 1]
                if c > best_succ:
                    best_succ = c
                rest ^= low
            cp = hw[i] + best_succ
            cpl_k[i] = cp
            if cp > cp_max[k]:
                cp_max[k] = cp
            open_cuts += opened
            # The other cuts see node i as excluded.
            for other in range(m):
                if other == k:
                    continue
                smo = succ_mask[i]
                reach[other] = (reach[other] | bit if smo & reach[other]
                                else reach[other] & ~bit)
                bad[other] = (
                    bad[other] | bit
                    if smo & (bad[other]
                              | (reach[other] & ~member[other]))
                    else bad[other] & ~bit)
            # Candidate incumbent: every nonempty cut must satisfy the
            # input constraint before the total is even considered.
            total = 0.0
            for c in range(m):
                mc = member[c]
                if not mc:
                    continue
                if (prod_union[c] & ~mc).bit_count() > nin:
                    break
                cpc = cp_max[c]
                total += weight * (
                    sw_sum[c] - (1 if cpc <= 0.0
                                 else max(1, math.ceil(cpc - 1e-9))))
            else:
                if total > best_total:
                    best_total = total
                    best_sets = [_bits_to_tuple(member[c])
                                 for c in range(m)]
                    best_updates += 1
            i, k = i + 1, 0
            continue

        # All include branches tried (or node forbidden): node i stays in
        # software for every cut.
        for c in range(m):
            sm = succ_mask[i]
            reach[c] = reach[c] | bit if sm & reach[c] else reach[c] & ~bit
            bad[c] = (bad[c] | bit
                      if sm & (bad[c] | (reach[c] & ~member[c]))
                      else bad[c] & ~bit)
        i, k = i + 1, 0

    stats.cuts_considered = considered
    stats.cuts_feasible = feasible
    stats.cuts_infeasible = infeasible
    stats.best_updates = best_updates
    # The (M+1)-ary tree has no per-subtree mass accounting; report only
    # the complete/incomplete extremes of the coverage statistic.
    stats.space_covered = 1.0 if complete else 0.0
    return best_sets, best_total, stats, complete


def _bits_to_tuple(mask: int) -> Tuple[int, ...]:
    """Set bits of *mask*, ascending — the include order of the search."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
