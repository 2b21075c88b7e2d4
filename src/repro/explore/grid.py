"""Declarative sweep grids and their expansion into work units.

A :class:`SweepSpec` names the axes of a design-space sweep — workloads,
register-file port budgets, instruction budgets, algorithms, cost
models — plus the shared knobs (profiling size, unroll factor, search
budget, the Optimal node guard, the area budget).  :meth:`SweepSpec.
expand` produces the cartesian grid as :class:`SweepPoint` work units,
one per number the paper's Figs. 8-11 tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from ..core.cut import Constraints
from ..core.engine import SearchLimits
from ..exec.speedup import ALGORITHMS
from ..hwmodel.latency import CostModel, uniform_cost_model
from ..workloads import WORKLOADS


#: Named cost models (factories — each call builds a fresh instance, so
#: workers can rebuild an equal model; the cache keys on content).
MODELS: Dict[str, Callable[[], CostModel]] = {
    "default": CostModel,
    "uniform": uniform_cost_model,
}


def resolve_model(name: str) -> CostModel:
    try:
        return MODELS[name]()
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise ValueError(f"unknown cost model {name!r}; known: {known}")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a (workload, constraint, algorithm, model) cell."""

    workload: str
    nin: int
    nout: int
    ninstr: int
    algorithm: str
    model: str = "default"

    @property
    def constraints(self) -> Constraints:
        return Constraints(nin=self.nin, nout=self.nout, ninstr=self.ninstr)


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid: axes plus shared knobs.

    Attributes:
        workloads: registry names to sweep.
        ports: ``(nin, nout)`` pairs — the paper's Fig. 11 x-axis.
        ninstrs: instruction budgets (Fig. 10 x-axis).
        algorithms: any of ``iterative``/``optimal``/``clubbing``/
            ``maxmiso``/``area``.
        models: named cost models (``default``/``uniform``).
        n: profiling run size shared by all workloads (None = each
            workload's default).
        unroll: optional loop-unroll factor.
        limit: per-identification search budget (``SearchLimits.
            max_considered``).
        max_nodes: the Optimal algorithm's node guard — oversized blocks
            make that grid point report ``n/a``, like the paper's note.
        area_budget: silicon budget (MAC units) for the ``area`` rows.
        max_per_block: candidate-pool depth for ``area`` rows.
        measure: additionally *execute* each grid point's selection
            (rewrite the program and run it through
            :mod:`repro.exec`); rows gain ``measured_speedup`` and
            ``measured_identical`` columns.
    """

    workloads: Tuple[str, ...]
    ports: Tuple[Tuple[int, int], ...]
    ninstrs: Tuple[int, ...] = (16,)
    algorithms: Tuple[str, ...] = ("iterative", "clubbing", "maxmiso")
    models: Tuple[str, ...] = ("default",)
    n: Optional[int] = None
    unroll: Optional[int] = None
    limit: Optional[int] = None
    max_nodes: int = 40
    area_budget: float = 2.0
    max_per_block: int = 32
    measure: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "ports",
                           tuple((int(a), int(b)) for a, b in self.ports))
        object.__setattr__(self, "ninstrs", tuple(self.ninstrs))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "models", tuple(self.models))
        if not (self.workloads and self.ports and self.ninstrs
                and self.algorithms and self.models):
            raise ValueError("every sweep axis needs at least one value")
        for name in self.workloads:
            if name not in WORKLOADS:
                known = ", ".join(sorted(WORKLOADS))
                raise ValueError(f"unknown workload {name!r}; known: {known}")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; known: "
                                 + ", ".join(ALGORITHMS))
        for model in self.models:
            if model not in MODELS:
                raise ValueError(f"unknown cost model {model!r}; known: "
                                 + ", ".join(sorted(MODELS)))
        for nin, nout in self.ports:
            if nin < 1 or nout < 1:
                raise ValueError(f"port pair ({nin}, {nout}) must be "
                                 f"positive")
        for ninstr in self.ninstrs:
            if ninstr < 1:
                raise ValueError(f"ninstr {ninstr} must be positive")

    # ------------------------------------------------------------------
    @property
    def limits(self) -> Optional[SearchLimits]:
        """The spec's ``limit`` as a ``SearchLimits`` (None = unbounded)."""
        if self.limit is None:
            return None
        return SearchLimits(max_considered=self.limit)

    def expand(self) -> List[SweepPoint]:
        """The cartesian grid, in deterministic report order."""
        points: List[SweepPoint] = []
        for model in self.models:
            for workload in self.workloads:
                for nin, nout in self.ports:
                    for ninstr in self.ninstrs:
                        for algorithm in self.algorithms:
                            points.append(SweepPoint(
                                workload=workload, nin=nin, nout=nout,
                                ninstr=ninstr, algorithm=algorithm,
                                model=model))
        return points

    def describe(self) -> str:
        """Axis sizes and total point count, for progress echoes."""
        return (f"{len(self.workloads)} workload(s) x "
                f"{len(self.ports)} port pair(s) x "
                f"{len(self.ninstrs)} ninstr value(s) x "
                f"{len(self.algorithms)} algorithm(s) x "
                f"{len(self.models)} model(s) = "
                f"{len(self.expand())} points")

    def to_dict(self) -> dict:
        """Every field as a flat dict (the JSON artifact's ``spec``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
