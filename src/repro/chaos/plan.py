"""Deterministic, seeded fault plans: the chaos fabric's schedule.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec`
records plus a seed.  Injection sites (the store medium wrapper, the
wire-protocol hook, the cluster unit executor) ask the plan what to
inject before each operation via :meth:`FaultPlan.draw`; the plan
answers from a per-site operation counter and a per-site seeded RNG,
so the same plan over the same per-site operation sequence injects the
same faults — a chaos run is replayable from ``(seed, specs)`` alone.

Two scheduling styles compose freely:

* **probabilistic** — ``FaultSpec(probability=0.05)`` flips a seeded
  coin per eligible operation (transient flakiness);
* **windowed** — ``after``/``until`` bound the site's operation index
  and ``probability=1.0`` makes the window a deterministic outage;
  ``limit`` caps total injections from one spec (e.g. "exactly one
  connection reset").

Plans serialise to JSON and travel to forked cluster workers through
the ``REPRO_CHAOS_PLAN`` environment variable (:func:`env_plan` /
:func:`plan_from_env`) — the same trick the store uses with its spec
strings, so the injection layer needs no wire-protocol changes.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CHAOS_PLAN_ENV", "ChaosInjectedError", "FaultSpec", "FaultPlan",
    "env_plan", "plan_from_env",
]

#: Environment variable carrying a JSON-serialised plan to worker
#: processes (set by :func:`env_plan`, read by :func:`plan_from_env`).
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"


class ChaosInjectedError(RuntimeError):
    """A fault the plan injected on purpose (never a real failure)."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where, what, when and how often.

    Sites and kinds the fabric understands:

    * ``site="store"`` (:class:`~repro.chaos.backend.FaultyBackend`;
      ops are backend operation names like ``load``/``store``):
      ``error`` raises ``BackendError``, ``unavailable`` raises
      ``StoreUnavailable``, ``delay`` sleeps ``delay_s``, ``corrupt``
      bit-flips the blob a ``load`` returns;
    * ``site="wire"`` (:func:`~repro.chaos.wirefault.wire_faults`; ops
      are ``send``/``recv``): ``reset`` closes the socket and raises,
      ``truncate`` ships half a frame then resets (send only),
      ``stall`` sleeps ``delay_s`` before the frame moves;
    * ``site="unit"`` (cluster unit execution; ops are unit indexes as
      strings): ``poison`` raises :class:`ChaosInjectedError` from the
      unit body, ``stall``/``delay`` sleep ``delay_s`` in the unit,
      ``kill`` hard-exits the worker *process* mid-unit (skipped
      outside a forked worker, so a kill schedule can never take down
      the leader or a test thread).
    """

    site: str
    kind: str
    probability: float = 1.0
    ops: Tuple[str, ...] = ()
    after: int = 0
    until: Optional[int] = None
    limit: Optional[int] = None
    delay_s: float = 0.0

    def as_dict(self) -> dict:
        """Flat JSON-ready record (``ops`` as a list)."""
        record = asdict(self)
        record["ops"] = list(self.ops)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "FaultSpec":
        """Inverse of :meth:`as_dict`."""
        record = dict(record)
        record["ops"] = tuple(record.get("ops", ()))
        return cls(**record)


@dataclass
class _SiteState:
    """Per-site mutable draw state (operation counter + RNG)."""

    rng: Random
    count: int = 0
    fired: Dict[int, int] = field(default_factory=dict)
    #: ``(index, event)``: set once the site draws for op *index*.
    marks: List[Tuple[int, threading.Event]] = field(default_factory=list)


class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` records (module doc).

    Thread-safe: concurrent draws from handler threads serialise on
    one lock, so each site sees one deterministic operation sequence.
    Not picklable on purpose — cross-process transport is the JSON/
    environment path, which resets the counters (each process replays
    its own deterministic sequence).
    """

    def __init__(self, seed: int = 0,
                 specs: Tuple[FaultSpec, ...] = ()) -> None:
        """Freeze *specs* under *seed*; draw state starts at zero."""
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._sites: Dict[str, _SiteState] = {}

    # ------------------------------------------------------------------
    def _site(self, site: str) -> _SiteState:
        state = self._sites.get(site)
        if state is None:
            # crc32 keeps the per-site stream stable across processes
            # (builtin hash() is salted per interpreter).
            seed = zlib.crc32(f"{self.seed}:{site}".encode())
            state = _SiteState(rng=Random(seed))
            self._sites[site] = state
        return state

    def draw(self, site: str, op: str) -> List[FaultSpec]:
        """The faults to inject for this *site* operation, in spec
        order.  Advances the site's operation counter and consumes one
        seeded uniform per eligible probabilistic spec — so a plan's
        decisions depend only on the per-site operation sequence."""
        with self._lock:
            state = self._site(site)
            index = state.count
            state.count += 1
            for at, event in state.marks:
                if index >= at:
                    event.set()
            hits: List[FaultSpec] = []
            for k, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.ops and op not in spec.ops:
                    continue
                if index < spec.after:
                    continue
                if spec.until is not None and index >= spec.until:
                    continue
                if (spec.limit is not None
                        and state.fired.get(k, 0) >= spec.limit):
                    continue
                if spec.probability < 1.0 \
                        and state.rng.random() >= spec.probability:
                    continue
                state.fired[k] = state.fired.get(k, 0) + 1
                hits.append(spec)
            return hits

    def mark(self, site: str, index: int) -> threading.Event:
        """An event set when *site* draws for its operation *index*
        (0-based) — so a harness can act at a fixed point of the
        site's deterministic operation sequence instead of at a
        wall-clock time that a fast or slow run may miss."""
        event = threading.Event()
        with self._lock:
            state = self._site(site)
            if state.count > index:
                event.set()
            else:
                state.marks.append((index, event))
        return event

    def check_unit(self, index: int, allow_kill: bool = False) -> None:
        """Unit-site injection hook for the cluster fabric.

        Raises :class:`ChaosInjectedError` for a ``poison`` spec;
        ``stall``/``delay`` sleep ``delay_s`` (exercising the leader's
        unit deadline); a ``kill`` spec hard-exits the process when
        *allow_kill* is true (forked cluster workers) and is *skipped*
        otherwise — threads and the leader's inline fallback must
        survive a kill schedule, which is exactly what makes a killed
        unit cost a requeue instead of a lost row."""
        for spec in self.draw("unit", str(index)):
            if spec.kind == "kill":
                if allow_kill:
                    os._exit(3)
                continue
            if spec.kind in ("stall", "delay"):
                time.sleep(spec.delay_s)
                continue
            raise ChaosInjectedError(
                f"chaos: injected {spec.kind} for unit {index}")

    def injected(self, site: Optional[str] = None) -> int:
        """Total faults injected so far (optionally for one site)."""
        with self._lock:
            return sum(sum(state.fired.values())
                       for name, state in self._sites.items()
                       if site is None or name == site)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Compact JSON form (seed + specs; no draw state)."""
        return json.dumps({
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output (fresh state)."""
        record = json.loads(text)
        return cls(seed=record.get("seed", 0),
                   specs=tuple(FaultSpec.from_dict(s)
                               for s in record.get("specs", ())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan seed={self.seed} specs={len(self.specs)}>"


def plan_from_env() -> Optional[FaultPlan]:
    """The plan ``$REPRO_CHAOS_PLAN`` carries, or ``None``.

    An unparsable value is ignored with a fresh empty result rather
    than crashing a worker — chaos must never be the thing that takes
    the fabric down."""
    text = os.environ.get(CHAOS_PLAN_ENV, "").strip()
    if not text:
        return None
    try:
        return FaultPlan.from_json(text)
    except (ValueError, TypeError):
        return None


@contextmanager
def env_plan(plan: Optional[FaultPlan]):
    """Publish *plan* through the environment for the scope of the
    ``with`` block (workers forked inside inherit it); restores the
    previous value on exit.  ``plan=None`` clears the variable."""
    previous = os.environ.get(CHAOS_PLAN_ENV)
    if plan is None:
        os.environ.pop(CHAOS_PLAN_ENV, None)
    else:
        os.environ[CHAOS_PLAN_ENV] = plan.to_json()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(CHAOS_PLAN_ENV, None)
        else:
            os.environ[CHAOS_PLAN_ENV] = previous
