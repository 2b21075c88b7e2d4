"""The chaos soak: a store-backed cluster sweep under seeded faults.

:func:`run_chaos` (the ``repro chaos`` verb) is the fabric's
end-to-end robustness oracle.  It runs the same design-space sweep
twice:

1. **Reference** — serial, against a pristine SQLite store: the
   fault-free rows and store key set;
2. **Chaos** — ``--workers N`` workers, with the leader reading and
   writing the same kind of store served over TCP through a
   :class:`~repro.chaos.backend.FaultyBackend`, under a seeded
   :class:`~repro.chaos.plan.FaultPlan` injecting flaky store reads,
   wire resets/truncations, a poison unit and a worker kill — while
   a scheduled server restart (or permanent outage) happens mid-run;

then asserts the core invariant: **every surviving result is
bit-identical to the fault-free run**.  Rows must match exactly
(timing fields stripped), the store key sets must match (skipped when
the server is left down — dropped writes are that profile's point),
and the only quarantined unit must be the poisoned one.  Faults cost
retries and requeues — visible in the report — never correctness.

Server profiles: ``"restart"`` stops the store server once workload
preparation's store traffic is done and brings it back on the same
port (retry/backoff must absorb the outage); ``"down"`` stops it for
good (the store must enter degraded mode and the sweep must still
finish); ``"up"`` leaves it alone (pure injected-fault soak).  The
event fires at a fixed index of the server's store-operation counter
(:data:`PREPARE_OPS`), not at a wall-clock time, and a profile whose
event did not happen during the sweep fails the soak.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, List, Optional, Tuple

from ..explore.grid import SweepSpec
from ..explore.runner import run_sweep
from ..store.artifacts import ArtifactStore
from ..store.net import NetworkBackend, StoreServer
from ..store.sqlite import SQLiteBackend
from .backend import FaultyBackend
from .plan import FaultPlan, FaultSpec, env_plan
from .wirefault import wire_faults

__all__ = ["ChaosReport", "build_plan", "run_chaos"]

#: Store operations workload preparation makes per workload (an
#: ``app`` load that misses, then its store).  The server profile acts
#: (stop, or stop+restart) when the server-side ``store`` site draws
#: for operation ``PREPARE_OPS * len(workloads)`` — the first planning
#: lookup — so planning and merge traffic both follow the event on any
#: grid, however fast the sweep runs.
PREPARE_OPS = 2

#: Outage length of the ``restart`` profile, seconds.  The client
#: retry budget below is sized to outlast it even at minimum jitter.
RESTART_GAP_S = 0.4


@dataclass
class ChaosReport:
    """Everything one chaos soak measured and asserted."""

    seed: int
    workers: int
    server: str
    warm_units: int = 0
    poison_index: Optional[int] = None
    kill_index: Optional[int] = None
    rows: int = 0
    rows_identical: bool = False
    keys_identical: Optional[bool] = None    # None: skipped (down)
    failed_units: List[dict] = field(default_factory=list)
    failed_expected: bool = False
    retries: int = 0
    injected_store: int = 0
    injected_wire: int = 0
    degraded_events: int = 0
    degraded_skips: int = 0
    store_errors: int = 0
    #: What the server profile did during the sweep, in order
    #: (``"stopped"``, ``"revived"``).
    server_events: List[str] = field(default_factory=list)
    reference_s: float = 0.0
    chaos_s: float = 0.0
    ok: bool = False
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Flat JSON-ready record (the ``repro chaos --json`` output)."""
        return asdict(self)


def build_plan(seed: int, warm_units: int, poison: bool = True,
               kill: bool = True, wire: bool = True,
               flaky_store: bool = True,
               ) -> Tuple[FaultPlan, Optional[int], Optional[int]]:
    """The soak's seeded fault schedule for a *warm_units*-unit sweep.

    Returns ``(plan, poison_index, kill_index)``.  The poison and kill
    targets are distinct seeded choices among the units.  Store faults
    are restricted to *read* operations (``load``/``contains``) plus
    harmless delays: a probabilistic *write* fault would drop a key
    with no retry (the server's answer is authoritative) and break the
    key-set identity the soak asserts — write outages are exercised by
    the server-restart window instead, which the retry budget covers.
    """
    rng = Random(seed)
    poison_index: Optional[int] = None
    kill_index: Optional[int] = None
    specs: List[FaultSpec] = []
    if poison and warm_units > 0:
        poison_index = rng.randrange(warm_units)
        specs.append(FaultSpec(site="unit", kind="poison",
                               ops=(str(poison_index),)))
    if kill and warm_units > 1:
        choices = [i for i in range(warm_units) if i != poison_index]
        kill_index = rng.choice(choices)
        specs.append(FaultSpec(site="unit", kind="kill",
                               ops=(str(kill_index),), limit=1))
    if flaky_store:
        specs.append(FaultSpec(site="store", kind="error",
                               probability=0.05,
                               ops=("load", "contains")))
        specs.append(FaultSpec(site="store", kind="delay",
                               probability=0.05, delay_s=0.005,
                               ops=("load", "store", "contains")))
        specs.append(FaultSpec(site="store", kind="corrupt",
                               probability=0.02, ops=("load",),
                               limit=4))
    if wire:
        specs.append(FaultSpec(site="wire", kind="reset",
                               probability=0.01, limit=2))
        specs.append(FaultSpec(site="wire", kind="truncate",
                               probability=0.01, ops=("send",),
                               limit=1))
        specs.append(FaultSpec(site="wire", kind="stall",
                               probability=0.02, delay_s=0.01,
                               limit=8))
    return FaultPlan(seed=seed, specs=tuple(specs)), poison_index, \
        kill_index


def _strip_rows(rows: List[dict]) -> List[dict]:
    """Rows minus wall-clock fields — the bit-identity comparand."""
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


def _server_saboteur(holder: dict, profile: str, port: int,
                     backend, event, say: Callable[[str], None]) -> None:
    """Thread body: once *event* is set, stop (and for ``restart``
    revive) the store server.  ``holder["server"]`` always names the
    live server (or ``None`` while down) so the caller can shut it
    down afterwards; ``holder["events"]`` records what happened."""
    event.wait()
    server = holder.get("server")
    if server is None or holder.get("stop"):
        return
    say(f"chaos: stopping store server ({profile})")
    server.shutdown()
    holder["server"] = None
    holder["events"].append("stopped")
    if profile != "restart":
        return
    time.sleep(RESTART_GAP_S)
    for _attempt in range(20):
        if holder.get("stop"):
            return
        try:
            revived = StoreServer(backend, host="127.0.0.1",
                                  port=port).start()
        except OSError:
            time.sleep(0.1)       # old socket still in TIME_WAIT
            continue
        holder["server"] = revived
        holder["events"].append("revived")
        say(f"chaos: store server back on port {port}")
        return
    say("chaos: could not rebind the store server (stays down)")


def run_chaos(
    seed: int = 0,
    workers: int = 2,
    workloads: Tuple[str, ...] = ("fir", "crc32"),
    ports: Tuple[Tuple[int, int], ...] = ((2, 1), (2, 2), (4, 1),
                                          (4, 2)),
    ninstrs: Tuple[int, ...] = (2,),
    algorithms: Tuple[str, ...] = ("iterative", "maxmiso"),
    limit: Optional[int] = 100000,
    n: int = 16,
    server: str = "restart",
    poison: bool = True,
    kill: bool = True,
    wire: bool = True,
    flaky_store: bool = True,
    unit_attempts: int = 4,
    unit_deadline: Optional[float] = 60.0,
    cluster_deadline: Optional[float] = 600.0,
    workdir: Optional[os.PathLike] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the seeded chaos soak (module doc); returns the report.

    ``report.ok`` is the soak verdict: rows bit-identical, key sets
    bit-identical (``server != "down"``), exactly the poisoned unit
    quarantined, the profile's server event happened, and — for
    ``server="down"`` — degraded mode entered.
    Never raises on a failed invariant (the report carries the notes);
    raises only on real infrastructure errors.
    """
    say = echo or (lambda _line: None)
    if server not in ("restart", "down", "up"):
        raise ValueError(f"unknown server profile {server!r} "
                         f"(restart/down/up)")
    import tempfile
    base = Path(workdir) if workdir is not None else \
        Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    base.mkdir(parents=True, exist_ok=True)
    spec = SweepSpec(workloads=workloads, ports=ports, ninstrs=ninstrs,
                     algorithms=algorithms, limit=limit, n=n)
    report = ChaosReport(seed=seed, workers=workers, server=server)

    # ---- 1. fault-free serial reference ------------------------------
    say(f"chaos: reference serial sweep ({', '.join(workloads)})")
    start = time.perf_counter()
    ref_store = ArtifactStore(f"sqlite:{base / 'reference.sqlite'}")
    reference = run_sweep(spec, store=ref_store, workers=1)
    report.reference_s = time.perf_counter() - start
    ref_rows = _strip_rows(reference.rows)
    ref_keys = set(ref_store.backend.keys())
    ref_store.close()
    report.warm_units = reference.warm_units
    report.rows = len(reference.rows)

    # ---- 2. the seeded fault schedule --------------------------------
    plan, poison_index, kill_index = build_plan(
        seed, reference.warm_units, poison=poison, kill=kill,
        wire=wire, flaky_store=flaky_store)
    report.poison_index = poison_index
    report.kill_index = kill_index
    say(f"chaos: plan seed={seed}, {len(plan.specs)} spec(s), "
        f"poison unit {poison_index}, kill unit {kill_index}, "
        f"server profile {server!r}")

    # ---- 3. faulty store behind a TCP server --------------------------
    inner = SQLiteBackend(str(base / "chaos.sqlite"))
    faulty = FaultyBackend(inner, plan)
    live = StoreServer(faulty, host="127.0.0.1", port=0).start()
    port = int(live.address.rsplit(":", 1)[1])
    holder: dict = {"server": live, "stop": False, "events": []}
    event = plan.mark("store", PREPARE_OPS * len(workloads))
    saboteur = None
    if server in ("restart", "down"):
        import threading
        saboteur = threading.Thread(
            target=_server_saboteur,
            args=(holder, server, port, faulty, event, say),
            name="repro-chaos-saboteur", daemon=True)

    # Client retry budgets per profile: "restart" must outlast
    # the outage even at minimum backoff jitter (eight retries at
    # base 0.02s sum to >2s of sleep, well past the ~0.5s gap, and
    # connect-refused attempts are near-instant); "down" must fail
    # fast into degraded mode instead.
    retries = {"restart": 8, "up": 4, "down": 1}[server]
    client = NetworkBackend(live.spec, retries=retries,
                            backoff_s=0.02)
    store = ArtifactStore(client,
                          degrade_after=(3 if server == "down" else 8),
                          probe_every=25)

    # ---- 4. the chaos sweep -------------------------------------------
    say(f"chaos: sweep under faults ({workers} worker(s), "
        f"store {live.spec})")
    start = time.perf_counter()
    try:
        with env_plan(plan), wire_faults(plan):
            if saboteur is not None:
                saboteur.start()
            outcome = run_sweep(
                spec, store=store, workers=workers,
                echo=say, unit_attempts=unit_attempts,
                unit_deadline=unit_deadline,
                cluster_deadline=cluster_deadline)
    finally:
        holder["stop"] = True
        event.set()               # wake a saboteur still waiting
        if saboteur is not None:
            saboteur.join(timeout=30.0)
        survivor = holder.get("server")
        if survivor is not None:
            survivor.shutdown()
        client.close()
    report.chaos_s = time.perf_counter() - start

    # ---- 5. the invariants --------------------------------------------
    chaos_rows = _strip_rows(outcome.rows)
    report.rows_identical = chaos_rows == ref_rows
    if not report.rows_identical:
        report.notes.append(
            "rows diverged from the fault-free reference")
    if server != "down":
        chaos_keys = set(inner.keys())   # bypass the fault wrapper
        report.keys_identical = chaos_keys == ref_keys
        if not report.keys_identical:
            missing = len(ref_keys - chaos_keys)
            extra = len(chaos_keys - ref_keys)
            report.notes.append(
                f"store key sets diverged ({missing} missing, "
                f"{extra} extra)")
    report.failed_units = list(outcome.failed_units)
    expected = {poison_index} if poison_index is not None else set()
    got = {unit["index"] for unit in outcome.failed_units}
    report.failed_expected = got == expected
    if not report.failed_expected:
        report.notes.append(
            f"failed units {sorted(got)} != expected "
            f"{sorted(expected)}")
    report.retries = client.retry_count
    report.injected_store = plan.injected("store")
    report.injected_wire = plan.injected("wire")
    report.degraded_events = store.stats.degraded_events
    report.degraded_skips = store.stats.degraded_skips
    report.store_errors = store.stats.errors
    report.ok = (report.rows_identical and report.failed_expected
                 and report.keys_identical is not False)
    report.server_events = list(holder["events"])
    expected_events = {"restart": ["stopped", "revived"],
                       "down": ["stopped"], "up": []}[server]
    if report.server_events != expected_events:
        report.notes.append(
            f"server-{server} profile's event never happened during "
            f"the sweep (events {report.server_events}, expected "
            f"{expected_events})")
        report.ok = False
    if server == "down":
        if report.degraded_events < 1:
            report.notes.append(
                "server-down profile never entered degraded mode")
            report.ok = False
    say(f"chaos: {'OK' if report.ok else 'FAILED'} — "
        f"rows_identical={report.rows_identical}, "
        f"keys_identical={report.keys_identical}, "
        f"failed={sorted(got)}, retries={report.retries}, "
        f"degraded_events={report.degraded_events}")
    inner.close()
    return report
