"""The persistent, content-addressed artifact store.

An :class:`ArtifactStore` maps ``(kind, key)`` pairs to picklable
payloads, where *kind* names an artifact family (``"app"`` for compiled
+profiled applications, ``"search"`` for identification results) and
*key* is a SHA-256 hex digest derived from content
(:mod:`repro.store.keys`).  Properties:

* **Persistence only.**  Every operation goes to a pluggable
  :class:`~repro.store.backend.StoreBackend` — a directory tree, a
  WAL-mode SQLite file, or a TCP client to ``repro store serve`` —
  that survives the process and is shared by concurrent processes.
  In-process reuse lives with each artifact's consumer (the
  :class:`~repro.explore.cache.SearchCache` dict, ``Session``'s
  application memo), never here.
* **Atomic writes.**  Payloads are pickled once here and published
  atomically by the backend — readers see the old blob or the complete
  new one, never a torn write.  Concurrent writers of the same key
  race benignly: most keys are content-addressed, so their writers
  write identical bytes, and the values under one search ``chain`` key
  are prefixes of one deterministic sequence, so whichever write wins
  is correct.
* **Versioned schemas.**  A header tuple is pickled with every payload;
  artifacts from a different schema (or foreign blobs) read as misses,
  never as wrong data.
* **Corruption tolerance.**  A truncated, corrupt or unreadable blob is
  a *miss*, counted in ``stats.errors`` and removed, never an exception
  crossing the store boundary; an unreachable backend degrades the same
  way.
* **Degraded mode.**  After ``degrade_after`` consecutive backend
  failures the store flips to pass-through (reads are fast misses,
  writes are skipped) instead of paying a timeout per operation
  against a dead medium; every ``probe_every``-th skipped operation
  re-probes, and one success recovers.  Counted in
  ``stats.degraded_skips`` / ``stats.degraded_events``.
* **Statistics.**  ``stats`` counts hits, misses, puts, errors and
  degraded-mode events — the numbers ``repro cache stats`` and the
  session benchmark report.

The default root is ``~/.cache/repro``, overridden by the
``REPRO_STORE`` environment variable (a backend spec — a path,
``sqlite:PATH`` or ``tcp://HOST:PORT`` — or ``0``/``off``/``none`` to
disable persistence wherever the default store would be used).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from .backend import (
    SCHEMA_VERSION,
    BackendError,
    StoreBackend,
    StoreInfo,
    open_backend,
)

__all__ = [
    "ArtifactStore", "StoreStats", "StoreInfo", "resolve_store",
    "default_store_dir", "default_backend_spec", "stock_store_dir",
    "STORE_ENV", "SCHEMA_VERSION",
]

#: Environment variable overriding the default store spec (or disabling
#: the default store entirely with ``0`` / ``off`` / ``none`` / ``"" ``).
STORE_ENV = "REPRO_STORE"

#: Values of :data:`STORE_ENV` that mean "no persistent store".
_DISABLED = {"0", "off", "none", "disabled"}

_HEADER = ("repro-store", SCHEMA_VERSION)

#: Errors that mean "this artifact blob is unusable", never propagated.
_READ_ERRORS = (OSError, EOFError, pickle.UnpicklingError, AttributeError,
                ImportError, IndexError, KeyError, TypeError, ValueError)


def stock_store_dir() -> Path:
    """The built-in default store root, ignoring the environment —
    the single place the ``~/.cache/repro`` path is spelled."""
    return Path.home() / ".cache" / "repro"


def default_backend_spec() -> Optional[str]:
    """The backend spec the environment selects: ``$REPRO_STORE`` if
    set (``None`` when it names one of the disabled values), else the
    stock directory root."""
    env = os.environ.get(STORE_ENV)
    if env is not None:
        if env.strip().lower() in _DISABLED or not env.strip():
            return None
        return env
    return str(stock_store_dir())


def default_store_dir() -> Optional[Path]:
    """:func:`default_backend_spec` as a path (historical accessor; for
    ``tcp://`` / ``sqlite:`` specs prefer the spec form)."""
    spec = default_backend_spec()
    if spec is None:
        return None
    return Path(spec).expanduser()


@dataclass
class StoreStats:
    """Hit/miss accounting of one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    #: Backend operations skipped while the store was degraded
    #: (pass-through mode after consecutive backend failures).
    degraded_skips: int = 0
    #: Times the store *entered* degraded mode.
    degraded_events: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON-ready record, including the derived hit rate."""
        record: Dict[str, float] = asdict(self)
        record["hit_rate"] = self.hit_rate
        return record


class ArtifactStore:
    """Backend-agnostic content-addressed artifact store (module doc)."""

    def __init__(self, root=None, degrade_after: int = 8,
                 probe_every: int = 64) -> None:
        """Open the store over the medium *root* names.

        Args:
            root: a backend spec — directory path, ``sqlite:PATH``,
                ``tcp://HOST:PORT`` — or a live
                :class:`~repro.store.backend.StoreBackend`; defaults
                to :func:`default_backend_spec` (raises ``ValueError``
                if the environment disables it).
            degrade_after: consecutive backend failures before the
                store flips to degraded pass-through mode (reads are
                fast misses, writes are skipped) instead of
                paying a timeout per operation against a dead medium;
                ``0`` disables degradation.
            probe_every: while degraded, every Nth skipped backend
                operation goes through as a re-probe — one success
                recovers the store, one failure re-arms the skip
                window.
        """
        if root is None:
            root = default_backend_spec()
            if root is None:
                raise ValueError(
                    f"persistent store disabled by ${STORE_ENV}; "
                    f"pass an explicit root to force one")
        self.backend: StoreBackend = open_backend(root)
        self.root = getattr(self.backend, "root", self.backend.spec)
        self.degrade_after = degrade_after
        self.probe_every = max(1, probe_every)
        self.stats = StoreStats()
        self._consecutive_errors = 0
        self._degraded = False
        self._skips_since_probe = 0

    @property
    def degraded(self) -> bool:
        """True while the store is in pass-through (degraded) mode."""
        return self._degraded

    # ------------------------------------------------------------------
    # Degraded mode: after ``degrade_after`` consecutive backend
    # failures the backend is assumed down and skipped (a dead
    # TCP medium would otherwise cost a timeout per operation for the
    # rest of a sweep).  Count-based re-probing keeps recovery cheap
    # and deterministic: every ``probe_every``-th skipped operation
    # goes through, and a single success flips the store healthy again.
    # ------------------------------------------------------------------
    def _backend_gate(self) -> bool:
        """True when the next backend operation should actually run."""
        if not self._degraded:
            return True
        self._skips_since_probe += 1
        if self._skips_since_probe >= self.probe_every:
            self._skips_since_probe = 0
            return True            # re-probe
        self.stats.degraded_skips += 1
        return False

    def _backend_failed(self) -> None:
        """Record one backend failure; may enter degraded mode."""
        self._consecutive_errors += 1
        if (not self._degraded and self.degrade_after > 0
                and self._consecutive_errors >= self.degrade_after):
            self._degraded = True
            self._skips_since_probe = 0
            self.stats.degraded_events += 1

    def _backend_succeeded(self) -> None:
        """Record one backend success; recovers from degraded mode."""
        self._consecutive_errors = 0
        self._degraded = False

    @property
    def spec(self) -> str:
        """Reconnect string of this store's medium
        (:func:`repro.store.backend.open_backend` reopens it)."""
        return self.backend.spec

    @property
    def base(self):
        """The directory backend's versioned tree root (layout
        introspection; only meaningful for directory media)."""
        return getattr(self.backend, "base", None)

    # ------------------------------------------------------------------
    def key(self, kind: str, payload) -> str:
        """Content key for *payload* (repr-stable canonical value) under
        *kind* — namespaced so equal payloads of different kinds never
        collide."""
        from .keys import canonical_digest
        return canonical_digest("store-key-v1", kind, payload)

    # ------------------------------------------------------------------
    def get(self, kind: str, key: str):
        """The stored payload, or ``None`` on a miss; unreadable blobs
        count as misses."""
        if not self._backend_gate():
            self.stats.misses += 1
            return None
        try:
            blob = self.backend.load(kind, key)
        except BackendError:
            self._backend_failed()
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self._backend_succeeded()
        if blob is None:
            self.stats.misses += 1
            return None
        try:
            header, stored_kind, value = pickle.loads(blob)
            if header != _HEADER or stored_kind != kind or value is None:
                raise ValueError("artifact header mismatch")
        except _READ_ERRORS:
            # Truncated/corrupt/foreign blob: a miss, not a crash.
            # Drop it so the slot can be rewritten cleanly.
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                self.backend.delete(kind, key)
            except BackendError:
                self._backend_failed()
            return None
        self.stats.hits += 1
        return value

    def put(self, kind: str, key: str, value) -> None:
        """Persist *value* under ``(kind, key)`` atomically.

        ``None`` payloads are rejected (``None`` is the miss sentinel).
        Backend failures drop the write — persistence is a performance
        layer, never a correctness requirement.
        """
        if value is None:
            raise ValueError("cannot store None (the miss sentinel)")
        self.stats.puts += 1
        try:
            blob = pickle.dumps((_HEADER, kind, value),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except pickle.PicklingError:
            self.stats.errors += 1
            return
        if not self._backend_gate():
            return
        try:
            self.backend.store(kind, key, blob)
        except BackendError:
            self._backend_failed()
            self.stats.errors += 1
        else:
            self._backend_succeeded()

    def contains(self, kind: str, key: str) -> bool:
        """Presence check (no payload decode, no hit/miss accounting)."""
        if not self._backend_gate():
            return False
        try:
            present = self.backend.contains(kind, key)
        except BackendError:
            self._backend_failed()
            return False
        self._backend_succeeded()
        return present

    # ------------------------------------------------------------------
    # Maintenance (the ``repro cache`` verb).
    # ------------------------------------------------------------------
    def info(self) -> StoreInfo:
        """Entry/byte counts of the backend, per artifact kind."""
        try:
            return self.backend.info()
        except BackendError:
            return StoreInfo(root=str(self.root))

    def clear(self) -> int:
        """Drop every artifact; returns the number of entries removed."""
        try:
            return self.backend.clear()
        except BackendError:
            return 0

    def gc(self, max_age_days: float = 30.0) -> Tuple[int, int]:
        """Remove persistent artifacts older than *max_age_days*;
        returns ``(entries_removed, bytes_freed)``."""
        try:
            return self.backend.gc(max_age_days)
        except BackendError:
            return 0, 0

    def close(self) -> None:
        """Release the backend's connections/handles (idempotent)."""
        self.backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ArtifactStore {self.spec}>"


def resolve_store(store="auto") -> Optional[ArtifactStore]:
    """Normalise a store argument into an ``ArtifactStore`` or ``None``.

    ``"auto"`` opens the environment-selected default (``None`` when
    ``$REPRO_STORE`` disables it); ``None``/``False`` disable; a spec
    (path, ``sqlite:PATH``, ``tcp://HOST:PORT``) or a live backend
    opens a store there; an ``ArtifactStore`` passes through.
    """
    if store is None or store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    if store == "auto" or store is True:
        spec = default_backend_spec()
        return ArtifactStore(spec) if spec is not None else None
    return ArtifactStore(store)
