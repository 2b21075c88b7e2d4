"""The pluggable store-backend interface and the directory backend.

An :class:`~repro.store.artifacts.ArtifactStore` is split in two: the
*policy* layer (content keys, the pickled payload schema, corruption
tolerance, degraded mode, statistics) lives in
:mod:`repro.store.artifacts`; the *medium* — where encoded artifact
bytes actually live — is a :class:`StoreBackend`.  Three media ship:

* :class:`DirectoryBackend` — the original ``<root>/v<N>/<kind>/
  <key[:2]>/<key>.pkl`` tree; zero-setup, shared via the filesystem;
* :class:`repro.store.sqlite.SQLiteBackend` — one ``.sqlite`` file in
  WAL mode, safe for many concurrent processes and far kinder
  to file-count quotas than a directory tree;
* :class:`repro.store.net.NetworkBackend` — a thin TCP client talking
  to ``repro store serve``, so processes on *other nodes* share one
  artifact medium.

Backends are deliberately dumb byte stores: ``load``/``store``/
``contains``/``keys``/``info``/``clear``/``gc`` over ``(kind, key) ->
blob``.  They never pickle or unpickle artifact payloads — the policy
layer above owns the schema, so every backend inherits the same
corruption tolerance and versioning for free, and the network server
never executes payload bytes it relays.

A backend is addressed by a *spec* string — a directory path,
``sqlite:PATH`` (or any path ending ``.sqlite``/``.db``), or
``tcp://HOST:PORT`` — resolved by :func:`open_backend`.  Specs are
plain strings, so any process on any node can open the same medium.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Tuple

#: On-disk layout version: part of every directory path and of the
#: payload header the policy layer pickles with each artifact.
SCHEMA_VERSION = 1

_tmp_counter = itertools.count()


class BackendError(Exception):
    """A backend could not serve an operation (I/O failure, lost
    connection, corrupt medium).  The policy layer treats reads as
    misses and writes as dropped — never a crash."""


class StoreUnavailable(BackendError):
    """The medium itself is unreachable (connect refused, retry budget
    exhausted) — as opposed to a medium that answered and *rejected*
    the operation.  Callers that treat failures as best-effort (e.g.
    corrupt-entry deletes) swallow only this subclass: an answering
    server's protocol error still surfaces."""


@dataclass
class StoreInfo:
    """Snapshot of a backend's persistent tier (``repro cache stats``)."""

    root: str
    entries: int = 0
    bytes: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)


class StoreBackend:
    """Abstract byte-level ``(kind, key) -> blob`` medium (module doc).

    Subclasses must implement every method below.  All raise
    :class:`BackendError` on medium failure; none ever raise on a
    plain missing entry (``load`` returns ``None``, ``contains``
    returns ``False``).
    """

    #: Reconnect string understood by :func:`open_backend`.
    spec: str = ""

    def load(self, kind: str, key: str):
        """The stored blob for ``(kind, key)``, or ``None``."""
        raise NotImplementedError

    def store(self, kind: str, key: str, blob: bytes) -> None:
        """Persist *blob* under ``(kind, key)`` atomically."""
        raise NotImplementedError

    def contains(self, kind: str, key: str) -> bool:
        """Presence check without transferring the blob."""
        raise NotImplementedError

    def delete(self, kind: str, key: str) -> None:
        """Best-effort removal (corrupt-entry drop); never raises."""
        raise NotImplementedError

    def keys(self) -> Iterator[Tuple[str, str]]:
        """Every stored ``(kind, key)`` pair (order unspecified)."""
        raise NotImplementedError

    def info(self) -> StoreInfo:
        """Entry/byte counts, split per artifact kind."""
        raise NotImplementedError

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        raise NotImplementedError

    def gc(self, max_age_days: float) -> Tuple[int, int]:
        """Remove entries older than *max_age_days*; returns
        ``(entries_removed, bytes_freed)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release connections/handles (idempotent; default no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.spec}>"


class DirectoryBackend(StoreBackend):
    """The original filesystem tree: ``<root>/v<N>/<kind>/<key[:2]>/
    <key>.pkl``, atomic ``os.replace`` publication, shared between
    processes at the filesystem level."""

    def __init__(self, root: os.PathLike) -> None:
        """Open (creating lazily) the tree rooted at *root*."""
        self.root = Path(root)
        self.base = self.root / f"v{SCHEMA_VERSION}"
        self.spec = str(self.root)

    def _path(self, kind: str, key: str) -> Path:
        return self.base / kind / key[:2] / f"{key}.pkl"

    def load(self, kind: str, key: str):
        """Blob bytes from the entry file (``None`` when absent)."""
        try:
            return self._path(kind, key).read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise BackendError(str(exc))

    def store(self, kind: str, key: str, blob: bytes) -> None:
        """Write to a unique temp file, publish with ``os.replace`` —
        readers see the old blob or the whole new one, never a torn
        write.  Same-key racers write equally correct values (see
        :mod:`repro.store.artifacts`), so the race is benign."""
        path = self._path(kind, key)
        tmp = path.with_name(
            f".{key}.{os.getpid()}.{next(_tmp_counter)}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise BackendError(str(exc))

    def contains(self, kind: str, key: str) -> bool:
        """Entry-file existence (no read, no decode)."""
        return self._path(kind, key).is_file()

    def delete(self, kind: str, key: str) -> None:
        """Unlink the entry file; missing files are already deleted."""
        try:
            os.unlink(self._path(kind, key))
        except OSError:
            pass

    def _files(self) -> Iterator[Path]:
        if not self.base.is_dir():
            return
        for path in self.base.rglob("*.pkl"):
            if path.is_file():
                yield path

    def keys(self) -> Iterator[Tuple[str, str]]:
        """``(kind, key)`` pairs recovered from the tree layout."""
        for path in self._files():
            parts = path.relative_to(self.base).parts
            yield parts[0], path.stem

    def info(self) -> StoreInfo:
        """Walk the tree counting entries and bytes per kind."""
        info = StoreInfo(root=str(self.root))
        for path in self._files():
            kind = path.relative_to(self.base).parts[0]
            try:
                info.bytes += path.stat().st_size
            except OSError:
                continue
            info.entries += 1
            info.kinds[kind] = info.kinds.get(kind, 0) + 1
        return info

    def clear(self) -> int:
        """Remove the whole versioned tree."""
        import shutil

        removed = sum(1 for _ in self._files())
        shutil.rmtree(self.base, ignore_errors=True)
        return removed

    def gc(self, max_age_days: float) -> Tuple[int, int]:
        """Age-based sweep by mtime; also reclaims orphaned ``*.tmp``
        files left by writers killed mid-``store`` (anything older
        than an hour is certainly not in flight)."""
        cutoff = time.time() - max_age_days * 86400.0
        removed = 0
        freed = 0
        for path in list(self._files()):
            try:
                stat = path.stat()
                if stat.st_mtime < cutoff:
                    os.unlink(path)
                    removed += 1
                    freed += stat.st_size
            except OSError:
                continue
        if self.base.is_dir():
            tmp_cutoff = max(cutoff, time.time() - 3600.0)
            for path in list(self.base.rglob("*.tmp")):
                try:
                    stat = path.stat()
                    if stat.st_mtime < tmp_cutoff:
                        os.unlink(path)
                        freed += stat.st_size
                except OSError:
                    continue
        return removed, freed


def open_backend(spec) -> StoreBackend:
    """Resolve a spec string (or path) into a live backend.

    ``tcp://HOST:PORT`` opens a network client, ``sqlite:PATH`` (or a
    path ending ``.sqlite``/``.db``) a SQLite file, anything else a
    directory tree.  A :class:`StoreBackend` instance passes through.
    """
    if isinstance(spec, StoreBackend):
        return spec
    text = str(spec)
    if text.startswith("tcp://"):
        from .net import NetworkBackend

        return NetworkBackend(text)
    if text.startswith("sqlite:"):
        from .sqlite import SQLiteBackend

        return SQLiteBackend(text[len("sqlite:"):])
    if text.endswith((".sqlite", ".db")):
        from .sqlite import SQLiteBackend

        return SQLiteBackend(text)
    return DirectoryBackend(Path(text).expanduser())
