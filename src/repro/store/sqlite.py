"""Single-file SQLite store backend (WAL, concurrent-process safe).

One ``.sqlite`` file replaces the directory tree: kinder to file-count
quotas, trivially copyable between nodes, and — in WAL mode — safe for
many concurrent writer *processes*, which all ``INSERT OR REPLACE``
into the same file while others read.
Same-key racers write equally correct values (see
:mod:`repro.store.artifacts`), so the last writer winning is benign.

Every operation retries through SQLite's own busy handler
(``busy_timeout``); a database that is corrupt or unreadable raises
:class:`~repro.store.backend.BackendError`, which the policy layer
above treats as a miss/dropped write, never a crash — the same
degradation contract as a damaged directory tree.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Iterator, Optional, Tuple

from .backend import BackendError, StoreBackend, StoreInfo

#: How long a writer waits on a locked database before giving up
#: (milliseconds).  Generous: losing a search-entry write costs a
#: recompute later, but failing fast under load would cost it now.
BUSY_TIMEOUT_MS = 10_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    kind  TEXT NOT NULL,
    key   TEXT NOT NULL,
    blob  BLOB NOT NULL,
    mtime REAL NOT NULL,
    PRIMARY KEY (kind, key)
) WITHOUT ROWID
"""


class SQLiteBackend(StoreBackend):
    """``(kind, key) -> blob`` rows in one WAL-mode SQLite file."""

    def __init__(self, path) -> None:
        """Open (creating if needed) the database file at *path*."""
        self.root = Path(path).expanduser()
        self.spec = f"sqlite:{self.root}"
        # One connection per instance; instances are per-process (the
        # fabric reopens by spec after fork), but the store server
        # shares one instance across handler threads — hence the lock.
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        # Fail at construction on an unusable path, like the
        # directory backend fails on its first write, but eagerly so
        # `repro sweep --store-dir sqlite:...` reports bad specs
        # before hours of warm work.
        self._connect()

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            try:
                self.root.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(str(self.root), timeout=30.0,
                                       check_same_thread=False)
                conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(_SCHEMA)
                conn.commit()
            except sqlite3.Error as exc:
                raise BackendError(f"cannot open {self.spec}: {exc}")
            self._conn = conn
        return self._conn

    def _execute(self, sql: str, params: Tuple = ()):
        with self._lock:
            try:
                return self._connect().execute(sql, params)
            except sqlite3.Error as exc:
                raise BackendError(f"{self.spec}: {exc}")

    def _commit(self, sql: str, params: Tuple = ()) -> int:
        with self._lock:
            try:
                conn = self._connect()
                cursor = conn.execute(sql, params)
                conn.commit()
                return cursor.rowcount
            except sqlite3.Error as exc:
                raise BackendError(f"{self.spec}: {exc}")

    # ------------------------------------------------------------------
    def load(self, kind: str, key: str):
        """The blob column, or ``None`` when the row is absent."""
        row = self._execute(
            "SELECT blob FROM artifacts WHERE kind=? AND key=?",
            (kind, key)).fetchone()
        return None if row is None else row[0]

    def store(self, kind: str, key: str, blob: bytes) -> None:
        """Upsert one row; a transaction is atomic by construction."""
        self._commit(
            "INSERT OR REPLACE INTO artifacts (kind, key, blob, mtime) "
            "VALUES (?, ?, ?, ?)", (kind, key, blob, time.time()))

    def contains(self, kind: str, key: str) -> bool:
        """Row-existence check (no blob transfer)."""
        row = self._execute(
            "SELECT 1 FROM artifacts WHERE kind=? AND key=?",
            (kind, key)).fetchone()
        return row is not None

    def delete(self, kind: str, key: str) -> None:
        """Drop one row (best-effort, like the directory unlink)."""
        try:
            self._commit("DELETE FROM artifacts WHERE kind=? AND key=?",
                         (kind, key))
        except BackendError:
            pass

    def keys(self) -> Iterator[Tuple[str, str]]:
        """Every ``(kind, key)`` row."""
        yield from self._execute(
            "SELECT kind, key FROM artifacts").fetchall()

    def info(self) -> StoreInfo:
        """Entry/byte counts per kind, straight from SQL aggregates."""
        info = StoreInfo(root=str(self.root))
        for kind, entries, size in self._execute(
                "SELECT kind, COUNT(*), SUM(LENGTH(blob)) "
                "FROM artifacts GROUP BY kind").fetchall():
            info.kinds[kind] = entries
            info.entries += entries
            info.bytes += size or 0
        return info

    def clear(self) -> int:
        """Delete every row (the file itself stays)."""
        return self._commit("DELETE FROM artifacts")

    def gc(self, max_age_days: float) -> Tuple[int, int]:
        """Drop rows older than *max_age_days* by their mtime column."""
        cutoff = time.time() - max_age_days * 86400.0
        row = self._execute(
            "SELECT COUNT(*), SUM(LENGTH(blob)) FROM artifacts "
            "WHERE mtime < ?", (cutoff,)).fetchone()
        removed, freed = row[0], row[1] or 0
        self._commit("DELETE FROM artifacts WHERE mtime < ?", (cutoff,))
        return removed, freed

    def close(self) -> None:
        """Close the connection (reopened lazily if used again)."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None
