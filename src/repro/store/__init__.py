"""Persistent content-addressed artifact storage (DESIGN.md §10, §15).

Every expensive product of the toolchain — compiled+profiled
applications (with the profiling run's outcome, which is also the
baseline run) and exponential identification results — is
content-addressed by SHA-256 over everything it depends on
(:mod:`repro.store.keys`) and persisted across processes and
invocations by :class:`repro.store.artifacts.ArtifactStore`.  The
*medium* behind a store is a pluggable
:class:`~repro.store.backend.StoreBackend`: a directory tree
(default), a WAL-mode SQLite file (``sqlite:PATH``), or a thin TCP
client (``tcp://HOST:PORT``) talking to ``repro store serve`` — which
is how processes on other nodes share one artifact medium.  The
:class:`repro.session.Session` facade wires the store through every
layer; results are bit-identical with the store enabled, disabled or
pre-warmed — persistence only ever skips recomputation.
"""

from .artifacts import (
    STORE_ENV,
    ArtifactStore,
    StoreInfo,
    StoreStats,
    default_backend_spec,
    default_store_dir,
    resolve_store,
    stock_store_dir,
)
from .backend import (
    BackendError,
    DirectoryBackend,
    StoreBackend,
    StoreUnavailable,
    open_backend,
)
from .keys import (
    PIPELINE_VERSION,
    SEARCH_VERSION,
    callable_fingerprint,
    canonical_digest,
    dfg_digest,
    limits_key,
    model_digest,
    workload_key,
)
from .net import NetworkBackend, StoreServer
from .sqlite import SQLiteBackend

__all__ = [
    "ArtifactStore", "StoreStats", "StoreInfo", "resolve_store",
    "default_store_dir", "default_backend_spec", "stock_store_dir",
    "STORE_ENV",
    "StoreBackend", "DirectoryBackend", "SQLiteBackend",
    "NetworkBackend", "StoreServer", "open_backend", "BackendError",
    "StoreUnavailable",
    "canonical_digest", "callable_fingerprint", "dfg_digest",
    "model_digest", "limits_key", "workload_key",
    "PIPELINE_VERSION", "SEARCH_VERSION",
]
