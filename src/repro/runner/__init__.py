"""Batch experiment execution: workers, result cache, instrumentation.

Every sweep, scaling study, corner run and figure regeneration executes
through this package.  The public surface:

* :func:`evaluate_grid` / :class:`Runner` -- fan a function over a grid of
  points with deterministic ordering, in-process or as chunks on a
  worker pool, an optional content-addressed store read and written in
  batches, bounded retries with backoff, per-point timeouts, and
  worker-crash recovery;
* :class:`WorkerPool` -- the reusable warm worker pool: one executor
  surviving across grids;
* :class:`SqliteStore` -- the content-addressed result store, keyed by
  stable fingerprints of (design identity, library parameters, operating
  point, mode) and of the package source, in one WAL-mode SQLite file
  that many processes share safely -- what ``Session(store=...)`` and
  the :mod:`repro.serve` job service ride;
* :class:`CachedEvaluator` -- point-at-a-time caching for search loops;
* :class:`RunStats` -- per-run counters (what a run did is recorded
  by tracer spans, see :mod:`repro.obs.trace`);
* :class:`ArtifactStore` / :class:`CircuitArtifacts` -- the per-circuit
  compile-once cache (the compiled STA, switching, SCPG model table and
  simulation schedule, with the nominal leakage and timing, shared
  across grid points and processes);
* :func:`fingerprint` / :func:`stable_hash` / :func:`module_fingerprint`
  / :func:`stable_hash_or_none` -- the canonical hashing primitives.
"""

from .core import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    INFEASIBLE_MARKER,
    CachedEvaluator,
    Runner,
    evaluate_grid,
    resolve_workers,
)
from .fingerprint import (
    fingerprint,
    module_fingerprint,
    stable_hash,
    stable_hash_or_none,
)
from .instrument import RunStats
from .pool import WorkerPool
from .sqlite_store import (
    CACHE_ENV,
    CACHE_SCHEMA,
    SQLITE_SCHEMA,
    STORE_FILE,
    SqliteStore,
    default_cache,
    open_store,
)

# Last: the bundle module imports the SCPG model table, and the SCPG
# package imports this one back (through the analyses it uses).
from .artifacts import ArtifactStore, CircuitArtifacts

__all__ = [
    "ArtifactStore",
    "CACHE_ENV",
    "CACHE_SCHEMA",
    "CircuitArtifacts",
    "CachedEvaluator",
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "INFEASIBLE_MARKER",
    "SQLITE_SCHEMA",
    "STORE_FILE",
    "SqliteStore",
    "RunStats",
    "Runner",
    "WorkerPool",
    "default_cache",
    "evaluate_grid",
    "fingerprint",
    "module_fingerprint",
    "open_store",
    "resolve_workers",
    "stable_hash",
    "stable_hash_or_none",
]
