"""Reusable warm worker pool for parallel grid execution.

A :class:`WorkerPool` owns one ``ProcessPoolExecutor`` that *survives
across* :func:`~repro.runner.core.evaluate_grid` calls, so a session
running many sweeps pays worker startup once instead of per grid.
Workers start lazily on first use; under the preferred ``fork`` start
method they inherit everything the parent had built by then -- the cell
library, the in-process artifact memos, the imported model modules --
copy-on-write.  That is the ``CircuitArtifacts`` preload: a
:class:`~repro.session.Session` builds a design's power model (and its
artifact bundle) *before* its first parallel sweep, so every forked
worker is born with the tables already in memory.  On platforms without
``fork`` the pool falls back to ``spawn``.  Grid state reaches a warm
pool's workers as a pickled blob per chunk, memoised worker-side per
grid epoch.

The pool is deliberately dumb about scheduling: chunking, bounded
submission, bisect-and-retry and crash salvage live in
:mod:`repro.runner.core`.  The pool only manages executor lifetime --
lazy start, :meth:`restart` after a ``BrokenProcessPool``, idempotent
:meth:`close`.  A closed pool is not an error at the call sites:
``evaluate_grid`` degrades to an ephemeral per-grid pool (a
``WorkerPool`` it owns and closes) with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

from ..errors import RunnerError


def resolve_workers(workers):
    """Effective worker count: ``None`` -> serial, ``0`` -> all cores."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise RunnerError("workers must be >= 0")
    return workers or (os.cpu_count() or 1)


def _start_method():
    """The usable pool start method: ``"fork"`` preferred (state is
    inherited copy-on-write, nothing pickled), ``"spawn"`` where fork is
    unavailable (macOS / free-threaded builds), ``None`` when pools may
    not be created at all -- child processes (pool workers included) and
    daemons may not start pools of their own, so nested grids run
    in-process with identical results."""
    if multiprocessing.parent_process() is not None \
            or multiprocessing.current_process().daemon:
        return None
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    if "spawn" in methods:
        return "spawn"
    return None


class WorkerPool:
    """A lazily-started, restartable process pool shared across grids.

    Parameters
    ----------
    workers:
        Worker count; ``0`` (default) means one per core, like
        :class:`~repro.runner.core.Runner`.
    method:
        Start-method override (``"fork"`` / ``"spawn"``).  Default
        ``None`` resolves on first use: fork where available, spawn
        otherwise.

    ``generation`` counts executor (re)starts -- a pool that served ten
    grids without a crash still reports ``generation == 1``, which the
    warm-pool tests assert.
    """

    def __init__(self, workers=0, method=None):
        self.workers = resolve_workers(workers)
        self._method = method
        self._executor = None
        self._lock = threading.Lock()
        self.generation = 0
        self.closed = False

    @property
    def method(self):
        """The start method workers use (resolved lazily; ``None`` when
        no pool may be created here, e.g. inside another pool's
        worker)."""
        if self._method is None:
            self._method = _start_method()
        return self._method

    @property
    def alive(self):
        """Whether worker processes are currently warm."""
        return self._executor is not None

    def executor(self):
        """The shared executor, started on first call."""
        with self._lock:
            if self.closed:
                raise RunnerError("WorkerPool is closed")
            if self._executor is None:
                method = self.method
                if method is None:
                    raise RunnerError(
                        "no multiprocessing start method available "
                        "(nested or daemonized caller)")
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(method))
                self.generation += 1
            return self._executor

    def restart(self):
        """Discard the current executor (after a crash); the next use
        starts a fresh one."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def close(self):
        """Shut the workers down for good (idempotent)."""
        with self._lock:
            self.closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        state = "closed" if self.closed else \
            ("warm" if self.alive else "cold")
        return "WorkerPool(workers={}, method={!r}, {})".format(
            self.workers, self._method, state)
