"""Fault injection over every dispatch path that remains.

:func:`evaluate_grid` has two executors -- in-process and a
:class:`WorkerPool` -- and two grid shapes -- a kernel grid (one batch
call per chunk) and a fn-only grid (one point per chunk on the pool).
Each of the four paths meets the same faults:

* a raising point: the poison is isolated and its siblings are kept;
* a SIGKILLed worker (pool only): nothing hangs, completed chunks are
  salvaged, the rest is requeued in-process, the result is
  float-identical to serial and the pool restarts;
* a torn store row: it reads as a corrupt miss, is cleaned
  compare-before-delete and repaired by the re-evaluation;
* a per-point timeout: the slow point degrades to infeasible through
  ``on_error`` while its siblings are exact.
"""

import multiprocessing
import os
import signal
import sqlite3
import time

import pytest

from repro.errors import PointTimeoutError
from repro.runner import (
    RunStats,
    SqliteStore,
    WorkerPool,
    evaluate_grid,
    fingerprint,
)

POINTS = [0.37 * p for p in range(16)]
POISON = POINTS[9]
SLOW = POINTS[5]
KILL = POINTS[11]

EXECUTORS = ("in-process", "pool")
GRIDS = ("kernel", "fn")
PATHS = [(e, g) for e in EXECUTORS for g in GRIDS]


def _value(point):
    return point * point / 3.0 + 1.0 / 7.0


def _in_worker():
    return multiprocessing.parent_process() is not None


def _poisoned(point):
    if point == POISON:
        raise RuntimeError("poison {}".format(point))
    return _value(point)


def _poisoned_kernel(points):
    if POISON in points:
        raise RuntimeError("kernel cannot take {}".format(POISON))
    return [_value(p) for p in points]


def _slow(point):
    if point == SLOW:
        time.sleep(10)
    return _value(point)


def _slow_kernel(points):
    # A kernel has no per-point timeout: it refuses the slow point, which
    # then runs through ``fn`` under the per-point policy.
    if SLOW in points:
        raise RuntimeError("kernel cannot take {}".format(SLOW))
    return [_value(p) for p in points]


def _victim(point):
    # Die hard -- but only inside a pool worker, so the in-process
    # requeue computes the real value.
    if point == KILL and _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return _value(point)


def _victim_kernel(points):
    if KILL in points and _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return [_value(p) for p in points]


def _healthy_kernel(points):
    return [_value(p) for p in points]


@pytest.fixture()
def pool():
    with WorkerPool(workers=2) as warm:
        yield warm


@pytest.fixture()
def store(tmp_path):
    s = SqliteStore(tmp_path / "store.sqlite")
    yield s
    s.close()


def _run(executor, grid, fn, kernel, pool, **kwargs):
    """One grid down one of the four paths."""
    parallel = {"workers": 2, "pool": pool} if executor == "pool" else {}
    return evaluate_grid(fn, POINTS,
                         kernel=kernel if grid == "kernel" else None,
                         **parallel, **kwargs)


def _key(store, cache_key, point):
    """The store key ``evaluate_grid`` files ``point`` under."""
    return store.key_for(cache_key, fingerprint(point))


def _count_writes(store, monkeypatch):
    """A list that gains one entry per non-empty ``put_many`` call."""
    writes = []
    real = store.put_many

    def counted(items):
        items = list(items)
        if items:
            writes.append(len(items))
        return real(items)

    monkeypatch.setattr(store, "put_many", counted)
    return writes


def _at_most_one_write_per_batch(writes, trace):
    """Store writes: at most one per landed chunk or kernel batch, plus
    the grid's closing write (the in-process per-point loop's one)."""
    batches = [span for name in ("chunk", "batch")
               for span in trace.spans(name) if span["status"] == "ok"]
    assert len(writes) <= len(batches) + 1


@pytest.mark.parametrize("executor,grid", PATHS)
class TestRaisingPoint:
    def test_soft_poison_isolated_siblings_exact(self, executor, grid,
                                                 pool):
        stats = RunStats()
        got = _run(executor, grid, _poisoned, _poisoned_kernel, pool,
                   on_error=(RuntimeError,), retries=0, stats=stats)
        assert got == [None if p == POISON else _value(p)
                       for p in POINTS]
        assert stats.infeasible == 1
        assert stats.evaluated == len(POINTS)

    def test_hard_poison_propagates_and_keeps_siblings(
            self, executor, grid, pool, store, trace, monkeypatch):
        writes = _count_writes(store, monkeypatch)
        with pytest.raises(RuntimeError, match="poison"):
            _run(executor, grid, _poisoned, _poisoned_kernel, pool,
                 retries=0, cache=store, cache_key="poison",
                 tracer=trace.tracer)
        # In-process, the per-point loop stops at the poison; on the
        # pool every healthy chunk lands before the failure is raised.
        siblings = [p for p in POINTS if p != POISON]
        kept = siblings if executor == "pool" \
            else POINTS[:POINTS.index(POISON)]
        assert len(store) == len(kept)
        for p in kept:
            assert store.get(_key(store, "poison", p)) == _value(p)
        failed = [e for e in trace.spans("point")
                  if e["status"] == "failed"]
        assert [e["index"] for e in failed] == [POINTS.index(POISON)]
        (grid_span,) = trace.spans("grid")
        assert grid_span["status"] == "failed"
        _at_most_one_write_per_batch(writes, trace)
        if executor == "in-process":
            assert writes == [len(kept)]


@pytest.mark.parametrize("grid", GRIDS)
class TestKilledWorker:
    def test_salvaged_requeued_and_the_pool_restarts(self, grid, pool,
                                                     store, trace,
                                                     monkeypatch):
        writes = _count_writes(store, monkeypatch)
        stats = RunStats()
        start = time.perf_counter()
        got = _run("pool", grid, _victim, _victim_kernel, pool,
                   cache=store, cache_key="kill", stats=stats,
                   tracer=trace.tracer)
        assert time.perf_counter() - start < 60, "must not hang"
        assert got == evaluate_grid(_victim, POINTS)
        assert got == [_value(p) for p in POINTS]
        assert stats.crashes == 1
        (grid_span,) = trace.spans("grid")
        assert grid_span["crashes"] == 1 and grid_span["requeued"] >= 1
        # Every point -- salvaged or requeued -- reached the store.
        assert len(store) == len(POINTS)
        assert sum(writes) == len(POINTS)
        _at_most_one_write_per_batch(writes, trace)
        # The pool shed its broken executor and serves the next grid.
        assert not pool.alive
        again = _run("pool", grid, _value, _healthy_kernel, pool)
        assert again == got
        assert pool.generation == 2


@pytest.mark.parametrize("executor,grid", PATHS)
class TestTornStoreRow:
    def test_corrupt_miss_cleaned_and_repaired(self, executor, grid,
                                               pool, store, monkeypatch):
        _run(executor, grid, _value, _healthy_kernel, pool, cache=store,
             cache_key="torn")
        torn_key = _key(store, "torn", POINTS[3])
        conn = sqlite3.connect(store.path)
        conn.execute("UPDATE entries SET value=? WHERE key=?",
                     (b"torn half of a pickle", torn_key))
        conn.commit()
        conn.close()
        drops = []
        real_drop = store._drop_if_unchanged
        monkeypatch.setattr(
            store, "_drop_if_unchanged",
            lambda key, data: (drops.append((key, bytes(data))),
                               real_drop(key, data))[1])

        stats = RunStats()
        got = _run(executor, grid, _value, _healthy_kernel, pool,
                   cache=store, cache_key="torn", stats=stats)
        assert got == [_value(p) for p in POINTS]
        assert (store.corrupt, stats.evaluated) == (1, 1)
        assert stats.cache_hits == len(POINTS) - 1
        # Cleanup removed exactly the bytes it failed to read ...
        assert drops == [(torn_key, b"torn half of a pickle")]
        # ... and the re-evaluation repaired the row.
        assert store.lookup(torn_key) == (True, _value(POINTS[3]))


@pytest.mark.parametrize("executor,grid", PATHS)
class TestPointTimeout:
    def test_slow_point_degrades_siblings_exact(self, executor, grid,
                                                pool):
        stats = RunStats()
        start = time.perf_counter()
        got = _run(executor, grid, _slow, _slow_kernel, pool,
                   timeout=0.2, retries=0,
                   on_error=(PointTimeoutError,), stats=stats)
        assert time.perf_counter() - start < 8
        assert got == [None if p == SLOW else _value(p) for p in POINTS]
        assert stats.timeouts == 1
        assert stats.infeasible == 1
