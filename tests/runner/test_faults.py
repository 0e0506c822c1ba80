"""Fault tolerance: retries, timeouts, worker crashes, thread safety."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import PointTimeoutError, RunnerError
from repro.runner import (
    Runner,
    RunStats,
    SqliteStore,
    evaluate_grid,
    stable_hash,
)
from repro.runner import core as runner_core

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")


def _square(point):
    return point * point


class _Transient:
    """Fails the first ``failures`` calls per point, then succeeds.

    State lives on disk so the counter survives process boundaries
    (fork workers append to the same file).
    """

    def __init__(self, root, failures=2):
        self.root = str(root)
        self.failures = failures

    def __call__(self, point):
        path = os.path.join(self.root, "attempts-{}".format(point))
        seen = 0
        if os.path.exists(path):
            with open(path) as f:
                seen = len(f.read())
        with open(path, "a") as f:
            f.write("x")
        if seen < self.failures:
            raise OSError("transient failure {}".format(seen))
        return point * point


class TestRetries:
    def test_transient_failures_are_retried(self, tmp_path):
        stats = RunStats()
        fn = _Transient(tmp_path, failures=2)
        assert evaluate_grid(fn, [5], retry_on=(OSError,), retries=3,
                             backoff=0.001, stats=stats) == [25]
        assert stats.retries == 2
        assert stats.infeasible == 0

    @needs_fork
    def test_transient_failures_are_retried_parallel(self, tmp_path):
        stats = RunStats()
        fn = _Transient(tmp_path, failures=1)
        assert evaluate_grid(fn, [2, 3], workers=2, retry_on=(OSError,),
                             retries=2, backoff=0.001, stats=stats) \
            == [4, 9]
        assert stats.retries == 2

    def test_exhausted_retries_propagate(self, tmp_path):
        fn = _Transient(tmp_path, failures=99)
        with pytest.raises(OSError):
            evaluate_grid(fn, [1], retry_on=(OSError,), retries=1,
                          backoff=0.001)

    def test_exhausted_retries_soften_via_on_error(self, tmp_path):
        stats = RunStats()
        fn = _Transient(tmp_path, failures=99)
        assert evaluate_grid(fn, [1], retry_on=(OSError,), retries=1,
                             backoff=0.001, on_error=(OSError,),
                             stats=stats) == [None]
        assert stats.retries == 1
        assert stats.infeasible == 1

    def test_hard_failure_still_counts_retries(self, tmp_path, trace):
        # The abort must not erase what the run paid: retry counters and
        # the trace see the failure before the exception propagates.
        stats = RunStats()
        fn = _Transient(tmp_path, failures=99)
        with pytest.raises(OSError):
            evaluate_grid(fn, [1], retry_on=(OSError,), retries=2,
                          backoff=0.001, stats=stats, tracer=trace.tracer)
        assert stats.retries == 2
        (point,) = trace.spans("point")
        assert (point["status"], point["attempts"]) == ("failed", 2)
        assert "OSError" in point["error"]
        (grid,) = trace.spans("grid")
        assert grid["status"] == "failed"


class TestTimeouts:
    def _sleepy(self, point):
        if point == 1:
            time.sleep(10)
        return point

    def test_timeout_propagates(self):
        stats = RunStats()
        start = time.perf_counter()
        with pytest.raises(PointTimeoutError):
            evaluate_grid(self._sleepy, [0, 1], timeout=0.1, retries=0,
                          stats=stats)
        assert time.perf_counter() - start < 5
        assert stats.timeouts == 1

    def test_timeout_softens_via_on_error(self):
        stats = RunStats()
        assert evaluate_grid(self._sleepy, [0, 1, 2], timeout=0.1,
                             retries=1, backoff=0.001,
                             on_error=(PointTimeoutError,),
                             stats=stats) == [0, None, 2]
        assert stats.infeasible == 1
        assert stats.timeouts == 2      # initial attempt + one retry

    @needs_fork
    def test_timeout_in_workers(self):
        stats = RunStats()
        assert evaluate_grid(self._sleepy, [0, 1, 2], workers=2,
                             timeout=0.1, retries=0,
                             on_error=(PointTimeoutError,),
                             stats=stats) == [0, None, 2]
        assert stats.timeouts == 1


@needs_fork
class TestWorkerCrash:
    """The acceptance scenario: SIGKILL a pool worker mid-grid."""

    POINTS = list(range(8))

    @staticmethod
    def _victim(point):
        # Die hard -- but only inside a pool worker, so the serial
        # requeue (which runs in the parent) computes the real value.
        if point == 3 and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return point * 7

    def test_sigkill_neither_hangs_nor_loses_data(self, tmp_path, trace):
        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("crash-test")
        stats = RunStats()

        start = time.perf_counter()
        crashed = evaluate_grid(self._victim, self.POINTS, workers=2,
                                cache=cache, cache_key=key, stats=stats,
                                tracer=trace.tracer)
        elapsed = time.perf_counter() - start

        serial = evaluate_grid(self._victim, self.POINTS)
        assert crashed == serial == [p * 7 for p in self.POINTS]
        assert elapsed < 60, "crash recovery must not hang"
        assert stats.crashes == 1

        # Incremental writeback: every point -- salvaged or requeued --
        # is on disk, so a warm rerun evaluates nothing.
        warm = RunStats()
        assert evaluate_grid(self._victim, self.POINTS, cache=cache,
                             cache_key=key, stats=warm) == serial
        assert warm.evaluated == 0
        assert warm.cache_hits == len(self.POINTS)

        # The trace tells the story: crash, requeue, completion.
        (grid,) = trace.spans("grid")
        assert grid["crashes"] == 1 and grid["requeued"] >= 1
        assert grid["status"] == "ok"
        assert trace.lines[-1] is grid
        finished = trace.spans("point")
        assert sorted(e["index"] for e in finished) == self.POINTS

    def test_crash_through_runner_policy(self, tmp_path, trace):
        runner = Runner(workers=2, cache=tmp_path / "store.sqlite",
                        tracer=trace.tracer)
        out = runner.run(self._victim, self.POINTS,
                         cache_key=stable_hash("crash-runner"))
        assert trace.spans("grid")[0]["crashes"] == 1
        assert out == [p * 7 for p in self.POINTS]
        assert runner.stats.crashes == 1


class TestThreadSafety:
    @needs_fork
    def test_concurrent_parallel_calls_get_a_clean_error(self):
        # A second thread entering the fork path while the slot is held
        # must fail loudly, not race on the module global.
        assert runner_core._FORK_LOCK.acquire(blocking=False)
        try:
            with pytest.raises(RunnerError, match="another thread"):
                evaluate_grid(_square, [1, 2, 3, 4], workers=2)
        finally:
            runner_core._FORK_LOCK.release()

    @needs_fork
    def test_lock_released_after_normal_run(self):
        evaluate_grid(_square, [1, 2, 3, 4], workers=2)
        assert runner_core._FORK_LOCK.acquire(blocking=False)
        runner_core._FORK_LOCK.release()
        assert runner_core._GRID_STATE is None

    def test_serial_paths_may_run_concurrently(self):
        errors = []

        def work():
            try:
                assert evaluate_grid(_square, [1, 2, 3]) == [1, 4, 9]
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestIncrementalWriteback:
    def test_abort_keeps_paid_work(self, tmp_path):
        # A hard error at point 3 aborts the grid, but points evaluated
        # before it were already flushed to the cache.
        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("abort-test")

        def fn(point):
            if point == 3:
                raise RuntimeError("boom")
            return point + 1

        with pytest.raises(RuntimeError):
            evaluate_grid(fn, [0, 1, 2, 3, 4], cache=cache, cache_key=key)
        assert cache.puts == 3

        stats = RunStats()
        with pytest.raises(RuntimeError):
            evaluate_grid(fn, [0, 1, 2, 3, 4], cache=cache, cache_key=key,
                          stats=stats)
        assert stats.cache_hits == 3
        assert stats.evaluated == 0     # aborts on the first pending point
