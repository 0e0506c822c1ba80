"""The reusable warm :class:`WorkerPool` and the spawn fallback.

The pool's contract: workers survive across grids (``generation`` stays
1, worker pids repeat), a crash is recovered by :meth:`restart` without
losing the grid, a closed pool degrades to an ephemeral per-grid pool,
and -- the platform regression this file pins -- fn and kernel grids
still produce identical results when ``fork`` is unavailable and the
runner must fall back to ``spawn`` (or, with unpicklable state, all the
way to in-process).
"""

import functools
import multiprocessing
import os
import signal

import pytest

from repro.errors import RunnerError
from repro.runner import RunStats, WorkerPool, evaluate_grid, read_journal
from repro.runner import core as runner_core


def _square(point):
    return point * point


def _square_batch(points):
    return [p * p for p in points]


def _pid_batch(points):
    return [os.getpid() for _ in points]


def _ctx_call(ctx, point):
    return ctx(point)


def _ctx_call_batch(ctx, points):
    return [ctx(p) for p in points]


KILL_POINT = 7


def _killer_batch(points):
    # Only ever kill inside a pool worker; the in-process requeue runs
    # this same kernel in the parent, which must survive.
    if KILL_POINT in points \
            and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return [p * p for p in points]


def _events(path):
    return [e["event"] for e in read_journal(path)]


class TestWarmPool:
    def test_workers_survive_across_grids(self, chunk_of):
        chunk_of(2)
        with WorkerPool(workers=2) as pool:
            first = set(evaluate_grid(_square, list(range(16)),
                                      workers=2, pool=pool,
                                      kernel=_pid_batch))
            second = set(evaluate_grid(_square, list(range(16)),
                                       workers=2, pool=pool,
                                       kernel=_pid_batch))
            assert pool.generation == 1
            assert pool.alive
            # Same process set served both grids -- had the pool
            # re-forked per grid, up to four distinct pids would show.
            assert len(first | second) <= 2
            assert os.getpid() not in first

    def test_results_match_serial(self):
        points = list(range(40))
        with WorkerPool(workers=2) as pool:
            got = evaluate_grid(_square, points, workers=2, pool=pool,
                                kernel=_square_batch)
        assert got == evaluate_grid(_square, points)

    def test_journal_marks_warm_dispatch(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with WorkerPool(workers=2) as pool:
            evaluate_grid(_square, list(range(8)), workers=2, pool=pool,
                          journal=str(path), kernel=_square_batch)
        planned = [e for e in read_journal(path)
                   if e["event"] == "chunks_planned"][0]
        assert planned["warm"] is True

    def test_crash_recovered_and_pool_restartable(self, tmp_path,
                                                  chunk_of):
        chunk_of(4)
        path = tmp_path / "journal.jsonl"
        stats = RunStats()
        with WorkerPool(workers=2) as pool:
            got = evaluate_grid(_square, list(range(16)), workers=2,
                                pool=pool, stats=stats,
                                journal=str(path),
                                kernel=_killer_batch)
            # The in-process requeue re-ran the lost chunks in the
            # parent, so the grid still completed bit-identically.
            assert got == [p * p for p in range(16)]
            assert stats.crashes == 1
            names = _events(path)
            assert "pool_crashed" in names
            assert "requeue_serial" in names
            # The pool shed its broken executor and serves the next
            # grid on a fresh one.
            assert not pool.alive
            again = evaluate_grid(_square, list(range(16)), workers=2,
                                  pool=pool, kernel=_square_batch)
            assert again == [p * p for p in range(16)]
            assert pool.generation == 2

    def test_closed_pool_degrades_to_ephemeral(self):
        pool = WorkerPool(workers=2)
        pool.close()
        got = evaluate_grid(_square, list(range(12)), workers=2,
                            pool=pool, kernel=_square_batch)
        assert got == [p * p for p in range(12)]
        assert not pool.alive

    def test_unpicklable_state_skips_the_warm_pool(self):
        # A lambda context cannot ride the blob; the grid falls back to
        # an ephemeral fork pool (state inherited, never pickled) and
        # the warm pool is left untouched.
        with WorkerPool(workers=2) as pool:
            ctx = lambda p: 3 * p  # noqa: E731 -- deliberately unpicklable
            got = evaluate_grid(_ctx_call, list(range(12)), workers=2,
                                context=ctx, pool=pool,
                                kernel=functools.partial(
                                    _ctx_call_batch, ctx))
            assert got == [3 * p for p in range(12)]
            assert not pool.alive

    def test_closed_pool_refuses_an_executor(self):
        pool = WorkerPool(workers=2)
        pool.close()
        with pytest.raises(RunnerError):
            pool.executor()
        pool.close()    # idempotent


class TestSpawnFallback:
    """Platform regression: every path must survive ``spawn``."""

    @pytest.fixture(autouse=True)
    def force_spawn(self, monkeypatch):
        monkeypatch.setattr(runner_core, "_start_method",
                            lambda: "spawn")

    def test_per_point_parallel_under_spawn(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        got = evaluate_grid(_square, list(range(12)), workers=2,
                            journal=str(path))
        assert got == [p * p for p in range(12)]
        finish = [e for e in read_journal(path)
                  if e["event"] == "pool_finished"][0]
        assert finish["method"] == "spawn"

    def test_chunked_under_spawn(self, tmp_path, chunk_of):
        chunk_of(3)
        path = tmp_path / "journal.jsonl"
        got = evaluate_grid(_square, list(range(12)), workers=2,
                            journal=str(path), kernel=_square_batch)
        assert got == [p * p for p in range(12)]
        finish = [e for e in read_journal(path)
                  if e["event"] == "pool_finished"][0]
        assert finish["method"] == "spawn"
        assert finish["chunks"] == 4

    def test_unpicklable_state_degrades_to_serial(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        got = evaluate_grid(_ctx_call, list(range(8)), workers=2,
                            context=lambda p: 3 * p, journal=str(path))
        assert got == [3 * p for p in range(8)]
        names = _events(path)
        assert "chunk_submitted" not in names
        assert "point_started" in names

    def test_unpicklable_state_degrades_to_serial_batch(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ctx = lambda p: 3 * p  # noqa: E731 -- deliberately unpicklable
        got = evaluate_grid(_ctx_call, list(range(8)), workers=2,
                            context=ctx, journal=str(path),
                            kernel=functools.partial(_ctx_call_batch, ctx))
        assert got == [3 * p for p in range(8)]
        names = _events(path)
        assert "chunk_submitted" not in names
        assert "batch_started" in names

    def test_warm_spawn_pool_ships_the_blob(self, chunk_of):
        chunk_of(2)
        with WorkerPool(workers=2, method="spawn") as pool:
            pids = set(evaluate_grid(_square, list(range(8)), workers=2,
                                     pool=pool, kernel=_pid_batch))
            assert os.getpid() not in pids
            again = set(evaluate_grid(_square, list(range(8)),
                                      workers=2, pool=pool,
                                      kernel=_pid_batch))
            assert pool.generation == 1
            assert len(pids | again) <= 2


class TestSessionPoolWiring:
    def test_parallel_session_owns_a_shared_pool(self):
        from repro.session import Session

        session = Session(workers=2, store=None)
        try:
            assert isinstance(session.pool, WorkerPool)
            assert session.runner.pool is session.pool
        finally:
            session.close()
        assert session.pool.closed

    def test_serial_session_has_no_pool(self):
        from repro.session import Session

        session = Session(store=None)
        try:
            assert session.pool is None
        finally:
            session.close()

    def test_bad_pool_policy_rejected(self):
        # The session owns its pool; the old ``pool=`` policy knob
        # ("shared" / "fresh" / a caller's pool) is gone, not ignored.
        from repro.session import Session

        with pytest.raises(TypeError, match="pool"):
            Session(workers=2, store=None, pool="fresh")

    def test_caller_pool_is_not_owned(self):
        from repro.runner import Runner

        with WorkerPool(workers=2) as pool:
            runner = Runner(workers=2, pool=pool)
            assert runner.run(_square, list(range(8))) \
                == [p * p for p in range(8)]
            runner.close()
            assert not pool.closed    # caller owns it
            assert pool.alive


class TestStateTransports:
    """The two ways grid state reaches workers, on the real state that
    needs each of them."""

    def test_unpicklable_case_study_reaches_workers_by_fork(
            self, mult_study):
        import pickle

        from repro.runner import Runner
        from repro.subvt.variation import corner_study

        with pytest.raises(RecursionError):
            pickle.dumps(mult_study)
        serial = corner_study(mult_study)
        with WorkerPool(workers=2) as pool:
            runner = Runner(workers=2, pool=pool)
            parallel = corner_study(mult_study, runner=runner)
            # The study cannot ride the warm pool's blob: the grid ran on
            # an ephemeral pool whose forked workers inherited it.
            assert not pool.alive
        assert runner.stats.evaluated == len(parallel.results)
        assert parallel == serial

    def test_warm_pool_receives_the_blob(self, mult_study):
        from repro.analysis.sweep import sweep
        from repro.runner import Runner

        freqs = [1e4, 1e5, 1e6]
        with WorkerPool(workers=2) as pool:
            runner = Runner(workers=2, pool=pool)
            first = sweep(mult_study.model, freqs, runner=runner)
            again = sweep(mult_study.model, freqs, runner=runner)
            assert pool.alive and pool.generation == 1
        assert first == again == sweep(mult_study.model, freqs)
