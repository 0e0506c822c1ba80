"""Grid evaluation: ordering, parallelism, caching, soft errors."""

import multiprocessing

import pytest

from repro.analysis.sweep import power_cache_key, sweep
from repro.errors import RunnerError, ScpgError
from repro.runner import (
    CachedEvaluator,
    Runner,
    RunStats,
    SqliteStore,
    evaluate_grid,
    resolve_workers,
    stable_hash,
)
from repro.scpg.power_model import Mode

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")


def _square(point):
    return point * point


def _flaky(point):
    if point % 3 == 0:
        raise ValueError("infeasible")
    return -point


class TestEvaluateGrid:
    def test_serial_in_point_order(self):
        assert evaluate_grid(_square, [3, 1, 2]) == [9, 1, 4]

    @needs_fork
    def test_parallel_in_point_order(self):
        points = list(range(40))
        assert evaluate_grid(_square, points, workers=4) \
            == [p * p for p in points]

    def test_context_passed_first(self):
        def fn(context, point):
            return context + point

        assert evaluate_grid(fn, [1, 2], context=10) == [11, 12]

    @needs_fork
    def test_context_inherited_by_workers(self):
        # Unpicklable context (a closure) still reaches fork workers.
        offset = 100

        def fn(context, point):
            return context() + point

        assert evaluate_grid(fn, [1, 2, 3], workers=2,
                             context=lambda: offset) == [101, 102, 103]

    def test_soft_errors_become_none(self):
        assert evaluate_grid(_flaky, [1, 2, 3, 4], on_error=(ValueError,)) \
            == [-1, -2, None, -4]

    @needs_fork
    def test_soft_errors_become_none_parallel(self):
        assert evaluate_grid(_flaky, [1, 2, 3, 4], workers=2,
                             on_error=(ValueError,)) == [-1, -2, None, -4]

    def test_hard_errors_propagate(self):
        with pytest.raises(ValueError):
            evaluate_grid(_flaky, [3])

    def test_stats(self):
        stats = RunStats()
        evaluate_grid(_flaky, [1, 2, 3], on_error=(ValueError,),
                      stats=stats)
        assert stats.points == 3
        assert stats.evaluated == 3
        assert stats.infeasible == 1
        assert stats.cache_hits == stats.cache_misses == 0

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(RunnerError):
            resolve_workers(-1)


class TestGridCaching:
    def test_cold_then_warm(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("test-grid", 1)
        cold, warm = RunStats(), RunStats()
        first = evaluate_grid(_square, [1, 2, 3], cache=cache,
                              cache_key=key, stats=cold)
        second = evaluate_grid(_square, [1, 2, 3], cache=cache,
                               cache_key=key, stats=warm)
        assert first == second == [1, 4, 9]
        assert cold.cache_misses == 3 and cold.evaluated == 3
        assert warm.cache_hits == 3 and warm.evaluated == 0

    def test_infeasible_points_cached(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("test-grid", 2)
        evaluate_grid(_flaky, [2, 3], cache=cache, cache_key=key,
                      on_error=(ValueError,))
        stats = RunStats()
        calls = []

        def spy(point):
            calls.append(point)
            return _flaky(point)

        assert evaluate_grid(spy, [2, 3], cache=cache, cache_key=key,
                             on_error=(ValueError,), stats=stats) \
            == [-2, None]
        assert calls == []
        assert stats.cache_hits == 2
        assert stats.infeasible == 1

    def test_cache_key_partitions_entries(self, tmp_path):
        # A changed evaluation context (new key) must miss; re-running
        # under the old key must still hit.
        cache = SqliteStore(tmp_path / "store.sqlite")
        old, new = stable_hash("ctx", "v1"), stable_hash("ctx", "v2")
        evaluate_grid(_square, [5], cache=cache, cache_key=old)
        stats = RunStats()
        evaluate_grid(_square, [5], cache=cache, cache_key=new,
                      stats=stats)
        assert stats.cache_misses == 1
        stats = RunStats()
        evaluate_grid(_square, [5], cache=cache, cache_key=old,
                      stats=stats)
        assert stats.cache_hits == 1

    def test_no_cache_without_key(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        evaluate_grid(_square, [1, 2], cache=cache, cache_key=None)
        assert len(cache) == 0


class TestCachedEvaluatorCounters:
    def test_infeasible_marker_counts_as_miss_on_both_ledgers(
            self, tmp_path):
        # Regression: a persisted infeasible marker used to count as a
        # store hit *and* a stats cache miss, so hit_rate and the
        # cache's own counters disagreed.
        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("marker-drift")
        evaluate_grid(_flaky, [3], cache=cache, cache_key=key,
                      on_error=(ValueError,))       # persists the marker
        hits0, misses0 = cache.hits, cache.misses

        stats = RunStats()
        evaluator = CachedEvaluator(lambda p: 42, cache=cache,
                                    cache_key=key, stats=stats)
        assert evaluator(3) == 42
        assert stats.cache_hits == 0
        assert stats.cache_misses == 1
        assert cache.hits == hits0                  # marker was not a hit
        assert cache.misses == misses0 + 1
        assert stats.hit_rate == 0.0

    def test_real_hits_still_agree(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("marker-drift-2")
        evaluate_grid(_square, [4], cache=cache, cache_key=key)
        hits0 = cache.hits

        stats = RunStats()
        evaluator = CachedEvaluator(_square, cache=cache, cache_key=key,
                                    stats=stats)
        assert evaluator(4) == 16
        assert evaluator.calls == 0
        assert stats.cache_hits == 1 and stats.cache_misses == 0
        assert cache.hits == hits0 + 1


class TestRunner:
    def test_path_coerced_to_cache(self, tmp_path):
        runner = Runner(cache=str(tmp_path / "store.sqlite"))
        assert isinstance(runner.cache, SqliteStore)

    def test_stats_accumulate_across_runs(self):
        runner = Runner()
        runner.run(_square, [1, 2])
        runner.run(_square, [3])
        assert runner.stats.points == 3
        assert runner.stats.evaluated == 3


class TestSweepThroughRunner:
    FREQS = [0.01e6, 0.1e6, 1e6, 2e6, 5e6, 8e6, 10e6, 14.3e6]

    @needs_fork
    def test_parallel_equals_serial_mult16(self, mult_study):
        serial = sweep(mult_study.model, self.FREQS)
        parallel = sweep(mult_study.model, self.FREQS,
                         runner=Runner(workers=4))
        assert parallel == serial   # dataclasses: exact equality

    def test_design_edit_invalidates(self, mult_study, tmp_path):
        # The cache key covers the model's content: perturbing any model
        # parameter must change the key, so stale entries are unreachable.
        cache = SqliteStore(tmp_path / "store.sqlite")
        runner = Runner(cache=cache)
        sweep(mult_study.model, [1e6], runner=runner)
        misses = cache.misses

        import copy

        edited = copy.copy(mult_study.model)
        edited.e_cycle = mult_study.model.e_cycle * 1.01
        assert power_cache_key(edited) != power_cache_key(mult_study.model)
        sweep(edited, [1e6], runner=runner)
        assert cache.misses > misses

        # An unrelated execution parameter (worker count) keeps the key:
        # rerunning warm out of the same cache, serial or parallel.
        stats = RunStats()
        again = Runner(workers=2 if HAVE_FORK else None, cache=cache,
                       stats=stats)
        rerun = sweep(mult_study.model, [1e6], runner=again)
        assert stats.evaluated == 0
        assert stats.cache_hits == stats.points
        assert rerun == sweep(mult_study.model, [1e6])
