"""Chunks on the pool executor of :func:`evaluate_grid`.

With ``workers > 1`` every pending point travels in a chunk: a kernel
grid is sharded into contiguous chunks and the kernel runs inside the
pool workers; a fn-only grid ships chunks of one point.  The contract
under test: results identical to the in-process paths, chunk sizing
worked out from whether a kernel was given, bounded in-flight
submission, bisect-and-retry isolation of poison points without losing
their siblings, per-point store writeback and point spans preserved,
and chunk-level observability (grid and chunk spans, metrics).
"""

import functools

import pytest

from repro.errors import ScpgError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, Tracer
from repro.runner import RunStats, SqliteStore, evaluate_grid
from repro.runner import core as runner_core
from repro.runner.core import (
    CHUNK_CAP,
    CHUNK_FLOOR,
    MAX_INFLIGHT_PER_WORKER,
    _chunk_points,
)


def _square(point):
    return point * point


def _square_batch(points):
    return [p * p for p in points]


def _ctx_scale(ctx, point):
    return ctx * point


def _ctx_scale_batch(ctx, points):
    return [ctx * p for p in points]


POISON = 13


def _poison_point(point):
    if point == POISON:
        raise RuntimeError("poison {}".format(point))
    return point * point


def _poison_batch(points):
    return [_poison_point(p) for p in points]


def _soft_poison_point(point):
    if point == POISON:
        raise ScpgError("infeasible {}".format(point))
    return point * point


def _soft_poison_batch(points):
    return [_soft_poison_point(p) for p in points]


def _chunk_ranges(trace):
    """Sorted ``(first, last)`` point indices of each landed chunk."""
    members = {}
    for line in trace.spans("point"):
        members.setdefault(line["parent"], []).append(line["index"])
    return sorted((min(v), max(v)) for v in members.values())


class TestChunkSizing:
    def test_fn_grids_ship_one_point_per_chunk(self, trace):
        evaluate_grid(_square, list(range(10)), workers=2,
                      tracer=trace.tracer)
        (grid,) = trace.spans("grid")
        assert grid["per_chunk"] == 1
        assert grid["chunks"] == 10

    def test_adaptive_targets_four_chunks_per_worker(self):
        # ceil(195 / (4 * 2)) = 25 points per chunk
        assert _chunk_points(195, 2) == 25

    def test_floor_keeps_ipc_amortised_on_tiny_grids(self):
        assert _chunk_points(10, 4) == CHUNK_FLOOR

    def test_cap_bounds_work_lost_to_a_dead_worker(self):
        assert _chunk_points(10 ** 6, 2) == CHUNK_CAP


class TestChunkedPath:
    def test_results_match_serial(self):
        points = list(range(40))
        assert evaluate_grid(_square, points, workers=2,
                             kernel=_square_batch) \
            == evaluate_grid(_square, points)

    def test_context_forwarded(self):
        # The kernel carries its own context (a picklable partial); the
        # grid context still reaches ``fn`` on the per-point paths.
        got = evaluate_grid(_ctx_scale, list(range(12)), workers=2,
                            context=10,
                            kernel=functools.partial(_ctx_scale_batch, 10))
        assert got == [10 * p for p in range(12)]

    def test_journal_records_chunk_lifecycle(self, trace, chunk_of):
        chunk_of(2)
        evaluate_grid(_square, list(range(10)), workers=2,
                      tracer=trace.tracer, label="chunky",
                      kernel=_square_batch)
        (grid,) = trace.spans("grid")
        assert (grid["label"], grid["status"]) == ("chunky", "ok")
        assert grid["chunks"] == 5
        assert grid["per_chunk"] == 2
        chunks = trace.spans("chunk")
        assert [c["status"] for c in chunks] == ["ok"] * 5
        assert sorted(c["chunk"] for c in chunks) == [1, 2, 3, 4, 5]
        points = trace.spans("point")
        assert sorted(p["index"] for p in points) == list(range(10))
        assert {p["parent"] for p in points} \
            == {c["id"] for c in chunks}

    def test_submitted_chunks_are_contiguous_index_ranges(self, trace,
                                                          chunk_of):
        chunk_of(4)
        evaluate_grid(_square, list(range(20)), workers=2,
                      tracer=trace.tracer, kernel=_square_batch)
        assert _chunk_ranges(trace) \
            == [(0, 3), (4, 7), (8, 11), (12, 15), (16, 19)]

    def test_bounded_submission(self, trace, chunk_of):
        chunk_of(1)
        evaluate_grid(_square, list(range(48)), workers=2,
                      tracer=trace.tracer, kernel=_square_batch)
        (finish,) = trace.spans("grid")
        limit = MAX_INFLIGHT_PER_WORKER * 2
        assert finish["inflight_limit"] == limit
        # 48 one-point chunks >> limit: the first fill loop must stop
        # exactly at the bound.
        assert finish["inflight_peak"] == limit

    def test_cache_writeback_is_per_point(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        points = list(range(16))
        cold = RunStats()
        evaluate_grid(_square, points, workers=2, cache=cache,
                      cache_key="sq", stats=cold, kernel=_square_batch)
        assert cold.evaluated == 16
        assert cache.puts == 16
        warm = RunStats()
        got = evaluate_grid(_square, points, workers=2, cache=cache,
                            cache_key="sq", stats=warm,
                            kernel=_square_batch)
        assert got == [p * p for p in points]
        assert warm.evaluated == 0
        assert warm.cache_hits == 16

    def test_partial_cache_chunks_only_the_misses(self, tmp_path, trace):
        cache = SqliteStore(tmp_path / "store.sqlite")
        evaluate_grid(_square, list(range(8)), cache=cache,
                      cache_key="sq", kernel=_square_batch)
        got = evaluate_grid(_square, list(range(12)), workers=2,
                            cache=cache, cache_key="sq",
                            tracer=trace.tracer, kernel=_square_batch)
        assert got == [p * p for p in range(12)]
        (grid,) = trace.spans("grid")
        assert grid["pending"] == 4      # 0..7 came from the cache
        assert sorted(p["index"] for p in trace.spans("point")) \
            == [8, 9, 10, 11]

    def test_infeasible_nones_counted(self, chunk_of):
        chunk_of(20)
        stats = RunStats()
        got = evaluate_grid(
            _soft_poison_point, list(range(20)), workers=2,
            on_error=(ScpgError,), stats=stats,
            kernel=lambda pts: [None if p == POISON else p * p
                                  for p in pts])
        assert got[POISON] is None
        assert got[0] == 0 and got[19] == 361
        assert stats.infeasible == 1


class TestBisectAndRetry:
    def test_hard_poison_isolated_siblings_kept(self, tmp_path, trace):
        cache = SqliteStore(tmp_path / "store.sqlite")
        with pytest.raises(RuntimeError, match="poison 13"):
            evaluate_grid(_poison_point, list(range(32)), workers=2,
                          cache=cache, cache_key="pz", retries=0,
                          tracer=trace.tracer, kernel=_poison_batch)
        # Every sibling of the poison point was flushed before the raise.
        assert cache.puts == 31
        statuses = [c["status"] for c in trace.spans("chunk")]
        assert "bisected" in statuses
        (poison,) = [c for c in trace.spans("chunk")
                     if c["status"] == "poison"]
        assert poison["index"] == POISON
        assert "poison 13" in poison["error"]
        hard = [p for p in trace.spans("point")
                if p["status"] == "failed"]
        assert [p["index"] for p in hard] == [POISON]
        assert "poison 13" in hard[0]["error"]
        (grid,) = trace.spans("grid")
        assert grid["status"] == "failed"

    def test_bisection_halves_trace_back_to_the_parent_chunk(
            self, trace, chunk_of):
        chunk_of(32)
        with pytest.raises(RuntimeError):
            evaluate_grid(_poison_point, list(range(32)), workers=2,
                          retries=0, tracer=trace.tracer,
                          kernel=_poison_batch)
        bisected = {c["chunk"]: c["into"] for c in trace.spans("chunk")
                    if c["status"] == "bisected"}
        # 32 -> 16 -> 8 -> 4 -> 2 -> 1: five levels to isolate.
        assert len(bisected) == 5
        children = {c for into in bisected.values() for c in into}
        # Every bisected chunk except the original came from a split.
        roots = set(bisected) - children
        assert roots == {1}

    def test_soft_poison_degrades_to_infeasible(self, trace):
        stats = RunStats()
        got = evaluate_grid(_soft_poison_point, list(range(32)),
                            workers=2, on_error=(ScpgError,), retries=0,
                            stats=stats, tracer=trace.tracer,
                            kernel=_soft_poison_batch)
        assert got[POISON] is None
        assert [got[p] for p in range(32) if p != POISON] \
            == [p * p for p in range(32) if p != POISON]
        assert stats.infeasible == 1
        assert "poison" in [c["status"] for c in trace.spans("chunk")]
        (grid,) = trace.spans("grid")
        assert grid["requeued"] == 1

    def test_poison_retried_under_the_per_point_policy(self, tmp_path,
                                                       chunk_of, trace):
        # The kernel has no retry policy; the isolated point re-runs in
        # the parent where retry_on applies, so a transient poison heals.
        marker = tmp_path / "tries"

        def flaky(point):
            if point == POISON and not marker.exists():
                marker.write_text("1")
                raise OSError("transient")
            return point * point

        def poison_kernel(points):
            if POISON in points:
                raise OSError("kernel cannot take {}".format(POISON))
            return [p * p for p in points]

        chunk_of(8)
        got = evaluate_grid(flaky, list(range(32)), workers=2,
                            retry_on=(OSError,), retries=2, backoff=0,
                            tracer=trace.tracer, kernel=poison_kernel)
        assert got == [p * p for p in range(32)]
        assert "poison" in [c["status"] for c in trace.spans("chunk")]
        retried = [p for p in trace.spans("point") if p["attempts"]]
        assert [(p["index"], p["status"]) for p in retried] \
            == [(POISON, "ok")]


class TestChunkObservability:
    def test_chunk_spans_parent_the_point_spans(self, chunk_of):
        chunk_of(4)
        sink = MemorySink()
        tracer = Tracer(sink)
        evaluate_grid(_square, list(range(12)), workers=2,
                      tracer=tracer, kernel=_square_batch)
        chunk_ids = {line["id"] for line in sink
                     if line["name"] == "chunk"}
        assert len(chunk_ids) == 3
        points = [line for line in sink if line["name"] == "point"]
        assert len(points) == 12
        assert {line["parent"] for line in points} <= chunk_ids

    def test_metrics_observe_chunks(self, chunk_of):
        chunk_of(4)
        registry = MetricsRegistry()
        evaluate_grid(_square, list(range(12)), workers=2,
                      metrics=registry, kernel=_square_batch)
        assert registry.histogram("repro_chunk_seconds").count == 3
        assert registry.gauge("repro_points_per_chunk").value == 4

    def test_serial_runs_create_no_chunk_series(self):
        registry = MetricsRegistry()
        evaluate_grid(_square, list(range(12)), metrics=registry,
                      kernel=_square_batch)
        names = {metric.name for metric in registry}
        assert "repro_chunk_seconds" not in names
        assert "repro_points_per_chunk" not in names

    def test_report_surfaces_chunks_and_bisects(self, trace, chunk_of):
        from repro.obs.report import JournalReport

        chunk_of(8)
        with pytest.raises(RuntimeError):
            evaluate_grid(_poison_point, list(range(32)), workers=2,
                          retries=0, tracer=trace.tracer,
                          label="poisoned", kernel=_poison_batch)
        report = JournalReport(trace.lines)
        grid = report.grids[0]
        assert grid.chunks == 4
        assert grid.bisects >= 1
        assert grid.poisoned == 1
        kinds = {a.kind for a in report.anomalies()}
        assert "chunk-bisect" in kinds
        assert "chunk" in report.render()


class TestPerPointBoundedSubmission:
    """Fn-only grids: chunks of one point, bounded like kernel chunks."""

    def test_inflight_never_exceeds_k_times_workers(self, trace):
        evaluate_grid(_square, list(range(48)), workers=2,
                      tracer=trace.tracer)
        (finish,) = trace.spans("grid")
        limit = MAX_INFLIGHT_PER_WORKER * 2
        assert finish["inflight_limit"] == limit
        assert finish["inflight_peak"] == limit
        assert finish["pending"] == 48

    def test_fork_state_cleared_after_chunked_run(self):
        evaluate_grid(_square, list(range(12)), workers=2,
                      kernel=_square_batch)
        assert runner_core._GRID_STATE is None
        assert not runner_core._FORK_LOCK.locked()
