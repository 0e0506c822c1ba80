"""Trace replay: parsing, aggregation, anomaly detection."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.report import (
    Anomaly,
    GridRecord,
    JournalReport,
    load_events,
    percentile,
    render_report,
    self_times,
)


def _span(name, span_id, elapsed, parent=None, **attrs):
    line = {"t": 0.0, "event": "span", "name": name, "id": span_id,
            "parent": parent, "start": 0.0, "elapsed": elapsed}
    line.update(attrs)
    return line


def _point(index, elapsed, status="ok", attempts=0, timeouts=0, **attrs):
    return _span("point", 100 + index, elapsed, parent=2, index=index,
                 status=status, attempts=attempts, timeouts=timeouts,
                 **attrs)


def _grid_events(label="sweep", elapsed=(), cache=None, cached=0,
                 finished=True, extra=(), **closing):
    """A grid span's lines: its opening line, one point span per
    ``elapsed``, ``extra``, then (``finished``) its closing line
    carrying ``closing`` on top of the runner's usual attributes."""
    points = len(elapsed) + cached
    events = [_span("grid", 1, None, label=label, points=points)]
    events += [_point(i, t) for i, t in enumerate(elapsed)]
    events.extend(extra)
    if finished:
        attrs = dict(label=label, points=points, cached=cached,
                     pending=len(elapsed), workers=1, status="ok")
        if cache is not None:
            attrs["cache"] = cache
        attrs.update(closing)
        events.append(_span("grid", 1, sum(elapsed), **attrs))
    return events


class TestLoadEvents:
    def test_path_file_and_list_sources(self, tmp_path):
        events = [{"event": "job_started"}, {"event": "span"}]
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert load_events(str(path)) == events
        with open(path) as f:
            assert load_events(f) == events
        assert load_events(events) == events

    def test_torn_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "span"}\n\n{"eve\n')
        assert len(load_events(str(path))) == 1

    def test_lines_that_are_not_objects_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('[1, 2]\n3\n"span"\nnull\n{"event": "span"}\n')
        assert load_events(str(path)) == [{"event": "span"}]
        assert load_events([[1, 2], 3, {"event": "span"}]) \
            == [{"event": "span"}]
        text = render_report(str(path))
        assert "0 grid run(s)" in text


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.95) == 96
        assert percentile(values, 1.0) == 100
        assert percentile([5.0], 0.5) == 5.0
        assert percentile([], 0.5) is None


class TestParsing:
    def test_grid_window_aggregation(self):
        report = JournalReport(_grid_events(elapsed=(0.1, 0.2, 0.3)))
        (grid,) = report.grids
        assert grid.label == "sweep"
        assert grid.evaluated == 3
        assert grid.total_s == pytest.approx(0.6)
        assert grid.ok == 3
        assert grid.finished

    def test_infeasible_and_retries_counted(self):
        extra = [_point(9, 0.05, status="infeasible", attempts=2,
                        timeouts=1)]
        report = JournalReport(_grid_events(elapsed=(0.1,), extra=extra))
        (grid,) = report.grids
        assert grid.infeasible == 1
        assert grid.retries == 2
        assert grid.timeouts == 1

    def test_multiple_runs_fold_by_label(self):
        events = _grid_events("a", (0.1,)) + _grid_events("b", (0.2,)) \
            + _grid_events("a", (0.3,))
        report = JournalReport(events)
        folded = report.by_label()
        assert list(folded) == ["a", "b"]
        assert len(folded["a"]) == 2

    def test_unfinished_run_is_kept_and_flagged(self):
        report = JournalReport(_grid_events(elapsed=(0.1,),
                                            finished=False))
        (grid,) = report.grids
        assert not grid.finished
        kinds = [a.kind for a in report.anomalies()]
        assert "aborted" in kinds

    def test_artifact_events_outside_and_inside_runs(self):
        events = [_span("artifact_build", 50, 1.5, fingerprint="ab",
                        design="mult16")]
        events += _grid_events(elapsed=(0.1,), extra=[
            _span("artifact_hit", 51, 0.0, fingerprint="ab",
                  source="memory")])
        report = JournalReport(events)
        assert report.artifact_hits == 1
        assert report.artifact_misses == 1
        assert report.artifact_builds == [("mult16", 1.5)]

    def test_unknown_events_ignored(self):
        events = _grid_events(elapsed=(0.1,))
        events.insert(1, {"event": "totally_new_event", "x": 1})
        events.insert(1, {"event": "job_started", "id": "job-000001"})
        report = JournalReport(events)
        assert report.grids[0].evaluated == 1

    def test_non_numeric_elapsed_skipped(self):
        events = _grid_events(elapsed=(0.1, 0.2))
        events.insert(2, _point(7, "slow"))
        events.insert(2, _span("sta.run", 60, [1], parent=2))
        report = JournalReport(events)
        assert report.grids[0].evaluated == 2
        assert all(isinstance(line["elapsed"], float)
                   for line in report.spans)
        assert self_times(events)[("-", "point")] \
            == [2, pytest.approx(0.3)]
        assert "timings (self-time per span)" in render_report(events)

    def test_failed_batch_points_counted_once(self):
        # A kernel call that raised hands its points to the per-point
        # loop, whose spans carry them.
        extra = [_span("batch", 3, 0.01, parent=2, points=2,
                       status="failed", error="RuntimeError('k')")]
        report = JournalReport(_grid_events(elapsed=(0.1, 0.2),
                                            extra=extra))
        assert report.grids[0].evaluated == 2


class TestStageSeconds:
    def test_spans_join_stages_to_grid_labels(self):
        events = [
            {"event": "span", "name": "grid", "id": 1, "parent": None,
             "start": 0.0, "elapsed": 1.0, "label": "sweep:mult16"},
            {"event": "span", "name": "stage", "id": 2, "parent": 1,
             "start": 0.0, "elapsed": 0.4, "stage": "cache"},
            {"event": "span", "name": "stage", "id": 3, "parent": 1,
             "start": 0.4, "elapsed": 0.6, "stage": "evaluate"},
        ]
        totals = self_times(JournalReport(events).spans)
        assert totals[("sweep:mult16", "cache")] \
            == [1, pytest.approx(0.4)]
        assert totals[("sweep:mult16", "evaluate")] \
            == [1, pytest.approx(0.6)]
        assert totals[("-", "grid")] == [1, pytest.approx(0.0)]

    def test_layer_rows_are_self_time_per_span_name(self):
        events = [
            {"event": "span", "name": "command", "id": 1, "parent": None,
             "elapsed": 1.0},
            {"event": "span", "name": "sta.run", "id": 2, "parent": 1,
             "elapsed": 0.5},
            {"event": "span", "name": "netlist.levelize", "id": 3,
             "parent": 2, "elapsed": 0.2},
            {"event": "span", "name": "netlist.levelize", "id": 4,
             "parent": 1, "elapsed": 0.1},
        ]
        assert self_times(events) == {
            ("-", "command"): [1, pytest.approx(0.4)],
            ("-", "sta.run"): [1, pytest.approx(0.3)],
            ("-", "netlist.levelize"): [2, pytest.approx(0.3)]}
        text = render_report(events)
        assert "timings (self-time per span)" in text
        row = [line for line in text.splitlines()
               if "netlist.levelize" in line][0]
        assert row.split()[2] == "2"            # two spans in the row

    def test_parallel_children_clamp_parent_at_zero(self):
        """Pool chunks overlap, so their sum can outlast the stage."""
        events = [
            {"event": "span", "name": "stage", "id": 1, "parent": None,
             "elapsed": 1.0, "stage": "evaluate"},
            {"event": "span", "name": "chunk", "id": 2, "parent": 1,
             "elapsed": 0.8},
            {"event": "span", "name": "chunk", "id": 3, "parent": 1,
             "elapsed": 0.8},
        ]
        totals = self_times(events)
        assert totals[("(all)", "evaluate")] == [1, 0.0]
        assert totals[("-", "chunk")] == [2, pytest.approx(1.6)]


class TestTraceOnly:
    """The grid records come from the ``grid`` spans alone: each opens
    with an announced line and closes with its final one."""

    def test_grid_rows_from_spans(self):
        spans = [
            _span("grid", 1, None, label="a", points=3),
            _span("point", 3, None, parent=2, index=0),
            _span("point", 3, 0.2, parent=2, index=0, status="ok"),
            _span("point", 4, 0.4, parent=2, index=1,
                  status="infeasible"),
            _span("stage", 2, 0.7, parent=1, stage="evaluate"),
            _span("grid", 1, 0.8, label="a", points=3, cached=1,
                  pending=2, workers=1, status="ok"),
            _span("grid", 5, None, label="b", points=3),
            _span("batch", 6, 0.3, parent=5, points=3, status="ok",
                  ok=2, infeasible=1),
            _span("grid", 5, 0.4, label="b", points=3, cached=0,
                  pending=3, workers=1, status="ok"),
        ]
        report = JournalReport(spans)
        a, b = report.grids
        assert (a.label, a.points, a.cached, a.evaluated) == ("a", 3, 1, 2)
        assert (a.ok, a.infeasible, a.indices) == (1, 1, [0, 1])
        assert (b.label, b.points, b.evaluated) == ("b", 3, 3)
        assert (b.ok, b.infeasible) == (2, 1)
        assert b.total_s == pytest.approx(0.3)
        assert a.finished and b.finished
        assert report.anomalies() == []
        assert len(report.spans) == 6           # opening lines left out

    def test_journal_events_win_over_spans(self):
        # Lines of the retired event journal are unknown lines now: the
        # spans alone make the grid.
        events = [{"event": "run_start", "label": "old", "points": 5},
                  {"event": "point_finished", "index": 0,
                   "elapsed": 9.0}]
        events += _grid_events("sweep", elapsed=(0.1,))
        events.append({"event": "run_finish", "label": "old"})
        (grid,) = JournalReport(events).grids
        assert (grid.label, grid.evaluated) == ("sweep", 1)
        assert grid.total_s == pytest.approx(0.1)

    def test_nested_grid_points_go_to_the_innermost(self):
        events = [
            _span("grid", 1, None, label="outer", points=1),
            _span("grid", 2, None, label="inner", points=2),
            _span("point", 3, 0.1, index=0, status="ok"),
            _span("point", 4, 0.1, index=1, status="ok"),
            _span("grid", 2, 0.3, label="inner", status="ok"),
            _span("point", 5, 0.5, index=0, status="ok"),
            _span("grid", 1, 0.6, label="outer", status="ok"),
        ]
        outer, inner = JournalReport(events).grids
        assert (outer.label, outer.evaluated) == ("outer", 1)
        assert (inner.label, inner.evaluated) == ("inner", 2)

    def test_traced_table_1(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        assert main(["--no-cache", "--trace", str(trace),
                     "table", "1", "--fast"]) == 0
        capsys.readouterr()
        report = JournalReport(load_events(str(trace)))
        (grid,) = report.grids
        assert grid.label == "sweep" and grid.points > 0
        assert grid.evaluated == grid.points
        text = report.render()
        assert "journal report: 1 grid run(s), {} points (0 cached, {} " \
            "evaluated)".format(grid.points, grid.points) in text
        assert "per-grid breakdown" in text
        assert "result cache : 0/{} points served".format(grid.points) \
            in text


class TestAnomalies:
    def test_straggler_flagged_over_k_times_p95(self):
        elapsed = [0.01] * 99 + [0.5]
        report = JournalReport(_grid_events(elapsed=elapsed))
        stragglers = [a for a in report.anomalies()
                      if a.kind == "straggler"]
        assert len(stragglers) == 1
        assert "point 99" in stragglers[0].message

    def test_straggler_needs_enough_points(self):
        assert GridRecord(elapsed=[0.001, 1.0],
                          indices=[0, 1]).stragglers() == []

    def test_straggler_floor_suppresses_microsecond_noise(self):
        elapsed = [1e-6] * 99 + [5e-5]   # 50x p95 but under the floor
        report = JournalReport(_grid_events(elapsed=elapsed))
        assert [a for a in report.anomalies()
                if a.kind == "straggler"] == []

    def test_retry_storm(self):
        extra = [_point(i, 0.01, attempts=1) for i in range(5)]
        report = JournalReport(_grid_events(elapsed=(), extra=extra))
        kinds = [a.kind for a in report.anomalies()]
        assert "retry-storm" in kinds

    def test_cold_cache_only_when_cache_was_on(self):
        cold = JournalReport(_grid_events(elapsed=(0.1, 0.1),
                                          cache=True))
        assert "cold-cache" in [a.kind for a in cold.anomalies()]
        # cache off, or an old journal without the field: not flagged
        for cache in (False, None):
            report = JournalReport(_grid_events(elapsed=(0.1, 0.1),
                                                cache=cache))
            assert "cold-cache" not in [a.kind
                                        for a in report.anomalies()]
        warm = JournalReport(_grid_events(elapsed=(0.1,), cache=True,
                                          cached=1))
        assert "cold-cache" not in [a.kind for a in warm.anomalies()]

    def test_pool_crash_and_hard_failure(self):
        extra = [_point(7, 0.01, status="failed", attempts=1,
                        error="ValueError('boom')")]
        report = JournalReport(_grid_events(
            elapsed=(0.1,), extra=extra, crashes=1, requeued=3,
            status="failed", error="ValueError('boom')"))
        kinds = [a.kind for a in report.anomalies()]
        assert "pool-crash" in kinds
        assert kinds.count("hard-failure") == 1
        assert "aborted" not in kinds
        crash = [a for a in report.anomalies()
                 if a.kind == "pool-crash"][0]
        assert "3 points requeued" in crash.message
        failure = [a for a in report.anomalies()
                   if a.kind == "hard-failure"][0]
        assert "point 7 failed: ValueError('boom')" in failure.message

    def test_timeouts_and_chunk_bisect(self):
        extra = [_point(3, 0.2, timeouts=1, attempts=1),
                 _span("chunk", 20, 0.1, parent=2, chunk=1, points=4,
                       status="bisected", into=[2, 3]),
                 _span("chunk", 21, 0.1, parent=2, chunk=3, points=1,
                       status="poison", index=3),
                 _span("chunk", 22, 0.1, parent=2, chunk=2, points=3,
                       status="ok")]
        report = JournalReport(_grid_events(elapsed=(0.1,), extra=extra,
                                            chunks=1, per_chunk=4))
        (grid,) = report.grids
        assert (grid.bisects, grid.poisoned, grid.chunk_elapsed) \
            == (1, 1, [0.1])
        kinds = [a.kind for a in report.anomalies()]
        assert "timeouts" in kinds and "chunk-bisect" in kinds
        assert "chunked dispatch" in report.render()

    def test_failed_grid_without_a_failed_point(self):
        report = JournalReport(_grid_events(
            elapsed=(0.1,), status="failed",
            error="RunnerError('kernel returned 1 results')"))
        (anomaly,) = report.anomalies()
        assert anomaly.kind == "hard-failure"
        assert "grid failed: RunnerError" in anomaly.message

    def test_aborted_names_the_point_in_flight(self):
        events = _grid_events(elapsed=(0.1,), finished=False)
        events.append(_span("point", 300, None, parent=2, index=4))
        (anomaly,) = JournalReport(events).anomalies()
        assert anomaly.kind == "aborted"
        assert "point 4 in flight" in anomaly.message

    def test_anomaly_str(self):
        assert str(Anomaly("straggler", "slow")) == "[straggler] slow"


class TestRender:
    def test_report_sections(self):
        events = _grid_events("sweep:mult16", elapsed=(0.01,) * 99
                              + (0.5,), cache=True)
        events.insert(-1, _span("stage", 2, 1.49, parent=1,
                                stage="evaluate"))
        text = render_report(events)
        assert "journal report: 1 grid run(s), 100 points" in text
        assert "per-grid breakdown" in text
        assert "sweep:mult16" in text
        assert "timings (self-time per span)" in text
        assert "result cache" in text
        assert "[straggler]" in text
        assert "[cold-cache]" in text
        assert text.endswith("\n")

    def test_empty_journal_renders(self):
        text = render_report([])
        assert "0 grid run(s)" in text
        assert "anomalies: none detected" in text

    def test_straggler_k_is_tunable(self):
        elapsed = [0.01] * 99 + [0.05]   # 5x p95
        assert "[straggler]" not in render_report(
            _grid_events(elapsed=elapsed), straggler_k=10.0)
        assert "[straggler]" in render_report(
            _grid_events(elapsed=elapsed), straggler_k=4.0)


_KILLED_CHILD = """
import pathlib, sys, time
from repro.obs.trace import JsonlSink, Tracer
from repro.runner import evaluate_grid

trace, marker = sys.argv[1], pathlib.Path(sys.argv[2])

def point(p):
    if p == 3:
        marker.write_text("in flight")
        time.sleep(120)
    return p * p

evaluate_grid(point, list(range(6)), tracer=Tracer(JsonlSink(trace)),
              label="killed")
"""

_FAILING_CHILD = """
import sys
from repro.obs.trace import JsonlSink, Tracer
from repro.runner import evaluate_grid

def point(p):
    if p == 2:
        raise ValueError("boom {}".format(p))
    return p

try:
    evaluate_grid(point, list(range(4)), retries=0,
                  tracer=Tracer(JsonlSink(sys.argv[1])), label="hard")
except ValueError:
    pass
"""


def _child(script, *args):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-c", script]
                            + [str(a) for a in args], env=env)


class TestKilledRun:
    """Fault injection: the black-box record of a run that died."""

    def test_sigkill_mid_point_reports_aborted_with_the_point(
            self, tmp_path):
        trace, marker = tmp_path / "trace.jsonl", tmp_path / "marker"
        child = _child(_KILLED_CHILD, trace, marker)
        try:
            deadline = time.monotonic() + 60
            while not marker.exists():
                assert child.poll() is None, "child exited early"
                assert time.monotonic() < deadline, "child never started"
                time.sleep(0.02)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        report = JournalReport(load_events(str(trace)))
        (grid,) = report.grids
        assert (grid.label, grid.evaluated, grid.finished) \
            == ("killed", 3, False)
        (anomaly,) = report.anomalies()
        assert anomaly.kind == "aborted"
        assert "point 3 in flight" in anomaly.message
        assert "[aborted]" in render_report(str(trace))

    def test_hard_failure_closes_the_grid_failed(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert _child(_FAILING_CHILD, trace).wait(timeout=120) == 0
        report = JournalReport(load_events(str(trace)))
        (grid,) = report.grids
        assert grid.finished and grid.status == "failed"
        assert [a.kind for a in report.anomalies()] == ["hard-failure"]
        assert "point 2 failed: ValueError('boom 2')" \
            in report.anomalies()[0].message
