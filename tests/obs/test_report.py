"""Journal/trace replay: parsing, aggregation, anomaly detection."""

import json

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


def _grid_events(label="sweep", elapsed=(), cache=None, cached=0,
                 finished=True, extra=()):
    """A minimal run_start .. run_finish event window."""
    events = [{"t": 0.0, "event": "run_start", "label": label,
               "points": len(elapsed) + cached, "cached": cached,
               "pending": len(elapsed), "workers": 1, "cache": cache}]
    for i, t in enumerate(elapsed):
        events.append({"t": 0.0, "event": "point_finished", "index": i,
                       "status": "ok", "attempts": 0, "timeouts": 0,
                       "elapsed": t})
    events.extend(extra)
    if finished:
        events.append({"t": 0.0, "event": "run_finish", "label": label,
                       "stats": {"evaluated": len(elapsed)}})
    return events


class TestLoadEvents:
    def test_path_file_and_list_sources(self, tmp_path):
        events = [{"event": "run_start"}, {"event": "run_finish"}]
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert load_events(str(path)) == events
        with open(path) as f:
            assert load_events(f) == events
        assert load_events(events) == events

    def test_torn_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "run_start"}\n\n{"eve\n')
        assert len(load_events(str(path))) == 1


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
        extra = [{"event": "point_finished", "index": 9,
                  "status": "infeasible", "attempts": 2, "timeouts": 1,
                  "elapsed": 0.05}]
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
        events = [{"event": "artifact_miss", "fingerprint": "ab"},
                  {"event": "artifact_built", "fingerprint": "ab",
                   "design": "mult16", "elapsed": 1.5}]
        events += _grid_events(elapsed=(0.1,), extra=[
            {"event": "artifact_hit", "fingerprint": "ab",
             "source": "memory"}])
        report = JournalReport(events)
        assert report.artifact_hits == 1
        assert report.artifact_misses == 1
        assert report.artifact_builds == [("mult16", 1.5)]

    def test_unknown_events_ignored(self):
        events = _grid_events(elapsed=(0.1,))
        events.insert(1, {"event": "totally_new_event", "x": 1})
        report = JournalReport(events)
        assert report.grids[0].evaluated == 1


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
    """A trace without journal events reports its grids from the
    ``grid`` spans."""

    def test_grid_rows_from_spans(self):
        spans = [
            {"event": "span", "name": "point", "id": 3, "parent": 2,
             "elapsed": 0.2, "index": 0, "status": "ok"},
            {"event": "span", "name": "point", "id": 4, "parent": 2,
             "elapsed": 0.4, "index": 1, "status": "infeasible"},
            {"event": "span", "name": "stage", "id": 2, "parent": 1,
             "elapsed": 0.7, "stage": "evaluate"},
            {"event": "span", "name": "grid", "id": 1, "parent": None,
             "start": 0.0, "elapsed": 0.8, "label": "a", "points": 3,
             "cached": 1, "pending": 2, "workers": 1},
            {"event": "span", "name": "batch", "id": 6, "parent": 5,
             "elapsed": 0.3, "points": 3},
            {"event": "span", "name": "grid", "id": 5, "parent": None,
             "start": 1.0, "elapsed": 0.4, "label": "b", "points": 3,
             "cached": 0, "pending": 3, "workers": 1},
        ]
        report = JournalReport(spans)
        a, b = report.grids
        assert (a.label, a.points, a.cached, a.evaluated) == ("a", 3, 1, 2)
        assert (a.ok, a.infeasible, a.indices) == (1, 1, [0, 1])
        assert (b.label, b.points, b.evaluated) == ("b", 3, 3)
        assert b.total_s == pytest.approx(0.3)
        assert a.finished and b.finished
        assert report.anomalies() == []

    def test_journal_events_win_over_spans(self):
        events = _grid_events("sweep", elapsed=(0.1,))
        events.append({"event": "span", "name": "grid", "id": 1,
                       "parent": None, "elapsed": 0.2, "label": "sweep",
                       "points": 1, "cached": 0, "pending": 1})
        (grid,) = JournalReport(events).grids
        assert grid.evaluated == 1

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
        extra = [{"event": "point_finished", "index": i, "status": "ok",
                  "attempts": 1, "timeouts": 0, "elapsed": 0.01}
                 for i in range(5)]
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
        extra = [
            {"event": "pool_crashed", "workers": 4, "completed": 1,
             "remaining": 3},
            {"event": "requeue_serial", "points": 3},
            {"event": "point_failed", "index": 7, "attempts": 1,
             "timeouts": 0, "error": "ValueError('boom')"},
        ]
        report = JournalReport(_grid_events(elapsed=(0.1,), extra=extra))
        kinds = [a.kind for a in report.anomalies()]
        assert "pool-crash" in kinds
        assert "hard-failure" in kinds
        crash = [a for a in report.anomalies()
                 if a.kind == "pool-crash"][0]
        assert "3 points requeued" in crash.message

    def test_anomaly_str(self):
        assert str(Anomaly("straggler", "slow")) == "[straggler] slow"


class TestRender:
    def test_report_sections(self):
        events = _grid_events("sweep:mult16", elapsed=(0.01,) * 99
                              + (0.5,), cache=True)
        events.append({"event": "span", "name": "stage", "id": 2,
                       "parent": 1, "elapsed": 1.49, "stage": "evaluate"})
        events.append({"event": "span", "name": "grid", "id": 1,
                       "parent": None, "elapsed": 1.5,
                       "label": "sweep:mult16"})
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
