"""The run's record: tracer spans written as JSONL, and what
:func:`evaluate_grid` writes into it.

Spans are the runner's one record (its journal): a ``grid`` span and
an in-process ``point`` span also write a line when they open
(``elapsed: null``), so a killed run leaves what was in flight.
"""

import json

from repro.obs.report import load_events
from repro.obs.trace import NULL_TRACER, JsonlSink, Tracer
from repro.runner import RunStats, evaluate_grid


def _square(point):
    return point * point


class TestRunJournal:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("grid", label="unit", points=2):
            tracer.record("point", 0.01, index=0, status="ok")
        tracer.close()
        events = load_events(str(path))
        assert [e["name"] for e in events] == ["point", "grid"]
        assert events[1]["label"] == "unit"
        assert all(e["event"] == "span" and "t" in e for e in events)
        assert events[0]["t"] <= events[1]["t"]

    def test_append_only(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for _ in range(2):
            sink = JsonlSink(path)
            sink.emit({"event": "job_started"})
            sink.close()
        assert len(load_events(str(path))) == 2

    def test_close_is_idempotent_and_reopens(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.emit({"event": "job_started"})
        sink.close()
        sink.close()
        sink.emit({"event": "job_finished"})     # writing reopens
        sink.close()
        assert len(load_events(sink.path)) == 2

    def test_unserialisable_fields_fall_back_to_repr(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        Tracer(sink).record("point", 0.0, error=ValueError("boom"))
        sink.close()
        (event,) = load_events(sink.path)
        assert "boom" in event["error"]

    def test_read_skips_torn_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as f:
            f.write(json.dumps({"event": "span", "name": "grid"}) + "\n")
            f.write('{"event": "span", "na')   # crash mid-write
        assert [e["name"] for e in load_events(str(path))] == ["grid"]

    def test_null_journal_is_inert(self):
        with NULL_TRACER.span("grid", announce=True, label="x") as span:
            span.set(status="ok")
        NULL_TRACER.record("artifact_hit", 0.0, source="memory")
        assert NULL_TRACER.spans == 0 and NULL_TRACER.sinks == ()


class TestGridJournalling:
    def test_serial_grid_writes_the_full_story(self, trace):
        evaluate_grid(_square, [1, 2, 3], tracer=trace.tracer,
                      label="unit")
        grid_lines = [e for e in trace.lines if e["name"] == "grid"]
        # The grid announces itself first and closes last.
        assert trace.lines[0] is grid_lines[0]
        assert trace.lines[-1] is grid_lines[1]
        assert grid_lines[0]["elapsed"] is None
        assert grid_lines[0]["label"] == "unit"
        assert grid_lines[0]["points"] == 3
        points = [e for e in trace.lines if e["name"] == "point"]
        assert len(points) == 6          # an opening and a closing line
        assert [e["index"] for e in trace.spans("point")] == [0, 1, 2]
        (grid,) = trace.spans("grid")
        assert (grid["status"], grid["pending"], grid["cached"]) \
            == ("ok", 3, 0)

    def test_infeasible_points_are_labelled(self, trace):
        def flaky(point):
            if point == 2:
                raise ValueError("infeasible")
            return point

        evaluate_grid(flaky, [1, 2], on_error=(ValueError,),
                      tracer=trace.tracer)
        statuses = {e["index"]: e["status"] for e in trace.spans("point")}
        assert statuses == {0: "ok", 1: "infeasible"}

    def test_cached_points_never_reach_the_journal(self, tmp_path, trace):
        from repro.runner import SqliteStore, stable_hash

        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("journal-cache")
        evaluate_grid(_square, [1, 2], cache=cache, cache_key=key)
        evaluate_grid(_square, [1, 2], cache=cache, cache_key=key,
                      tracer=trace.tracer)
        assert trace.spans("point") == []
        (grid,) = trace.spans("grid")
        assert grid["cached"] == 2 and grid["pending"] == 0
        assert grid["cache"] is True

    def test_shared_journal_spans_runs(self, trace):
        stats = RunStats()
        evaluate_grid(_square, [1], tracer=trace.tracer, stats=stats,
                      label="first")
        evaluate_grid(_square, [2], tracer=trace.tracer, stats=stats,
                      label="second")
        labels = [e["label"] for e in trace.spans("grid")]
        assert labels == ["first", "second"]
