"""Tracer/span semantics: nesting, timing, sinks, the no-op path, and
the layer spans opened under whichever tracer is innermost."""

import json
import threading

from repro.obs.trace import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Tracer,
    layer,
)
from repro.obs.report import load_events


@layer("sta.run")
def _layered(x):
    return 2 * x


def _point(x):
    return _layered(x) + 1


class TestSpans:
    def test_span_emitted_on_exit_with_elapsed(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", label="x"):
            pass
        (line,) = sink.lines
        assert line["event"] == "span"
        assert line["name"] == "work"
        assert line["label"] == "x"
        assert line["elapsed"] >= 0.0
        assert line["start"] >= 0.0
        assert "t" in line
        assert tracer.spans == 1

    def test_announced_span_writes_an_opening_line(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("grid", announce=True, points=3) as span:
            (opening,) = sink.lines
            assert opening["elapsed"] is None
            assert opening["points"] == 3
            assert "announce" not in opening
            span.set(status="ok")
        opening, closing = sink.lines
        assert closing["id"] == opening["id"]
        assert closing["status"] == "ok" and "status" not in opening
        assert tracer.spans == 1            # one span, two lines

    def test_null_tracer_takes_announce(self):
        with NULL_TRACER.span("point", announce=True, index=0) as span:
            span.set(status="ok")
        assert NULL_TRACER.spans == 0

    def test_nesting_assigns_parent_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        # children are emitted before their parent
        assert [l["name"] for l in sink.lines] \
            == ["inner", "sibling", "outer"]
        by_name = {l["name"]: l for l in sink.lines}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]

    def test_span_ids_are_unique(self):
        tracer = Tracer(MemorySink())
        ids = set()
        for _ in range(100):
            with tracer.span("s") as span:
                ids.add(span.span_id)
        assert len(ids) == 100

    def test_monotonic_containment(self):
        """A child's [start, start+elapsed] lies inside its parent's."""
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.lines
        assert outer["start"] <= inner["start"]
        assert inner["start"] + inner["elapsed"] \
            <= outer["start"] + outer["elapsed"] + 1e-9

    def test_set_attaches_attrs_until_finish(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("s") as span:
            span.set(status="ok", attempts=2)
        span.set(ignored=True)           # after exit: silent no-op
        (line,) = sink.lines
        assert line["status"] == "ok"
        assert line["attempts"] == 2
        assert "ignored" not in line

    def test_finish_is_idempotent(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        span = tracer.span("s")
        span.finish()
        first = span.elapsed
        span.finish()
        assert span.elapsed == first
        assert len(sink.lines) == 1

    def test_exception_still_emits_the_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert len(sink.lines) == 1

    def test_record_emits_pretimed_span_under_current_parent(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("grid") as grid:
            tracer.record("point", 0.5, index=3)
        point, _ = sink.lines
        assert point["name"] == "point"
        assert point["parent"] == grid.span_id
        assert point["elapsed"] == 0.5
        assert point["index"] == 3
        # dated `elapsed` seconds before emission: the tracer is only
        # microseconds old, so the span starts before its own epoch
        assert point["start"] < 0

    def test_threads_nest_independently(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        seen = {}

        def work(name):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main"):
            t = threading.Thread(target=work, args=("other",))
            t.start()
            t.join()
            work("child")
        assert seen["other"] is None      # not under "main"
        assert seen["child"] is not None


class TestNullTracer:
    def test_null_tracer_produces_nothing(self):
        with NULL_TRACER.span("x", a=1) as span:
            span.set(b=2)
        assert NULL_TRACER.record("y", 1.0) is span
        assert NULL_TRACER.spans == 0
        assert not NULL_TRACER.enabled
        NULL_TRACER.close()

    def test_null_span_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestSinks:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        lines = [json.loads(l) for l in open(path)]
        assert [l["name"] for l in lines] == ["inner", "outer"]

    def test_jsonl_sink_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            with Tracer(JsonlSink(path)) as tracer:
                with tracer.span("s"):
                    pass
        assert len(open(path).read().splitlines()) == 2

    def test_journal_sink_interleaves_with_events(self, tmp_path):
        # The serve layer's job journal: lifecycle lines and a tracer's
        # spans through one sink, in write order.
        sink = JsonlSink(tmp_path / "run.jsonl")
        tracer = Tracer(sink)
        sink.emit({"t": 0.0, "event": "job_started", "id": "j"})
        with tracer.span("grid", announce=True, label="x"):
            pass
        sink.emit({"t": 0.0, "event": "job_finished", "id": "j"})
        sink.close()
        events = load_events(sink.path)
        assert [e["event"] for e in events] \
            == ["job_started", "span", "span", "job_finished"]
        opening, closing = events[1:3]
        assert opening["id"] == closing["id"]
        assert opening["elapsed"] is None
        assert closing["elapsed"] >= 0.0
        assert opening["t"] <= closing["t"]

    def test_multiple_sinks_all_receive(self):
        a, b = MemorySink(), MemorySink()
        tracer = Tracer([a, b])
        with tracer.span("s"):
            pass
        assert len(a) == len(b) == 1

    def test_close_closes_sinks(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        tracer = Tracer(sink)
        with tracer.span("s"):
            pass
        tracer.close()
        assert sink._file is None
        tracer.close()               # idempotent


class TestLayer:
    def test_no_open_span_calls_straight_through(self):
        tracer = Tracer(MemorySink())
        with tracer.span("grid"):
            pass
        assert _layered(3) == 6              # after the span closed
        with NULL_TRACER.span("grid"):      # the no-op tracer opens none
            assert _layered(3) == 6
        assert tracer.spans == 1

    def test_opens_span_on_innermost_tracer(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("grid") as grid:
            assert _point(3) == 7
        layered, _ = sink.lines
        assert layered["name"] == "sta.run"
        assert layered["parent"] == grid.span_id

    def test_same_name_nesting_stays_in_one_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("sta.run"):
            _layered(1)
        assert [line["name"] for line in sink.lines] == ["sta.run"]

    def test_finished_span_leaves_the_open_stack(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.span("dangling").finish()    # finished, never exited
        _layered(1)
        assert len(sink.lines) == 1

    def test_interleaved_tracers_keep_separate_parent_chains(self):
        """A Session tracer inside a benchmark ledger's span, or the other
        way round: each span's parent is the innermost open span of its
        own tracer, and a layer span goes to the innermost tracer."""
        sink_a, sink_b = MemorySink(), MemorySink()
        a, b = Tracer(sink_a), Tracer(sink_b)
        with a.span("a1") as a1:
            with b.span("b1") as b1:
                with a.span("a2") as a2:
                    _layered(1)
                    with b.span("b2") as b2:
                        _layered(1)
                        b.record("point", 0.0)
        assert b1.parent_id is None
        assert a2.parent_id == a1.span_id
        assert b2.parent_id == b1.span_id
        a_layer = [l for l in sink_a.lines if l["name"] == "sta.run"]
        b_layer = [l for l in sink_b.lines if l["name"] == "sta.run"]
        assert [l["parent"] for l in a_layer] == [a2.span_id]
        assert [l["parent"] for l in b_layer] == [b2.span_id]
        point = [l for l in sink_b.lines if l["name"] == "point"][0]
        assert point["parent"] == b2.span_id
        for sink in (sink_a, sink_b):
            ids = {l["id"] for l in sink.lines}
            assert all(l["parent"] in ids for l in sink.lines
                       if l["parent"] is not None)

    def test_forked_workers_never_emit(self, tmp_path):
        """Pool workers fork with the grid's spans open; a layer call in
        a worker must not trace on its copy of the parent's tracer."""
        from repro import Session

        path = tmp_path / "trace.jsonl"
        session = Session(trace=str(path), workers=2)
        try:
            got = session.runner.run(_point, list(range(8)), label="fork")
        finally:
            session.close()
        assert got == [2 * x + 1 for x in range(8)]
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # The grid's opening line repeats its id; every closed span's id
        # is unique.
        spans = [line for line in lines if line["elapsed"] is not None]
        ids = [span["id"] for span in spans]
        assert len(ids) == len(set(ids))
        assert len(lines) == len(spans) + 1
        assert all(span["parent"] in set(ids) for span in spans
                   if span["parent"] is not None)
        assert "grid" in {span["name"] for span in spans}
