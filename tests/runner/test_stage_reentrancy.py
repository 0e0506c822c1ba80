"""Self-time attribution when spans nest (``repro.obs.report.self_times``).

The runner's ``stage`` spans and the layer spans below them are the one
timing record; the report charges each span its *self* time.
Regression pinned here: charging each span its full wall-clock counts an
inner span's time twice -- once in its own row and again in the
enclosing one -- so the rows sum to more than the run actually took.
"""

import time

import pytest

from repro.obs.report import self_times
from repro.obs.trace import MemorySink, Tracer


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _seconds(sink):
    """``{span name: self seconds}`` of everything ``sink`` collected."""
    return {name: seconds
            for (_, name), (_, seconds) in self_times(sink.lines).items()}


class TestNestedStages:
    def test_inner_time_not_double_counted(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            _busy(0.02)
            with tracer.span("inner"):
                _busy(0.04)
        seconds = _seconds(sink)
        assert seconds["inner"] == pytest.approx(0.04, abs=0.02)
        # the bug: outer would be ~0.06 (its own 0.02 + inner's 0.04)
        assert seconds["outer"] == pytest.approx(0.02, abs=0.02)
        assert seconds["outer"] < 0.04

    def test_buckets_sum_to_outer_wall_clock(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("a"):
            _busy(0.01)
            with tracer.span("b"):
                _busy(0.01)
                with tracer.span("c"):
                    _busy(0.01)
            with tracer.span("b"):
                _busy(0.01)
        root = [line for line in sink.lines if line["parent"] is None]
        assert len(root) == 1
        assert sum(_seconds(sink).values()) \
            == pytest.approx(root[0]["elapsed"], abs=1e-6)

    def test_stage_nested_under_itself(self):
        """A recursive analysis may re-enter its own span name."""
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work"):
            _busy(0.01)
            with tracer.span("work"):
                _busy(0.01)
        # both levels' self time lands in the one row, once each
        assert _seconds(sink)["work"] == pytest.approx(0.02, abs=0.015)

    def test_sequential_stages_accumulate(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        for _ in range(3):
            with tracer.span("s"):
                _busy(0.005)
        assert _seconds(sink)["s"] == pytest.approx(0.015, abs=0.01)

    def test_exception_still_attributes_self_time(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert set(_seconds(sink)) == {"outer", "inner"}
        with tracer.span("after") as after:    # open spans unwound
            pass
        assert after.parent_id is None
