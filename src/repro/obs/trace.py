"""Nested tracing spans for the runner/session stack and every layer.

A :class:`Tracer` turns a run into a tree of timed spans -- ``grid``
spans containing ``stage`` spans containing ``point`` spans containing
``attempt`` spans, and below them the layer spans that :func:`layer`
opens at each layer's entry points (``netlist.levelize``, ``sta.run``,
...) -- each with a monotonic start offset, an elapsed wall-clock, a
parent id and arbitrary attributes.  Spans are the runner's one record
of a run: what happened (a point's status, a chunk's bisection, a pool
crash) rides on them as attributes, so they answer both "what
happened" and "*where did the time go*, and inside what".

Design constraints, in priority order:

* **zero cost when off** -- the runner traces unconditionally, so the
  disabled path (:data:`NULL_TRACER`) must cost a dict construction and
  an attribute lookup per call, nothing more.  ``benchmarks/
  test_obs_overhead.py`` holds this under 2 % of a sweep point;
* **no dependencies** -- stdlib only, importable from anywhere in the
  package without cycles;
* **flat JSONL lines** -- a serialised span is one flat JSON object
  with ``t`` and ``event`` (``"span"``) fields, so other line types
  (the serve layer's job lifecycle lines) can share its file and
  :mod:`repro.obs.report` skips what it does not know.

Span timing uses ``time.perf_counter`` (monotonic): ``start`` is the
offset in seconds from the owning tracer's epoch, so spans from one
tracer order and nest consistently even if the wall clock steps.
``t`` is the wall time at emission.  Spans are emitted on *exit*,
children before parents -- replay rebuilds the tree from ids, not from
file order.  A span opened with ``announce=True`` (the runner's ``grid``
spans and in-process ``point`` spans) also writes a line when it opens,
with ``elapsed: null``, so a run killed inside it still leaves a record
of what was in flight.

Only the parent process traces: fork-pool workers report their timings
back through the result tuple and the parent records an
externally-timed span via :meth:`Tracer.record`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class _OpenSpans(threading.local):
    """The spans open on this thread, innermost last, of every tracer."""

    def __init__(self):
        self.stack = []


_open = _OpenSpans()


# A forked child inherits its parent's open spans; tracing under them
# would reuse the parent's span ids and write into its sinks.
os.register_at_fork(after_in_child=lambda: _open.stack.clear())


def layer(name):
    """Decorate a layer entry point: each call runs inside a span ``name``
    on the tracer owning the innermost open span of the calling thread.

    With no span open (or in a forked worker) the call goes straight
    through, at the cost of one thread-local read.  A call made while a
    span of the same name is innermost stays inside that span.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = _open.stack
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            with stack[-1].tracer.span(name):
                return fn(*args, **kwargs)
        return traced
    return decorate


class Span:
    """One timed region.  Context manager; emitted to sinks on exit.

    Attributes may be attached at creation (``tracer.span(name, k=v)``)
    or later via :meth:`set` -- e.g. a point's status, known only once
    the evaluation returns.  ``set`` after exit is a silent no-op (the
    span has already been emitted), not an error.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start",
                 "elapsed", "attrs", "_done")

    def __init__(self, tracer, name, span_id, parent_id, start, attrs):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.elapsed = None
        self.attrs = attrs
        self._done = False

    def set(self, **attrs):
        """Attach attributes (chainable); ignored after the span ends."""
        if not self._done:
            self.attrs.update(attrs)
        return self

    def finish(self):
        """End the span now (idempotent; ``__exit__`` calls this)."""
        if self._done:
            return
        self._done = True
        self.elapsed = self.tracer._now() - self.start
        if self in _open.stack:
            _open.stack.remove(self)
        self.tracer._emit(self)

    def to_dict(self):
        """The JSONL line for this span (see module docstring)."""
        line = {
            "t": time.time(),
            "event": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": round(self.start, 9),
            "elapsed": round(self.elapsed, 9)
            if self.elapsed is not None else None,
        }
        line.update(self.attrs)
        return line

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.finish()
        return False

    def __repr__(self):
        return "Span({!r}, id={}, parent={}, elapsed={})".format(
            self.name, self.span_id, self.parent_id, self.elapsed)


class _NullSpan:
    """The shared do-nothing span the :data:`NULL_TRACER` hands out."""

    __slots__ = ()
    elapsed = None

    def set(self, **attrs):
        return self

    def finish(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __repr__(self):
        return "NULL_SPAN"


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested spans and fans finished ones out to sinks.

    Parameters
    ----------
    sinks:
        One sink or a list of sinks; each needs an ``emit(line_dict)``
        and (optionally) a ``close()``.  See :class:`MemorySink` and
        :class:`JsonlSink`.

    Nesting is tracked per thread, so one tracer may be shared by
    threads; span ids are unique across threads.  A span's parent
    is the innermost open span of the same tracer in the same thread --
    the lexical ``with`` nesting, even where two tracers interleave.
    """

    enabled = True

    def __init__(self, sinks=()):
        if hasattr(sinks, "emit"):
            sinks = (sinks,)
        self.sinks = list(sinks)
        self.spans = 0
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()

    # -- internals ---------------------------------------------------------

    def _now(self):
        return time.perf_counter() - self._epoch

    def _parent_id(self):
        for span in reversed(_open.stack):
            if span.tracer is self:
                return span.span_id
        return None

    def _emit(self, span):
        self.spans += 1
        line = span.to_dict()
        for sink in self.sinks:
            sink.emit(line)

    # -- public surface ----------------------------------------------------

    def span(self, name, announce=False, **attrs):
        """Open a nested span; use as a context manager.

        ``announce`` also writes the span's line now, with ``elapsed:
        null`` and the attributes known so far (not counted in
        :attr:`spans`); the line written on exit completes it.
        """
        span = Span(self, name, next(self._ids), self._parent_id(),
                    self._now(), attrs)
        _open.stack.append(span)
        if announce:
            line = span.to_dict()
            for sink in self.sinks:
                sink.emit(line)
        return span

    def record(self, name, elapsed, parent_id=None, **attrs):
        """Emit an externally-timed span (e.g. a point evaluated inside a
        pool worker, whose wall-clock came back in the result tuple).

        The span is parented under the currently open span -- or under
        ``parent_id`` when given (the chunked path parents its ``point``
        spans under the ``chunk`` span recorded a moment earlier, which
        is no longer on the stack) -- and dated ``elapsed`` seconds
        before now, so replay sees the same tree the serial path would
        have produced.
        """
        if parent_id is None:
            parent_id = self._parent_id()
        span = Span(self, name, next(self._ids), parent_id,
                    self._now() - elapsed, attrs)
        span._done = True
        span.elapsed = elapsed
        self._emit(span)
        return span

    def close(self):
        """Close every sink that knows how (idempotent)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return "Tracer(spans={}, sinks={})".format(
            self.spans, len(self.sinks))


class _NullTracer:
    """The no-op tracer the runner uses when tracing is off.

    Every method is the cheapest Python allows while keeping call sites
    branch-free; the whole point of the class is to make ``tracer.span``
    in a hot loop cost less than the loop's own bookkeeping.
    """

    enabled = False
    spans = 0
    sinks = ()

    def span(self, name, **attrs):
        return _NULL_SPAN

    def record(self, name, elapsed, **attrs):
        return _NULL_SPAN

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __repr__(self):
        return "NULL_TRACER"


#: Shared no-op tracer used whenever no tracer was requested.
NULL_TRACER = _NullTracer()


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class MemorySink:
    """Collects span lines in a list -- the test/report-building sink."""

    def __init__(self):
        self.lines = []

    def emit(self, line):
        self.lines.append(line)

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def __repr__(self):
        return "MemorySink({} lines)".format(len(self.lines))


class JsonlSink:
    """Appends lines to a JSONL file (one object per line, flushed, so
    a killed run leaves every line written before it died).

    The file is opened on the first line and appended to, never
    truncated; :meth:`close` may be followed by more lines (the file
    reopens).  Writes are serialised under a lock, so one sink can be
    shared by threads.  ``repro report`` replays the file.
    """

    def __init__(self, path):
        self.path = str(path)
        self.events = 0            # lines written
        self._lock = threading.Lock()
        self._file = None

    def emit(self, line):
        text = json.dumps(line, sort_keys=True, default=repr)
        with self._lock:
            if self._file is None:
                self._file = open(self.path, "a")
            self._file.write(text + "\n")
            self._file.flush()
            self.events += 1

    def close(self):
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __repr__(self):
        return "JsonlSink({!r})".format(self.path)

