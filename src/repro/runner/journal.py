"""Append-only JSONL run journal: what the runner did, as it happened.

A :class:`RunJournal` is the runner's black-box recorder.  Every event --
a grid starting, a point being submitted, finished, retried or declared
infeasible, a pool crash, the run's counters -- is appended to one
file as a single JSON object per line, flushed immediately, so an
aborted or wedged run leaves a complete record up to the moment it died.

The schema is deliberately flat.  Every line carries:

``t``
    POSIX timestamp (``time.time()``) when the event was recorded.
``event``
    The event name (see :data:`EVENTS`).
``...``
    Event-specific fields (``index``, ``status``, ``attempts``,
    ``timeouts``, ``elapsed``, ``label``, ``workers``, ...).

Journals are opt-in (pass ``journal=`` to :func:`~repro.runner.core.
evaluate_grid`, :class:`~repro.runner.core.Runner`, ``Session`` or the
``--journal`` CLI flag) because two lines per point is real I/O on a
100k-point grid.  Writes are serialised under a lock so one journal can
be shared by threads; only the parent process ever writes (workers report
their timings back through the result tuple), so lines never interleave.
"""

from __future__ import annotations

import time

from ..obs.report import load_events
from ..obs.trace import JsonlSink

#: Event names a journal may contain (documentation, not enforcement).
EVENTS = (
    "run_start",        # label, points, cached, pending, workers
    "point_started",    # index (in-process per-point loop only)
    "point_finished",   # index, status (ok|infeasible), attempts, timeouts,
                        # elapsed (seconds inside the evaluation)
    "point_retried",    # index, attempts (total extra attempts paid)
    "point_failed",     # index, attempts, timeouts, error (hard failure,
                        # recorded just before the exception propagates)
    "pool_crashed",     # workers, completed, remaining
    "pool_finished",    # workers, method, points, chunks, inflight_peak,
                        # inflight_limit
    "requeue_serial",   # points (remainder re-run in-process)
    "run_finish",       # label, stats (RunStats.to_dict())
    "batch_started",    # label, points (in-process kernel call)
    "batch_finished",   # label, points, ok, infeasible, elapsed
    "batch_failed",     # label, points, error (kernel raised; the points
                        # re-run through the per-point loop)
    "chunks_planned",   # label, points, chunks, per_chunk, workers,
                        # warm (pool executor)
    "chunk_submitted",  # chunk, points, first, last (point indices)
    "chunk_finished",   # chunk, points, ok, infeasible, elapsed, wait
    "chunk_bisected",   # chunk, points, into ([left, right] chunk ids),
                        # error (chunk raised; halves resubmitted)
    "chunk_failed",     # chunk, index, error (poison point isolated at
                        # size 1; re-run in the parent per-point)
    "artifact_hit",     # fingerprint (truncated), source (memory|disk)
    "artifact_miss",    # fingerprint (truncated)
    "artifact_built",   # fingerprint (truncated), design, elapsed
    "span",             # name, id, parent, start, elapsed, ... (a trace
                        # span routed here by obs.trace.JournalSink)
)


class RunJournal(JsonlSink):
    """Append-only JSONL event log for runner executions: a
    :class:`~repro.obs.trace.JsonlSink` whose lines are stamped events.

    Parameters
    ----------
    path:
        File to append to (created on the first event).  An existing
        journal is extended, never truncated, so one file can cover a
        whole session of runs.
    """

    def record(self, event, **fields):
        """Append one event line (flushed immediately)."""
        line = {"t": time.time(), "event": event}
        line.update(fields)
        self.emit(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return "RunJournal({!r}, events={})".format(self.path, self.events)


class _NullJournal:
    """Do-nothing journal so call sites never need a ``None`` check."""

    path = None
    events = 0

    def record(self, event, **fields):
        pass

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def __repr__(self):
        return "NULL_JOURNAL"


#: Shared no-op journal used whenever no journal was requested.
NULL_JOURNAL = _NullJournal()


def read_journal(path):
    """Parse a JSONL journal back into a list of event dicts.

    Unparseable lines (a crash mid-write on a non-atomic filesystem) are
    skipped rather than raising: the journal exists to debug failures, so
    reading one must not fail.
    """
    return load_events(str(path))
