"""Observability: tracing spans, a metrics registry, trace replay.

Three dependency-free layers:

* :mod:`repro.obs.trace` -- :class:`Tracer` produces nested spans
  (grid -> stage -> point -> attempt -> the :func:`layer` spans) with
  monotonic timings and pluggable sinks; :data:`NULL_TRACER` is the
  free-when-off default the runner always calls through.  Spans are the
  runner's one record of a run: statuses, retries, chunk bisections
  and crashes ride on them as attributes;
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` of counters,
  gauges and histograms with Prometheus text exposition; subsumes
  :class:`~repro.runner.instrument.RunStats` via ``fill_from_stats``;
* :mod:`repro.obs.report` -- replay a JSONL trace back into a
  per-grid, per-span report with anomaly flags (``repro report``).

Wired through ``evaluate_grid``/``Runner`` (``tracer=``/``metrics=``),
``Session`` (``trace=``/``metrics=``) and the CLI (``--trace``,
``--metrics``, ``repro report``); see ``docs/observability.md``.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (
    DEFAULT_STRAGGLER_K,
    JournalReport,
    load_events,
    percentile,
    render_report,
)
from .trace import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Span,
    Tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_STRAGGLER_K",
    "Counter",
    "Gauge",
    "Histogram",
    "JournalReport",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "load_events",
    "percentile",
    "render_report",
]
