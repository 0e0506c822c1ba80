"""Counters, gauges and histograms with Prometheus-style exposition.

A :class:`MetricsRegistry` is the aggregate view the tracer is not:
where spans record *individual* timed regions, metrics fold the whole
run into a fixed set of named series -- point latency and queue-wait
histograms observed live by the runner, plus every
:class:`~repro.runner.instrument.RunStats` counter mirrored in by
:meth:`MetricsRegistry.fill_from_stats` at export time (single source of
truth: counters are *snapshotted* from the stats, never incremented in
parallel with them, so the two can never disagree).

``render()`` emits the Prometheus text exposition format (the
``# HELP`` / ``# TYPE`` / sample-line layout every scraper parses);
``to_dict()`` ships the same series as plain JSON and subsumes
``RunStats.to_dict()`` -- every stats key has a metric carrying the same
number, which ``tests/obs/test_metrics.py`` asserts key by key.

Stdlib only; histograms are fixed-bucket (Prometheus semantics: each
bucket counts observations ``<= le``) with an exact running sum/count
and a nearest-rank quantile estimate good enough for straggler
thresholds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

#: Default latency buckets (seconds): sweep points run ~10 us .. ~10 s.
DEFAULT_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _labels_text(labels):
    if not labels:
        return ""
    body = ",".join('{}="{}"'.format(k, v)
                    for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt(value):
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


@dataclass
class Counter:
    """A monotonically increasing count (``set`` exists for snapshots)."""

    name: str
    help: str = ""
    labels: dict = field(default_factory=dict)
    value: float = 0.0
    kind = "counter"

    def inc(self, amount=1.0):
        self.value += amount

    def set(self, value):
        self.value = value

    def samples(self):
        return [(self.name, self.labels, self.value)]

    def to_value(self):
        return self.value


@dataclass
class Gauge:
    """A value that goes up and down (ratios, worker counts)."""

    name: str
    help: str = ""
    labels: dict = field(default_factory=dict)
    value: float = 0.0
    kind = "gauge"

    def set(self, value):
        self.value = value

    def inc(self, amount=1.0):
        self.value += amount

    def samples(self):
        return [(self.name, self.labels, self.value)]

    def to_value(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with Prometheus bucket semantics.

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (cumulative, like the exposition's ``le`` buckets); an implicit
    ``+Inf`` bucket equals ``count``.
    """

    kind = "histogram"

    def __init__(self, name, help="", labels=None,
                 buckets=DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds = tuple(sorted(buckets))
        self._raw = [0] * len(self.bounds)
        self.sum = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def observe(self, value):
        idx = bisect.bisect_left(self.bounds, value)
        if idx < len(self._raw):
            self._raw[idx] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def counts(self):
        """Cumulative per-bucket counts (Prometheus ``le`` semantics)."""
        out, acc = [], 0
        for raw in self._raw:
            acc += raw
            out.append(acc)
        return out

    def quantile(self, q):
        """Upper-bound estimate of the ``q`` quantile (0 <= q <= 1).

        Returns the smallest bucket bound whose cumulative count covers
        ``q`` of the observations (``max`` when the tail spilled past
        the last bound; ``None`` when empty).
        """
        if not self.count:
            return None
        rank = q * self.count
        acc = 0
        for bound, raw in zip(self.bounds, self._raw):
            acc += raw
            if acc >= rank:
                return bound
        return self.max

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def samples(self):
        out = []
        for bound, count in zip(self.bounds, self.counts):
            labels = dict(self.labels)
            labels["le"] = _fmt(bound)
            out.append((self.name + "_bucket", labels, count))
        labels = dict(self.labels)
        labels["le"] = "+Inf"
        out.append((self.name + "_bucket", labels, self.count))
        out.append((self.name + "_sum", self.labels, self.sum))
        out.append((self.name + "_count", self.labels, self.count))
        return out

    def to_value(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self):
        return "Histogram({!r}, count={}, sum={:.6g})".format(
            self.name, self.count, self.sum)


#: RunStats counter -> (metric name, help).  Everything RunStats.to_dict
#: emits (minus the derived hit_rate and workers, which map to gauges
#: below) must appear here --
#: the registry's contract is to *subsume* the stats, not sample them.
_STATS_COUNTERS = (
    ("points", "repro_points_total", "grid points requested"),
    ("evaluated", "repro_points_evaluated_total",
     "points actually computed (not cache/memo hits)"),
    ("cache_hits", "repro_cache_hits_total", "result-cache hits"),
    ("cache_misses", "repro_cache_misses_total", "result-cache misses"),
    ("infeasible", "repro_points_infeasible_total",
     "points whose evaluation raised a soft error"),
    ("retries", "repro_retries_total", "extra evaluation attempts paid"),
    ("timeouts", "repro_timeouts_total",
     "attempts cut short by the per-point timeout"),
    ("crashes", "repro_worker_crashes_total",
     "worker pools lost to a dead worker"),
    ("artifact_hits", "repro_artifact_hits_total",
     "circuit artifact bundles served from cache"),
    ("artifact_misses", "repro_artifact_misses_total",
     "circuit artifact bundles built from scratch"),
)


class MetricsRegistry:
    """A named collection of counters/gauges/histograms.

    Metric objects are created on first use and returned on every later
    call with the same ``(name, labels)`` -- the runner can say
    ``registry.histogram("repro_point_seconds")`` per grid without
    duplicating series.
    """

    def __init__(self):
        self._metrics = {}

    def _get(self, factory, name, help, labels, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name=name, help=help, labels=labels,
                             **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name, help="", **labels):
        return self._get(Counter, name, help, labels)

    def gauge(self, name, help="", **labels):
        return self._get(Gauge, name, help, labels)

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS, **labels):
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self):
        return len(self._metrics)

    # -- RunStats bridge ---------------------------------------------------

    def fill_from_stats(self, stats, cache=None):
        """Snapshot a :class:`~repro.runner.instrument.RunStats` (and
        optionally its result store) into this registry, replacing any
        previous snapshot.

        Duck-typed: anything with a ``to_dict()`` in the RunStats shape
        works, so stats read back from a ``--stats-json`` file can be
        exported the same way.
        """
        data = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
        for stats_key, name, help in _STATS_COUNTERS:
            self.counter(name, help).set(data.get(stats_key, 0))
        self.gauge("repro_cache_hit_ratio",
                   "result-cache hit fraction over all lookups").set(
            data.get("hit_rate", 0.0))
        art_hits = data.get("artifact_hits", 0)
        art_total = art_hits + data.get("artifact_misses", 0)
        self.gauge("repro_artifact_hit_ratio",
                   "artifact-store hit fraction over all gets").set(
            art_hits / art_total if art_total else 0.0)
        self.gauge("repro_workers", "widest worker pool used").set(
            data.get("workers", 1))
        if cache is not None:
            self.counter("repro_cache_store_puts_total",
                         "entries written to the result cache").set(
                cache.puts)
        return self

    # -- export ------------------------------------------------------------

    def render(self):
        """The Prometheus text exposition of every registered metric."""
        lines = []
        seen_headers = set()
        for metric in self._metrics.values():
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append("# HELP {} {}".format(
                        metric.name, metric.help))
                lines.append("# TYPE {} {}".format(
                    metric.name, metric.kind))
            for name, labels, value in metric.samples():
                lines.append("{}{} {}".format(
                    name, _labels_text(labels), _fmt(value)))
        return "\n".join(lines) + "\n" if lines else ""

    def to_dict(self):
        """Every metric as plain JSON-serialisable data.

        Keyed ``name`` or ``name{label="v"}``; histograms expand to
        their summary dict (count/sum/mean/min/max/quantiles).
        """
        out = {}
        for metric in self._metrics.values():
            key = metric.name + _labels_text(metric.labels)
            out[key] = metric.to_value()
        return out

    def __repr__(self):
        return "MetricsRegistry({} metrics)".format(len(self._metrics))
