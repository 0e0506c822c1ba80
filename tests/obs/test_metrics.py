"""MetricsRegistry: series identity, histograms, exposition, the
RunStats bridge (every stats key must be subsumed)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.runner import RunStats, SqliteStore, evaluate_grid


class TestSeries:
    def test_same_name_and_labels_return_one_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g", stage="x") is reg.gauge("g", stage="x")
        assert reg.counter("a") is not reg.counter("a", stage="x")
        assert len(reg) == 3

    def test_counter_and_gauge_arithmetic(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.to_value() == 3.5
        g = Gauge("g")
        g.set(7)
        g.inc(-2)
        assert g.to_value() == 5


class TestHistogram:
    def test_cumulative_bucket_semantics(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 3, 4]      # <= 1, <= 2, <= 4
        assert h.count == 5
        assert h.sum == pytest.approx(106.5)
        assert h.min == 0.5
        assert h.max == 100.0

    def test_boundary_lands_in_its_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)                    # le="1" must include 1.0
        assert h.counts == [1, 1]

    def test_quantile_upper_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        h.observe(50.0)                   # past the last bound
        assert h.quantile(1.0) == 50.0
        assert Histogram("e").quantile(0.5) is None

    def test_prometheus_samples(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        samples = {(name, labels.get("le")): value
                   for name, labels, value in h.samples()}
        assert samples[("lat_bucket", "0.1")] == 1
        assert samples[("lat_bucket", "1")] == 1
        assert samples[("lat_bucket", "+Inf")] == 2
        assert samples[("lat_sum", None)] == pytest.approx(5.05)
        assert samples[("lat_count", None)] == 2

    def test_default_buckets_cover_sweep_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 1e-5
        assert DEFAULT_BUCKETS[-1] >= 10.0


class TestExposition:
    def test_render_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_points_total", "points requested").inc(3)
        reg.gauge("repro_workers").set(4)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = reg.render()
        assert "# HELP repro_points_total points requested" in text
        assert "# TYPE repro_points_total counter" in text
        assert "repro_points_total 3" in text
        assert "# TYPE repro_workers gauge" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_labels_render_sorted(self):
        reg = MetricsRegistry()
        reg.counter("c", stage="z", design="a").inc()
        assert 'c{design="a",stage="z"} 1' in reg.render()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_to_dict_keys_by_name_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.counter("c", stage="x").inc(1)
        reg.histogram("h").observe(0.5)
        data = reg.to_dict()
        assert data["c"] == 2
        assert data['c{stage="x"}'] == 1
        assert data["h"]["count"] == 1
        assert data["h"]["p95"] is not None


class TestStatsBridge:
    def _stats(self):
        stats = RunStats(points=10, evaluated=6, cache_hits=4,
                         cache_misses=6, infeasible=1, retries=2,
                         timeouts=1, crashes=1, artifact_hits=3,
                         artifact_misses=1, workers=4,
                         stages={"cache": 0.25, "evaluate": 1.75})
        return stats

    def test_every_stats_key_is_subsumed(self):
        """The registry's contract: RunStats.to_dict() carries no number
        the metrics dump doesn't."""
        from repro.obs.metrics import _STATS_COUNTERS

        metric_for = {key: name for key, name, _ in _STATS_COUNTERS}
        metric_for["hit_rate"] = "repro_cache_hit_ratio"
        metric_for["workers"] = "repro_workers"
        stats = self._stats()
        data = MetricsRegistry().fill_from_stats(stats).to_dict()
        for key, value in stats.to_dict().items():
            if key == "stages":
                for stage, seconds in value.items():
                    assert data[
                        'repro_stage_seconds_total{{stage="{}"}}'.format(
                            stage)] == seconds
            else:
                assert key in metric_for, \
                    "new RunStats key {!r} has no metric".format(key)
                assert data[metric_for[key]] == value

    def test_snapshot_replaces_not_accumulates(self):
        reg = MetricsRegistry()
        stats = self._stats()
        reg.fill_from_stats(stats)
        reg.fill_from_stats(stats)     # twice: values must not double
        assert reg.counter("repro_points_total").to_value() == 10

    def test_ratios(self):
        reg = MetricsRegistry().fill_from_stats(self._stats())
        assert reg.gauge("repro_cache_hit_ratio").value \
            == pytest.approx(0.4)
        assert reg.gauge("repro_artifact_hit_ratio").value \
            == pytest.approx(0.75)

    def test_zero_denominators(self):
        reg = MetricsRegistry().fill_from_stats(RunStats())
        assert reg.gauge("repro_cache_hit_ratio").value == 0.0
        assert reg.gauge("repro_artifact_hit_ratio").value == 0.0

    def test_duck_typed_plain_dict(self):
        reg = MetricsRegistry().fill_from_stats(
            {"points": 5, "hit_rate": 0.5})
        assert reg.counter("repro_points_total").to_value() == 5

    def test_cache_puts_counter(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        cache.writeback(cache.key_for("ns", 1), 42)
        reg = MetricsRegistry().fill_from_stats(RunStats(), cache=cache)
        assert reg.counter(
            "repro_cache_store_puts_total").to_value() == cache.puts


class TestRunnerIntegration:
    def test_evaluate_grid_fills_histograms(self):
        reg = MetricsRegistry()
        stats = RunStats()
        evaluate_grid(lambda p: p * p, [1, 2, 3], stats=stats,
                      metrics=reg)
        hist = reg.histogram("repro_point_seconds")
        assert hist.count == 3
        assert hist.sum > 0.0
        reg.fill_from_stats(stats)
        assert reg.counter("repro_points_total").to_value() == 3
