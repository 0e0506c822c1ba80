"""Benchmark fixtures: the two case studies at full paper fidelity.

Building a study is expensive (the M0 runs the full ~3700-cycle
Dhrystone-lite through the gate-level simulator), so studies are
session-scoped and shared by every benchmark; the timed portion of each
benchmark is the analysis that regenerates the table/figure.

Set ``REPRO_FAST_BENCH=1`` to use the trimmed workloads (useful in CI).
Set ``REPRO_BENCH_WORKERS=N`` to fan sweeps over N worker processes and
``REPRO_CACHE_DIR=...`` to persist results between benchmark runs; the
shared ``runner`` fixture picks both up.

Observability (both spellings work; the flags require running pytest
*from this directory's args*, e.g. ``pytest benchmarks --stats-json=...``,
the env vars work from anywhere):

* ``--stats-json PATH`` / ``REPRO_BENCH_STATS_JSON=PATH`` -- dump the
  shared runner's counters as JSON when the session ends (CI uploads
  this as a build artifact);
* ``--trace-out PATH`` / ``REPRO_BENCH_TRACE=PATH`` -- append the
  JSONL trace spans of every grid the shared runner executed -- the
  run's record, which ``repro report`` replays (pytest owns the plain
  ``--trace`` spelling);
* ``--metrics-out PATH`` / ``REPRO_BENCH_METRICS=PATH`` -- write the
  shared runner's metrics in Prometheus text exposition at session end.
"""

import json
import os

import pytest

_FAST = os.environ.get("REPRO_FAST_BENCH", "") == "1"


def pytest_addoption(parser):
    group = parser.getgroup("repro")
    group.addoption("--stats-json", default=None, metavar="PATH",
                    help="write the shared runner's stats as JSON")
    group.addoption("--trace-out", default=None, metavar="PATH",
                    help="append the shared runner's JSONL trace spans")
    group.addoption("--metrics-out", default=None, metavar="PATH",
                    help="write the shared runner's Prometheus metrics")


def _option(config, name, env):
    try:
        value = config.getoption(name)
    except ValueError:
        value = None
    return value or os.environ.get(env, "").strip() or None


@pytest.fixture(scope="session")
def mult_study():
    from repro.paper import multiplier_study

    return multiplier_study(fast=_FAST)


@pytest.fixture(scope="session")
def m0_study():
    from repro.paper import cortex_m0_study

    return cortex_m0_study(fast=_FAST)


@pytest.fixture(scope="session")
def runner(pytestconfig):
    """Shared experiment runner (workers + result cache from the env)."""
    from repro.obs import JsonlSink, MetricsRegistry, Tracer
    from repro.runner import Runner, default_cache

    value = os.environ.get("REPRO_BENCH_WORKERS", "")
    workers = int(value) if value.strip() else None
    trace_path = _option(pytestconfig, "--trace-out",
                          "REPRO_BENCH_TRACE")
    metrics_path = _option(pytestconfig, "--metrics-out",
                           "REPRO_BENCH_METRICS")
    tracer = Tracer(JsonlSink(trace_path)) if trace_path else None
    registry = MetricsRegistry() if metrics_path else None
    runner = Runner(workers=workers, cache=default_cache(),
                    tracer=tracer, metrics=registry)
    yield runner
    if tracer is not None:
        tracer.close()
        emit("Runner trace", "wrote {} ({} spans)".format(
            trace_path, tracer.spans))
    if registry is not None:
        registry.fill_from_stats(runner.stats, cache=runner.cache)
        with open(metrics_path, "w") as f:
            f.write(registry.render())
        emit("Runner metrics", "wrote {}".format(metrics_path))
    stats_path = _option(pytestconfig, "--stats-json",
                         "REPRO_BENCH_STATS_JSON")
    if stats_path:
        with open(stats_path, "w") as f:
            json.dump(runner.stats.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        emit("Runner stats", "wrote {}".format(stats_path))


def emit(title, body):
    """Print a benchmark artefact in a greppable block."""
    bar = "=" * 78
    print("\n{}\n{}\n{}\n{}".format(bar, title, bar, body))
