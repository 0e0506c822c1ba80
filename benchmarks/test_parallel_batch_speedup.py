"""Chunked parallel batch dispatch vs per-point parallel dispatch.

The pipeline under test is the paper's multiplier flow (the Fig. 6
65-point log-frequency sweep plus the Table I rows), run twice at the
same worker count, each through its session's warm
:class:`~repro.runner.WorkerPool` (workers forked once per session):

* **per-point parallel** -- the batch kernel is disabled, so the grid
  is fn-only and every point is a chunk of one through the pool (one
  IPC round-trip per point, each point under the full per-point
  retry/timeout policy);
* **parallel batch** -- pending points are sharded into contiguous
  chunks and the vectorised kernel runs *inside* the workers (one IPC
  round-trip per chunk).

Both time only the sweep/table regeneration (the model build is primed
untimed), best-of-3, and must produce float-identical grids.

Acceptance (ISSUE): chunked is >= 1.5x faster than per-point on >= 2
workers.  The measurement is emitted as a ``repro-bench-sweep-v2``
JSON section (``REPRO_BENCH_PARBATCH_JSON=path``) for
``scripts/check_bench_regression.py``; set
``REPRO_BENCH_PARBATCH_TRACE=path`` to keep the chunk-level run trace
(CI replays it with ``repro report`` and uploads it as a build
artifact).
"""

import importlib
import json
import os
import platform
import sys
import time

import pytest

from .conftest import emit

BENCH_SCHEMA = "repro-bench-sweep-v2"
DESIGN = "mult16"
#: The Fig. 6 frequency axis: 65 log-spaced points, 10 kHz .. 16 MHz.
FREQS = [10 ** (4 + 0.05 * k) for k in range(65)]
WORKERS = 2
REPS = 3
MIN_SPEEDUP = 1.5

_ENV_OUT = "REPRO_BENCH_PARBATCH_JSON"
_ENV_TRACE = "REPRO_BENCH_PARBATCH_TRACE"


@pytest.fixture(scope="module")
def lib():
    from repro.tech.scl90 import build_scl90

    return build_scl90()


def _regenerate(session, model):
    from repro.analysis.sweep import sweep
    from repro.analysis.tables import TABLE_I_FREQS, build_table

    curves = sweep(model, FREQS, runner=session.runner)
    rows = build_table(model, TABLE_I_FREQS, runner=session.runner)
    return curves, rows


def _best_of(session, reps):
    model = session.design(DESIGN).power_model()   # primed, untimed
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = _regenerate(session, model)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def test_parallel_batch_speedup(lib):
    from repro.session import Session

    sweep_mod = importlib.import_module("repro.analysis.sweep")
    kernel = sweep_mod._batch_kernel

    # Per-point parallel: kernel disabled, chunks of one point on the
    # session's warm pool.
    per_point = Session(library=lib, store=None, workers=WORKERS)
    sweep_mod._batch_kernel = lambda m: None
    try:
        per_point_s, per_point_out = _best_of(per_point, REPS)
    finally:
        sweep_mod._batch_kernel = kernel
        per_point.close()

    # Parallel batch: chunked kernel dispatch on the session's warm pool.
    trace = os.environ.get(_ENV_TRACE, "").strip() or None
    chunked = Session(library=lib, store=None, workers=WORKERS,
                      trace=trace)
    try:
        chunked_s, chunked_out = _best_of(chunked, REPS)
        assert chunked.pool is not None and chunked.pool.alive
        assert chunked.pool.generation == 1
    finally:
        chunked.close()

    # Scheduling is pure execution detail: bit-identical grids.
    pp_curves, pp_rows = per_point_out
    ck_curves, ck_rows = chunked_out
    assert pp_curves.freqs == ck_curves.freqs
    for mode, values in pp_curves.results.items():
        assert ck_curves.results[mode] == values
    assert str(pp_rows) == str(ck_rows)

    speedup = per_point_s / chunked_s
    payload = {
        "schema": BENCH_SCHEMA,
        "design": DESIGN,
        "python": platform.python_version(),
        "platform": sys.platform,
        "measurements": {
            "parallel_batch": {
                "workers": WORKERS,
                "reps": REPS,
                "sweep_points": len(FREQS) * len(pp_curves.results),
                "per_point_s": round(per_point_s, 6),
                "chunked_s": round(chunked_s, 6),
                "speedup": round(speedup, 3),
            },
        },
    }
    emit("Parallel-batch speedup ({}, {} workers)".format(
        DESIGN, WORKERS), json.dumps(payload, indent=2, sort_keys=True))
    out_path = os.environ.get(_ENV_OUT, "").strip()
    if out_path:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    if trace:
        emit("Chunk trace", "wrote {}".format(trace))

    assert speedup >= MIN_SPEEDUP, (
        "chunked dispatch speedup {:.2f}x below the {}x acceptance "
        "floor (per-point {:.3f}s, chunked {:.3f}s, {} workers)".format(
            speedup, MIN_SPEEDUP, per_point_s, chunked_s, WORKERS))
