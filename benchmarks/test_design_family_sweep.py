"""Family sweep through the chunked pool with per-design artifact reuse.

The design-database workflow this exercises: expand one generator
family over a parameter axis (``multiplier`` at n = 4, 8, 16, 32),
then sweep every instantiation through one shared session -- so all
grids ride the same warm :class:`~repro.runner.WorkerPool` (workers
forked once, chunked kernel dispatch) and every design's
:class:`~repro.runner.artifacts.CircuitArtifacts` bundle is built
exactly once.

Two passes over the whole family, same session:

* **cold** -- fresh handles; every design cache-misses its artifact
  bundle (``artifact_misses`` grows by exactly one per design);
* **warm** -- fresh handles again; the memoised database modules hash
  to the same fingerprints, so every bundle is served from the store
  (``artifact_hits`` grows, ``artifact_misses`` does not), and the
  tables come out identical.

The warm/cold ratio is emitted as the ``family_sweep`` section of a
``repro-bench-sweep-v2`` JSON (``REPRO_BENCH_FAMSWEEP_JSON=path``) for
``scripts/check_bench_regression.py``.
"""

import json
import os
import platform
import sys
import time

import pytest

from .conftest import emit

BENCH_SCHEMA = "repro-bench-sweep-v2"
FAMILY = "multiplier"
NS = [4, 8, 16, 32]
FREQS = [1e4, 1e5, 1e6, 5e6]
WORKERS = 2
WARM_REPS = 3
MIN_SPEEDUP = 1.1

_ENV_OUT = "REPRO_BENCH_FAMSWEEP_JSON"


@pytest.fixture(scope="module")
def lib():
    from repro.tech.scl90 import build_scl90

    return build_scl90()


def _sweep_family(session):
    """One full pass: fresh handles, Table-style rows per design."""
    rows = {}
    for handle in session.expand_family(FAMILY, n=NS):
        rows[handle.name] = handle.table(FREQS)
    return rows


def test_design_family_sweep(lib):
    from repro.session import Session

    session = Session(library=lib, store=None, workers=WORKERS)
    try:
        # Cold pass: every design elaborates + builds its bundle once.
        cold_start = time.perf_counter()
        cold_rows = _sweep_family(session)
        cold_s = time.perf_counter() - cold_start

        assert sorted(cold_rows) == sorted(
            str(h.name) for h in session.expand_family(FAMILY, n=NS))
        assert session.stats.artifact_misses == len(NS)
        assert session.stats.artifact_hits == 0

        # Warm passes: same fingerprints, bundles served from the store.
        warm_s, warm_rows = float("inf"), None
        for _ in range(WARM_REPS):
            start = time.perf_counter()
            out = _sweep_family(session)
            elapsed = time.perf_counter() - start
            if elapsed < warm_s:
                warm_s, warm_rows = elapsed, out
        assert session.stats.artifact_misses == len(NS)
        assert session.stats.artifact_hits >= len(NS) * WARM_REPS

        # The chunked pool forked exactly once for the whole family.
        assert session.pool is not None and session.pool.alive
        assert session.pool.generation == 1

        # Artifact reuse is an execution detail: identical tables.
        assert str(cold_rows) == str(warm_rows)
    finally:
        session.close()

    speedup = cold_s / warm_s
    payload = {
        "schema": BENCH_SCHEMA,
        "design": "{}(n={})".format(FAMILY, NS),
        "python": platform.python_version(),
        "platform": sys.platform,
        "measurements": {
            "family_sweep": {
                "workers": WORKERS,
                "designs": len(NS),
                "freqs": len(FREQS),
                "warm_reps": WARM_REPS,
                "cold_s": round(cold_s, 6),
                "warm_s": round(warm_s, 6),
                "speedup": round(speedup, 3),
                "artifact_misses": len(NS),
            },
        },
    }
    emit("Design-family sweep ({}, n={}, {} workers)".format(
        FAMILY, NS, WORKERS), json.dumps(payload, indent=2,
                                         sort_keys=True))
    out_path = os.environ.get(_ENV_OUT, "").strip()
    if out_path:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    assert speedup >= MIN_SPEEDUP, (
        "family sweep artifact reuse speedup {:.2f}x below the {}x "
        "floor (cold {:.3f}s, warm {:.3f}s)".format(
            speedup, MIN_SPEEDUP, cold_s, warm_s))
