"""Artifact-cache speedup on the Fig. 6 / Table I sweep pipeline.

The pipeline under test is the paper's multiplier flow end to end:
build the design handle, derive the SCPG power model, sweep a 65-point
log-frequency grid (the Fig. 6 axis) and regenerate the Table I rows.
*Cold* runs it on a ``Session(store=None)``, which compiles the
design's artifact bundle (STA, switching, the SCPG transform and its
model table, the simulation schedule) on every repetition; *warm* runs
it on a fresh copy of a store primed with that bundle alone, so the
bundle is read back from disk and no point result is ever reused.  Both
use a fresh :class:`~repro.session.Session` per repetition and
best-of-3 timing.

Acceptance (ISSUE): warm is >= 2x faster than cold, with *numerically
identical* sweep results and table rows.  The measured numbers are
emitted as a ``repro-bench-sweep-v2`` JSON section so CI can diff them
against the committed ``BENCH_sweep.json`` baseline (see
``scripts/check_bench_regression.py`` and ``docs/benchmarks.md``).
"""

import json
import os
import platform
import shutil
import sys
import time

import pytest

from .conftest import emit

BENCH_SCHEMA = "repro-bench-sweep-v2"
DESIGN = "mult16"
#: The Fig. 6 frequency axis: 65 log-spaced points, 10 kHz .. 16 MHz.
FREQS = [10 ** (4 + 0.05 * k) for k in range(65)]
REPS = 3
MIN_SPEEDUP = 2.0

_ENV_OUT = "REPRO_BENCH_SWEEP_JSON"


@pytest.fixture(scope="module")
def lib():
    from repro.tech.scl90 import build_scl90

    return build_scl90()


def _pipeline(session):
    from repro.analysis.sweep import sweep
    from repro.analysis.tables import TABLE_I_FREQS, build_table

    handle = session.design(DESIGN)
    model = handle.power_model()
    curves = sweep(model, FREQS, runner=session.runner)
    rows = build_table(model, TABLE_I_FREQS, runner=session.runner)
    return curves, rows


def _best_of(lib, reps, store=lambda rep: None):
    """Best-of-``reps`` pipeline time; ``store(rep)`` gives each
    repetition's ``Session(store=)``."""
    from repro.session import Session

    best, result, stats = float("inf"), None, None
    for rep in range(reps):
        session = Session(library=lib, store=store(rep))
        start = time.perf_counter()
        out = _pipeline(session)
        elapsed = time.perf_counter() - start
        stats = session.stats
        session.close()
        if elapsed < best:
            best, result = elapsed, out
    return best, result, stats


def test_artifact_cache_speedup(lib, tmp_path):
    from repro.runner import SqliteStore
    from repro.session import Session

    primed = tmp_path / "primed.sqlite"
    # Populate the store once, untimed, with the bundle and no point
    # results -- the warm runs then model a sweep campaign (or a re-run
    # after a crash) over a known circuit.
    store = SqliteStore(primed)
    prime = Session(library=lib, store=store)
    prime.design(DESIGN).power_model()
    prime.close()
    store.close()  # checkpoints the WAL, so a file copy carries the bundle

    def warm_copy(rep):
        """A fresh copy of the primed store: the sweep's point results
        land in the copy, so no repetition reads another's."""
        path = tmp_path / "warm-{}.sqlite".format(rep)
        shutil.copyfile(primed, path)
        return str(path)

    cold_s, cold_out, _ = _best_of(lib, REPS)
    warm_s, warm_out, warm_stats = _best_of(lib, REPS, store=warm_copy)

    # Bit-identical results, not merely close ones.
    cold_curves, cold_rows = cold_out
    warm_curves, warm_rows = warm_out
    assert cold_curves.freqs == warm_curves.freqs
    for mode, values in cold_curves.results.items():
        assert warm_curves.results[mode] == values
    assert str(cold_rows) == str(warm_rows)
    assert warm_stats.artifact_hits >= 1
    assert warm_stats.artifact_misses == 0

    speedup = cold_s / warm_s
    payload = {
        "schema": BENCH_SCHEMA,
        "design": DESIGN,
        "python": platform.python_version(),
        "platform": sys.platform,
        "measurements": {
            "artifact_cache": {
                "sweep_points": len(FREQS) * len(cold_curves.results),
                "reps": REPS,
                "cold_s": round(cold_s, 6),
                "warm_s": round(warm_s, 6),
                "speedup": round(speedup, 3),
                "artifact_hits": warm_stats.artifact_hits,
            },
        },
    }
    emit("Artifact-cache speedup ({})".format(DESIGN),
         json.dumps(payload, indent=2, sort_keys=True))
    out_path = os.environ.get(_ENV_OUT, "").strip()
    if out_path:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    assert speedup >= MIN_SPEEDUP, (
        "artifact cache speedup {:.2f}x below the {}x acceptance floor "
        "(cold {:.3f}s, warm {:.3f}s)".format(
            speedup, MIN_SPEEDUP, cold_s, warm_s))
