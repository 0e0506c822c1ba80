"""Vectorized state-dependent leakage vs the per-instance netlist walk.

The workload is the power engine's per-cycle leakage question: given a
1000-cycle settled-state trace of the M0-lite core running CRC-32 (from
the compiled closed-loop co-sim with ``record_states=True``), what is
the state-dependent leakage of every cycle?

* **walk** -- ``tests/power/walk.py``'s ``leakage_power_walk`` once per
  cycle: a full ``cell_instances()`` walk with per-pin dict lookups and
  ``leakage_for_state`` scans (the pre-PR 10 strategy, kept verbatim as
  the differential oracle).  Snapshot dicts are prepared *outside* the
  timed region -- the event-sim flow got them for free, so charging the
  walk for dict construction would flatter the fast side.
* **vectorized** -- :func:`repro.power.leakage.state_leakage_trace`
  over the ``(cycles, n_nets)`` matrix: one packed-state gather through
  the memoised :class:`~repro.netlist.soa.LeakageSoa` tables plus one
  scaled accumulate for the whole trace.

Every per-cycle total and per-kind split must match the walk
bit-for-bit before the speedup counts.

Acceptance (ISSUE 10): the vectorized trace is >= 10x faster over a
1000-cycle trace.  The measurement is emitted as a
``repro-bench-sweep-v2`` JSON section
(``REPRO_BENCH_LEAKAGE_JSON=path``) for
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
DESIGN = "m0lite"
CRC_ROUNDS = 8
CYCLES = 1000
REPS = 3
MIN_SPEEDUP = 10.0

_ENV_OUT = "REPRO_BENCH_LEAKAGE_JSON"


@pytest.fixture(scope="module")
def lib():
    from repro.tech.scl90 import build_scl90

    return build_scl90()


def _best_of(fn, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def test_leakage_trace_speedup(lib):
    from repro.circuits import registry
    from repro.isa.programs import crc32_program, dhrystone_memory
    from repro.isa.trace import GateLevelCpu
    from repro.power.leakage import state_leakage_trace
    from tests.power.walk import leakage_power_walk

    module = registry.build("m0lite", lib)
    cpu = GateLevelCpu(module, crc32_program(CRC_ROUNDS),
                       dhrystone_memory(), record_states=True)
    for _ in range(CYCLES):
        cpu.step()
    states = cpu.state_trace()
    assert states.shape[0] == CYCLES
    names = cpu.state_net_names
    snaps = [dict(zip(names, row.tolist())) for row in states]

    walk_s, walk = _best_of(
        lambda: [leakage_power_walk(module, lib, state=s)
                 for s in snaps], 1)

    # Cold: the LeakageSoa lowering included.
    cold_start = time.perf_counter()
    cold = state_leakage_trace(module, lib, states)
    cold_s = time.perf_counter() - cold_start

    fast_s, trace = _best_of(
        lambda: state_leakage_trace(module, lib, states))

    # Exactness first: every cycle, every split, bit-for-bit.
    assert trace.cycles == CYCLES == cold.cycles
    for c in range(CYCLES):
        assert trace.total[c] == walk[c].total
        for kind, arr in trace.by_kind.items():
            assert arr[c] == walk[c].by_kind.get(kind, 0.0)

    speedup = walk_s / fast_s
    payload = {
        "schema": BENCH_SCHEMA,
        "design": DESIGN,
        "python": platform.python_version(),
        "platform": sys.platform,
        "measurements": {
            "leakage": {
                "workload": "crc32({})".format(CRC_ROUNDS),
                "cycles": CYCLES,
                "reps": REPS,
                "walk_s": round(walk_s, 6),
                "vectorized_cold_s": round(cold_s, 6),
                "vectorized_s": round(fast_s, 6),
                "cold_speedup": round(walk_s / cold_s, 3),
                "speedup": round(speedup, 3),
            },
        },
    }
    emit("State-leakage trace speedup ({}, {} cycles)".format(
        DESIGN, CYCLES), json.dumps(payload, indent=2, sort_keys=True))
    out_path = os.environ.get(_ENV_OUT, "").strip()
    if out_path:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    assert speedup >= MIN_SPEEDUP, (
        "vectorized leakage-trace speedup {:.2f}x below the {}x "
        "acceptance floor (walk {:.3f}s, vectorized {:.4f}s warm / "
        "{:.4f}s cold)".format(speedup, MIN_SPEEDUP, walk_s, fast_s,
                               cold_s))
