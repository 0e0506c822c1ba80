"""Levelized struct-of-arrays gate simulation vs the event oracle.

The workload is the paper's multiplier activity extraction: 300 random
operand vectors through the mult16 netlist with Fig. 7 vector grouping
(the measurement that feeds Table I's switched energy).  Both engines
run the identical open-loop stimulus:

* **event** -- the per-event Python dispatch simulator kept as the test
  oracle (``tests/sim/testbench.py``'s ``ClockedTestbench`` +
  ``GroupRecorder``);
* **levelized** -- the compiled
  :class:`~repro.sim.compiled.CompiledSchedule`: the netlist lowers once
  to struct-of-arrays form and the whole workload evaluates as batched
  numpy passes.

Wall-clocks are best-of-``REPS``; the compiled side is also timed cold
(lowering included) to show the compile cost amortises.  The engines
must agree *bit-for-bit* -- toggle counts, activity groups and final
values are asserted equal, so the speedup is never bought with drift.

Acceptance (ISSUE 6): levelized is >= 10x faster than the event
simulator.  The measurement is emitted as a ``repro-bench-sweep-v2``
JSON section (``REPRO_BENCH_GATESIM_JSON=path``) for
``scripts/check_bench_regression.py``.
"""

import json
import os
import platform
import random
import sys
import time

import pytest

from .conftest import emit

BENCH_SCHEMA = "repro-bench-sweep-v2"
DESIGN = "mult16"
VECTORS = 300
GROUP_SIZE = 10
SEED = 2011
REPS = 5
MIN_SPEEDUP = 10.0

_ENV_OUT = "REPRO_BENCH_GATESIM_JSON"


@pytest.fixture(scope="module")
def lib():
    from repro.tech.scl90 import build_scl90

    return build_scl90()


def _vectors():
    from repro.sim.compiled import bus_values

    rng = random.Random(SEED)
    return [{
        **bus_values("a", 16, rng.getrandbits(16)),
        **bus_values("b", 16, rng.getrandbits(16)),
    } for _ in range(VECTORS)]


def _run_event(module, vectors):
    from tests.sim.testbench import ClockedTestbench, GroupRecorder

    tb = ClockedTestbench(module)
    tb.reset_flops(0)
    recorder = GroupRecorder(tb.sim, GROUP_SIZE)
    for vec in vectors:
        tb.cycle(vec)
        recorder.after_cycle()
    recorder.flush()
    return tb.sim.toggle_snapshot(), recorder.trace


def _best_of(fn, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def test_gate_sim_speedup(lib):
    from repro.circuits import registry
    from repro.sim.compiled import compile_schedule

    module = registry.build("mult16", lib)
    vectors = _vectors()

    event_s, (event_toggles, event_trace) = _best_of(
        lambda: _run_event(module, vectors))

    cold_start = time.perf_counter()
    schedule = compile_schedule(module)
    cold_run = schedule.run_vectors(vectors, group_size=GROUP_SIZE)
    cold_s = time.perf_counter() - cold_start
    assert cold_run.toggle_snapshot() == event_toggles

    warm_s, run = _best_of(
        lambda: schedule.run_vectors(vectors, group_size=GROUP_SIZE))

    # Exactness first: the speedup only counts if nothing drifted.
    assert run.toggle_snapshot() == event_toggles
    assert len(run.trace.groups) == len(event_trace.groups)
    for fast, slow in zip(run.trace.groups, event_trace.groups):
        assert fast.toggles == slow.toggles
        assert (fast.cycles, fast.total_toggles, fast.nets) \
            == (slow.cycles, slow.total_toggles, slow.nets)

    speedup = event_s / warm_s
    payload = {
        "schema": BENCH_SCHEMA,
        "design": DESIGN,
        "python": platform.python_version(),
        "platform": sys.platform,
        "measurements": {
            "gate_sim": {
                "vectors": VECTORS,
                "group_size": GROUP_SIZE,
                "reps": REPS,
                "total_toggles": run.total_toggles(),
                "event_s": round(event_s, 6),
                "compiled_cold_s": round(cold_s, 6),
                "compiled_s": round(warm_s, 6),
                "cold_speedup": round(event_s / cold_s, 3),
                "speedup": round(speedup, 3),
            },
        },
    }
    emit("Gate-sim speedup ({}, {} vectors)".format(DESIGN, VECTORS),
         json.dumps(payload, indent=2, sort_keys=True))
    out_path = os.environ.get(_ENV_OUT, "").strip()
    if out_path:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    assert speedup >= MIN_SPEEDUP, (
        "levelized speedup {:.2f}x below the {}x acceptance floor "
        "(event {:.3f}s, compiled {:.3f}s warm / {:.3f}s cold)".format(
            speedup, MIN_SPEEDUP, event_s, warm_s, cold_s))
