"""Compiled closed-loop co-simulation vs the event-driven oracle.

The workload is the paper's M0-lite processor running the CRC-32
workload to HALT under the full closed-loop memory protocol -- per-cycle
instruction fetch, load/store traffic and Fig. 7 activity grouping --
i.e. exactly what :func:`repro.isa.trace.cosimulate` does to validate
the workload vehicle and to harvest toggle traces for the power study:

* **event** -- the same memory protocol over the per-event Python
  dispatch simulator kept as the test oracle
  (``tests/sim/testbench.py``'s ``EventCpu``, with per-bit
  ``read_bus`` / ``set_inputs`` dict traffic);
* **compiled** -- the same protocol on the compiled engine:
  ``GateLevelCpu.run`` predicts each window of cycles with the pipeline
  model (:mod:`repro.isa.pipeline`), settles the window as
  ``(cycles, nets)`` matrices and keeps what the netlist confirms by
  induction, with the :class:`~repro.sim.compiled.ClosedLoopStepper`
  taking any cycle the prediction misses.

Wall-clocks are best-of-``REPS``; the compiled side is also timed cold
(schedule lowering included).  The engines must agree *bit-for-bit* --
cycle count, the architectural register file, data memory, per-net
toggle counts and every activity group are asserted equal, so the
speedup is never bought with drift.

Acceptance: compiled closed-loop co-sim is >= 5x faster than the
event engine, with every compiled cycle confirmed batched -- a broken
predictor would otherwise fall back to the stepper silently and still
clear the floor.  The measurement is emitted as a
``repro-bench-sweep-v2`` JSON section (``REPRO_BENCH_COSIM_JSON=path``)
for ``scripts/check_bench_regression.py``.
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
CRC_ROUNDS = 2
GROUP_SIZE = 10
REPS = 3
MIN_SPEEDUP = 5.0

_ENV_OUT = "REPRO_BENCH_COSIM_JSON"


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


def test_cosim_speedup(lib):
    from repro.circuits import registry
    from repro.isa.programs import crc32_program, dhrystone_memory
    from repro.isa.trace import GateLevelCpu
    from tests.sim.testbench import EventCpu

    module = registry.build("m0lite", lib)
    program = crc32_program(CRC_ROUNDS)
    memory = dhrystone_memory()

    def run(cpu_class):
        cpu = cpu_class(module, program, dict(memory),
                        group_size=GROUP_SIZE)
        cpu.run()
        return cpu

    # Cold: schedule lowering + stepper construction included.
    cold_start = time.perf_counter()
    cold_cpu = run(GateLevelCpu)
    cold_s = time.perf_counter() - cold_start

    event_s, event_cpu = _best_of(lambda: run(EventCpu), 2)
    warm_s, cpu = _best_of(lambda: run(GateLevelCpu))
    assert cpu.batched_cycles == cpu.cycles
    assert cold_cpu.batched_cycles == cold_cpu.cycles

    # Exactness first: the speedup only counts if nothing drifted.
    assert cpu.cycles == event_cpu.cycles == cold_cpu.cycles
    assert cpu.registers() == event_cpu.registers()
    assert cpu.memory == event_cpu.memory
    assert cpu.toggle_snapshot() == event_cpu.toggle_snapshot()
    fast_trace, slow_trace = cpu.activity_trace(), \
        event_cpu.activity_trace()
    assert len(fast_trace.groups) == len(slow_trace.groups)
    for fast, slow in zip(fast_trace.groups, slow_trace.groups):
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
            "cosim": {
                "workload": "crc32({})".format(CRC_ROUNDS),
                "cycles": cpu.cycles,
                "group_size": GROUP_SIZE,
                "reps": REPS,
                "event_s": round(event_s, 6),
                "compiled_cold_s": round(cold_s, 6),
                "compiled_s": round(warm_s, 6),
                "cold_speedup": round(event_s / cold_s, 3),
                "speedup": round(speedup, 3),
            },
        },
    }
    emit("Closed-loop co-sim speedup ({}, {} cycles)".format(
        DESIGN, cpu.cycles), json.dumps(payload, indent=2, sort_keys=True))
    out_path = os.environ.get(_ENV_OUT, "").strip()
    if out_path:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    assert speedup >= MIN_SPEEDUP, (
        "compiled co-sim speedup {:.2f}x below the {}x acceptance floor "
        "(event {:.3f}s, compiled {:.3f}s warm / {:.3f}s cold)".format(
            speedup, MIN_SPEEDUP, event_s, warm_s, cold_s))
