#!/usr/bin/env python
"""cProfile the compiled closed-loop co-simulation hot path.

Runs the same workload as ``benchmarks/test_cosim_speedup.py`` -- the
M0-lite core executing CRC-32 to HALT through the batched
``GateLevelCpu.run``: pipeline-model prediction
(:mod:`repro.isa.pipeline`), whole windows of cycles settled as
``(cycles, nets)`` matrices and confirmed by induction, and the
:class:`~repro.sim.compiled.ClosedLoopStepper` for any cycle a window
misses -- under :mod:`cProfile` and writes two artifacts:

* a binary ``.prof`` dump (``--prof``), loadable with ``snakeviz`` or
  ``python -m pstats`` for interactive digging;
* a plain-text report (``--report``) with the top functions by
  cumulative and by self time, so the usual question ("what got slow?")
  is answerable straight from the CI artifact listing.

The schedule lowering and one warm-up run happen *before* profiling
starts: the profile covers the steady-state windows, which is what the
co-sim benchmark gates on, not the one-off compile.  The report's first
line says how many of the cycles ran batched.

Usage::

    PYTHONPATH=src python scripts/profile_cosim.py \\
        --prof cosim.prof --report cosim-profile.txt
"""

import argparse
import cProfile
import io
import os
import pstats
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

TOP_N = 30


def build_cpu(crc_rounds, group_size):
    from repro.circuits import registry
    from repro.isa.programs import crc32_program, dhrystone_memory
    from repro.isa.trace import GateLevelCpu
    from repro.tech.scl90 import build_scl90

    module = registry.build("m0lite", build_scl90())
    # Warm the compiled schedule (its row programs and window cones)
    # outside the profile, then build the CPU that will actually run
    # under it.
    warm = GateLevelCpu(module, crc32_program(crc_rounds),
                        dhrystone_memory(), group_size=group_size)
    warm.run()
    return GateLevelCpu(module, crc32_program(crc_rounds),
                        dhrystone_memory(), group_size=group_size)


def report_text(stats, cycles, batched):
    out = io.StringIO()
    out.write("compiled closed-loop co-sim profile "
              "({} cycles to HALT, {} batched)\n\n".format(cycles, batched))
    for sort, title in (("cumulative", "top {} by cumulative time"),
                        ("tottime", "top {} by self time")):
        out.write("== {}\n".format(title.format(TOP_N)))
        ps = pstats.Stats(stats, stream=out)
        ps.strip_dirs().sort_stats(sort).print_stats(TOP_N)
        out.write("\n")
    return out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile the compiled closed-loop co-sim")
    parser.add_argument("--prof", default="cosim.prof",
                        help="binary cProfile dump path")
    parser.add_argument("--report", default="cosim-profile.txt",
                        help="plain-text pstats report path")
    parser.add_argument("--crc-rounds", type=int, default=2,
                        help="CRC-32 workload rounds (default 2)")
    parser.add_argument("--group-size", type=int, default=10,
                        help="activity-trace group size (default 10)")
    args = parser.parse_args(argv)

    cpu = build_cpu(args.crc_rounds, args.group_size)
    profiler = cProfile.Profile()
    profiler.enable()
    cpu.run()
    profiler.disable()

    profiler.dump_stats(args.prof)
    text = report_text(profiler, cpu.cycles, cpu.batched_cycles)
    with open(args.report, "w") as f:
        f.write(text)
    print(text.splitlines()[0])
    print("wrote {} and {}".format(args.prof, args.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
