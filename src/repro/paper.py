"""End-to-end case-study drivers for the paper's evaluation.

:func:`multiplier_study` and :func:`cortex_m0_study` run the full
reproduction pipeline for one test design:

1. generate the netlist (:mod:`repro.circuits`);
2. implement it twice through the flows (baseline and SCPG, incl. CTS);
3. measure switched energy per cycle with the gate-level simulator (random
   operands for the multiplier; the Dhrystone-lite workload, grouped per
   10 vectors with representative max/min/avg groups, for the M0-lite --
   the paper's §III-B methodology);
4. assemble the :class:`~repro.scpg.power_model.ScpgPowerModel` (Tables
   I/II, Figs 6/8) and the :class:`~repro.subvt.energy.SubvtModel`
   (Figs 9/10, §IV).

Results are memoised per (design, fast) so the benchmark suite shares one
simulation run.  ``fast=True`` trims the workload length for unit tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .circuits import registry
from .flows.scpg_flow import _run_scpg_flow
from .isa.programs import dhrystone_memory, dhrystone_program
from .isa.trace import GateLevelCpu
from .netlist.core import Design
from .power.dynamic import (
    M0LITE_GLITCH_FACTOR,
    MULT16_GLITCH_FACTOR,
    dynamic_power,
)
from .power.leakage import leakage_power
from .scpg.power_model import ScpgPowerModel
from .sim.compiled import bus_values, schedule_for
from .subvt.energy import SubvtModel
from .tech.calibration import CORTEX_M0_ANCHORS, MULTIPLIER_ANCHORS
from .tech.scl90 import build_scl90


@dataclass
class CaseStudy:
    """Everything needed to regenerate one design's tables and figures."""

    name: str
    library: object
    base: Design                 # implemented baseline (post-CTS)
    flow: object                 # ScpgFlowResult
    scpg: object                 # ScpgDesign (flat refreshed post-CTS)
    model: ScpgPowerModel
    subvt: SubvtModel
    sta: object
    e_cycle: float
    glitch_factor: float
    anchors: object
    activity_trace: object = None   # Dhrystone grouping (M0 only)
    workload_cycles: int = 0


def _finish_study(name, flow_result, base_flow, e_cycle, glitch, anchors,
                  library, trace=None, cycles=0):
    scpg = flow_result.scpg
    base_design = base_flow.flat
    base_leak = leakage_power(base_design.top, library)
    model = ScpgPowerModel.from_scpg_design(scpg, e_cycle)
    model.leak_comb_base = base_leak.combinational
    model.leak_alwayson_base = base_leak.always_on
    sta = base_flow.metrics["timing"]
    subvt = SubvtModel(
        library,
        e_cycle=e_cycle,
        leak_nominal=base_leak.total,
        min_period=sta.min_period,
    )
    return CaseStudy(
        name=name,
        library=library,
        base=base_design,
        flow=flow_result,
        scpg=scpg,
        model=model,
        subvt=subvt,
        sta=sta,
        e_cycle=e_cycle,
        glitch_factor=glitch,
        anchors=anchors,
        activity_trace=trace,
        workload_cycles=cycles,
    )


def _measure_multiplier_energy(module, library, vectors, seed):
    """Switched energy per cycle under random operand vectors.

    Runs through the levelized struct-of-arrays engine
    (:mod:`repro.sim.compiled`).
    """
    rng = random.Random(seed)
    stimulus = [{
        **bus_values("a", 16, rng.getrandbits(16)),
        **bus_values("b", 16, rng.getrandbits(16)),
    } for _ in range(vectors)]
    run = schedule_for(module).run_vectors(stimulus)
    dyn = dynamic_power(
        module, library, run.toggle_snapshot(), run.cycles,
        glitch_factor=MULT16_GLITCH_FACTOR)
    return dyn.energy_per_cycle, run.cycles


@lru_cache(maxsize=None)
def multiplier_study(fast=False, seed=2011):
    """Case study 1: the 16-bit parallel multiplier."""
    library = build_scl90()

    # Quick pre-pass on the raw netlist: the header IR-drop sizing needs a
    # realistic switched-energy figure (the paper sizes sleep transistors
    # "from synthesis and simulation").
    e_sizing, _ = _measure_multiplier_energy(
        registry.build("mult16", library), library, vectors=60, seed=seed)

    flow_result = _run_scpg_flow(
        lambda: Design(registry.build("mult16", library), library),
        library, energy_per_cycle=e_sizing)
    base_flow = flow_result.baseline

    # Final measurement on the implemented baseline (clock tree included).
    vectors = 60 if fast else 300
    e_cycle, cycles = _measure_multiplier_energy(
        base_flow.flat.top, library, vectors, seed)

    return _finish_study(
        "mult16", flow_result, base_flow, e_cycle,
        MULT16_GLITCH_FACTOR, MULTIPLIER_ANCHORS, library,
        cycles=cycles)


def _run_dhrystone(module, library, iterations=None):
    """Run Dhrystone-lite on a gate-level core; returns (cpu, E/cycle)."""
    program = dhrystone_program() if iterations is None \
        else dhrystone_program(iterations)
    gate = GateLevelCpu(module, program, dhrystone_memory())
    gate.run()
    dyn = dynamic_power(
        module, library, gate.toggle_snapshot(), gate.cycles,
        glitch_factor=M0LITE_GLITCH_FACTOR)
    return gate, dyn.energy_per_cycle


@lru_cache(maxsize=None)
def cortex_m0_study(fast=False):
    """Case study 2: the M0-lite processor running Dhrystone-lite."""
    library = build_scl90()

    # Sizing pre-pass (short workload on the raw core).
    _, e_sizing = _run_dhrystone(registry.build("m0lite", library),
                                 library, iterations=4)

    flow_result = _run_scpg_flow(
        lambda: Design(registry.build("m0lite", library), library),
        library, energy_per_cycle=e_sizing)
    base_flow = flow_result.baseline

    iterations = 4 if fast else None  # None -> paper-matched ~3700 cycles
    gate, e_cycle = _run_dhrystone(base_flow.flat.top, library, iterations)

    return _finish_study(
        "cortex_m0", flow_result, base_flow, e_cycle,
        M0LITE_GLITCH_FACTOR, CORTEX_M0_ANCHORS, library,
        trace=gate.activity_trace(), cycles=gate.cycles)
