"""Sub-clock power gating (SCPG): the paper's contribution.

SCPG power-gates the combinational domain *within the clock cycle* during
active mode: the high-Vt header is driven by ``clock AND override_n``, so
the logic is off during the clock's high phase and evaluates during the low
phase.  Leakage saving grows as the clock is scaled below Fmax (more idle
time per cycle), and raising the duty cycle ("SCPG-Max") extends the gated
window up to the evaluation-time limit.

* :mod:`repro.scpg.transform` -- applies SCPG to a netlist: split the
  domains, insert isolation and the Fig. 3 adaptive isolation controller,
  size and instantiate the header network, emit UPF-lite.
* :mod:`repro.scpg.clocking` -- the Fig. 4 intra-cycle timing model:
  feasibility, maximum duty cycle, maximum frequency.
* :mod:`repro.scpg.power_model` -- cycle-level average power in No-PG /
  SCPG / SCPG-Max / Override modes (Tables I and II).
* :mod:`repro.scpg.duty` -- duty-cycle optimisation (SCPG-Max).
* :mod:`repro.scpg.budget` -- power-budget solving: highest frequency and
  best energy/operation within a budget (the energy-harvester scenarios).
* :mod:`repro.scpg.upf` -- UPF-subset power-intent writer.
"""

from .clocking import ScpgTimingParams, scpg_max_frequency, scpg_feasible
from .domains import PowerDomainSpec
from .transform import ScpgDesign
from .power_model import Mode, PowerBreakdown, ScpgPowerModel
from .duty import optimise_duty, DUTY_CYCLE_CAP
from .budget import (
    solve_max_frequency,
    BudgetScenario,
    compare_at_budget,
    HARVESTER_BUDGET_SMALL,
    HARVESTER_BUDGET_LARGE,
)
from .upf import write_upf, dumps_upf
from .waveform import render_waveforms
from .idle_mode import (
    GatingScheme,
    WorkloadProfile,
    crossover_activity,
    idle_mode_study,
)

__all__ = [
    "render_waveforms",
    "GatingScheme",
    "WorkloadProfile",
    "crossover_activity",
    "idle_mode_study",
    "ScpgTimingParams",
    "scpg_max_frequency",
    "scpg_feasible",
    "PowerDomainSpec",
    "ScpgDesign",
    "Mode",
    "PowerBreakdown",
    "ScpgPowerModel",
    "optimise_duty",
    "DUTY_CYCLE_CAP",
    "solve_max_frequency",
    "BudgetScenario",
    "compare_at_budget",
    "HARVESTER_BUDGET_SMALL",
    "HARVESTER_BUDGET_LARGE",
    "write_upf",
    "dumps_upf",
]
