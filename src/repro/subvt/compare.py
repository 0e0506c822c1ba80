"""Section IV: sub-clock power gating versus sub-threshold design.

The paper's procedure: find the sub-threshold minimum-energy point, set
its average power as the budget, and ask what the SCPG design achieves
within the same budget.  Sub-threshold wins on energy per operation (it is
the minimum-energy technique by construction) but is locked to one slow
operating point; SCPG trades a few x of energy for orders of magnitude of
frequency range plus the override escape to full performance, and it
operates above threshold where process/temperature sensitivity is benign.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.trace import layer
from ..scpg.budget import solve_max_frequency
from ..scpg.power_model import Mode
from .energy import minimum_energy_point


@dataclass
class SubvtComparison:
    """Outcome of the §IV comparison at one budget."""

    budget: float
    subvt_point: object                # EnergyPoint at min energy
    scpg_scenario: object              # BudgetScenario
    energy_ratio: float                # SCPG energy / sub-vt energy
    performance_ratio: float           # sub-vt freq / SCPG freq

    def __str__(self):
        return (
            "budget {:.3g} W: sub-vt {:.3g} J @ {:.3g} Hz (VDD {:.3f} V) "
            "vs SCPG {:.3g} J @ {:.3g} Hz -> {:.1f}x energy, {:.1f}x "
            "performance gap".format(
                self.budget,
                self.subvt_point.energy,
                self.subvt_point.fmax_hz,
                self.subvt_point.vdd,
                self.scpg_scenario.energy_per_op,
                self.scpg_scenario.freq_hz,
                self.energy_ratio,
                self.performance_ratio,
            )
        )


@layer("subvt.self")
def compare_with_scpg(subvt_model, scpg_model, mode=Mode.SCPG,
                      budget=None, runner=None):
    """Run the §IV comparison.

    ``budget`` defaults to the sub-threshold minimum-energy point's average
    power (the paper's choice); pass a larger budget to reproduce the
    "difference narrows" observation.  With a ``runner`` the minimum-energy
    search reuses the session's result cache, so repeated comparisons over
    the same model evaluate nothing.
    """
    mep = minimum_energy_point(subvt_model, runner=runner)
    budget = mep.power if budget is None else budget
    scenario = solve_max_frequency(scpg_model, budget, mode)
    return SubvtComparison(
        budget=budget,
        subvt_point=mep,
        scpg_scenario=scenario,
        energy_ratio=scenario.energy_per_op / mep.energy,
        performance_ratio=mep.fmax_hz / scenario.freq_hz,
    )
