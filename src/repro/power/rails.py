"""Virtual-rail (VVDD) behaviour: collapse, recharge, and overhead energy.

When the header turns off at the rising clock edge, the virtual rail decays
through the logic's own leakage (time constant ``tau_collapse``); gating
saves nothing until the rail has sagged, which is why fast clocks see small
savings.  When the header turns back on at the falling edge, the sagged
rail charge must be re-supplied (``C_rail * VDD * swing``), the header's
gate swings, and partially-driven gates conduct crowbar current.  These
per-cycle energies are SCPG's overhead and set the convergence frequency
where gating stops paying (paper: ~15 MHz multiplier, ~5 MHz Cortex-M0).

The model is lumped and calibrated (DESIGN.md section 5):

* ``C_rail = rail_cap_fraction * sum(cell internal capacitance)`` -- only
  the fraction of cell capacitance that actually hangs on VVDD;
* crowbar charge grows super-linearly with gate count
  (``q_crowbar * n_gates ** crowbar_exponent``), reflecting the paper's
  observation that "crowbar currents ... are more significant in a larger
  design".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..tech.library import CellKind


@dataclass(frozen=True)
class RailParams:
    """Calibration constants for the virtual-rail model."""

    rail_cap_fraction: float = 0.12
    tau_collapse: float = 5.0e-9
    q_crowbar: float = 2.9e-17       # C per gate**exponent unit
    crowbar_exponent: float = 1.5
    full_swing_fraction: float = 0.95


class VirtualRailModel:
    """Rail behaviour for one power-gated combinational module.

    Parameters
    ----------
    comb_module:
        The power-gated (combinational) module.
    library:
        Cell library.
    params:
        Calibration constants.
    """

    def __init__(self, comb_module, library, params=None):
        self.library = library
        self.params = params or RailParams()
        c_int = 0.0
        gates = 0
        for inst in comb_module.cell_instances():
            if inst.cell.kind is CellKind.HEADER:
                continue
            c_int += inst.cell.c_internal
            gates += 1
        self.c_rail = self.params.rail_cap_fraction * c_int
        self.n_gates = gates

    def __fingerprint__(self):
        """Content identity for result-cache keys (see repro.runner)."""
        return ("rail-v1", self.c_rail, self.n_gates, self.params)

    # -- collapse dynamics ----------------------------------------------------

    def swing_fraction(self, t_off):
        """Fraction of VDD the rail sags during ``t_off`` seconds gated."""
        if t_off <= 0:
            return 0.0
        s = 1.0 - math.exp(-t_off / self.params.tau_collapse)
        return min(s, self.params.full_swing_fraction)

    def effective_leak_time(self, t_off):
        """Leakage-equivalent seconds during a ``t_off`` gated window.

        While the rail decays the logic still leaks (at a decreasing rate);
        the integral of the decaying exponential is
        ``tau * (1 - exp(-t/tau))``.
        """
        if t_off <= 0:
            return 0.0
        tau = self.params.tau_collapse
        return tau * (1.0 - math.exp(-t_off / tau))

    # -- per-gating-cycle energies ----------------------------------------------

    def recharge_energy(self, vdd, t_off):
        """Energy (J) to recharge the rail after ``t_off`` gated."""
        return self.c_rail * vdd * vdd * self.swing_fraction(t_off)

    def crowbar_energy(self, vdd, t_off):
        """Short-circuit energy (J) at wake-up after ``t_off`` gated."""
        q = self.params.q_crowbar * (
            self.n_gates ** self.params.crowbar_exponent
        )
        return q * vdd * self.swing_fraction(t_off)

    def cycle_overhead(self, vdd, t_off, header_gate_cap=0.0):
        """Total per-cycle gating overhead energy (J).

        ``header_gate_cap`` is the summed gate capacitance of the sleep
        headers (their control node swings rail-to-rail every cycle).
        """
        return (
            self.recharge_energy(vdd, t_off)
            + self.crowbar_energy(vdd, t_off)
            + header_gate_cap * vdd * vdd
        )

    def __repr__(self):
        return "VirtualRailModel(C_rail={:.3g} F, {} gates)".format(
            self.c_rail, self.n_gates
        )
