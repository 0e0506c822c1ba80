"""Dynamic (switching) power from simulated toggle counts.

Every 0->1/1->0 transition of a net dissipates ``0.5 * C * VDD^2`` where
``C`` is the driver's internal capacitance plus the fanout pin loads and
wire estimate.  Toggle counts come from the zero-delay gate simulator,
which sees functional transitions only; the *glitch factor* multiplies
them to stand in for the hazard activity a delay-accurate simulation would
add.  The multiplier's array of reconvergent partial-product and carry
paths roughly doubles its functional activity in a delay-accurate view,
so it is calibrated at 2.0 against Table I's energy-per-cycle slope; the
M0-lite, whose wide ALU/shifter/multiplier arrays glitch on every operand
change regardless of the selected operation, is calibrated at 3.5 against
Table II's slope (see ``repro.tech.calibration``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PowerError
from ..obs.trace import layer
from ..sta.delay import net_caps

#: Default hazard multiplier for functional (zero-delay) toggle counts.
DEFAULT_GLITCH_FACTOR = 1.0

#: Calibrated hazard multiplier for the multiplier array (Table I slope).
MULT16_GLITCH_FACTOR = 2.0

#: Calibrated hazard multiplier for the M0-lite core (Table II slope).
M0LITE_GLITCH_FACTOR = 3.5


@dataclass
class DynamicReport:
    """Dynamic power/energy at an operating point."""

    vdd: float
    freq_hz: float
    cycles: int
    energy_per_cycle: float = 0.0
    glitch_factor: float = 1.0
    by_net: dict = field(default_factory=dict)

    @property
    def power(self):
        """Average dynamic power (W) at ``freq_hz``."""
        return self.energy_per_cycle * self.freq_hz

    def top_nets(self, count=10):
        """The ``count`` most energy-hungry nets."""
        return sorted(self.by_net.items(), key=lambda kv: -kv[1])[:count]

    def __str__(self):
        return (
            "dynamic @ {:.2f} V, {:.3g} Hz: {:.4g} J/cycle -> {:.4g} W"
        ).format(self.vdd, self.freq_hz, self.energy_per_cycle, self.power)


@layer("power.dynamic")
def dynamic_power(module, library, toggles, cycles, vdd=None, freq_hz=1e6,
                  glitch_factor=DEFAULT_GLITCH_FACTOR):
    """Compute a :class:`DynamicReport` from per-net toggle counts.

    Parameters
    ----------
    module:
        Flat module the toggles were recorded on.
    library:
        Cell library (for capacitances).
    toggles:
        Dict net name -> toggle count (e.g. ``CompiledRun.toggle_snapshot``).
    cycles:
        Number of clock cycles the counts cover.
    vdd:
        Supply voltage (defaults to nominal).
    freq_hz:
        Clock frequency for the power figure.
    glitch_factor:
        Hazard multiplier on functional toggle counts.
    """
    if cycles <= 0:
        raise PowerError("dynamic power needs at least one cycle")
    vdd = library.vdd_nom if vdd is None else vdd
    half_v2 = 0.5 * vdd * vdd
    report = DynamicReport(
        vdd=vdd, freq_hz=freq_hz, cycles=cycles, glitch_factor=glitch_factor
    )
    total = 0.0
    for net, cap in zip(module.nets(), net_caps(module, library)):
        count = toggles.get(net.name, 0)
        if not count or net.is_const:
            continue
        energy = half_v2 * cap * count * glitch_factor / cycles
        report.by_net[net.name] = energy
        total += energy
    report.energy_per_cycle = total
    return report
