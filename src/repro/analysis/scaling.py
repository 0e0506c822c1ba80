"""Design-size scaling study: how SCPG's value moves with gate count.

The paper compares exactly two designs and attributes the Cortex-M0's
lower savings and earlier convergence to its size ("the increased
concentration of combinational logic ... increases the energy required to
charge the virtual supply rail" and worsens crowbar).  This module turns
that two-point observation into a trend by sweeping generated multipliers
across operand widths: per width it applies SCPG, sizes headers, and
derives the figures the paper discusses -- the gatable leakage share, the
per-cycle overhead, the convergence frequency and the 10 kHz savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.generators import DesignKey, elaborate
from ..errors import ScpgError
from ..netlist.core import Design
from ..netlist.stats import module_stats
from ..power.leakage import leakage_power
from ..runner import Runner, stable_hash_or_none
from ..scpg.power_model import Mode, ScpgPowerModel
from .sweep import find_convergence


@dataclass
class ScalingPoint:
    """SCPG characteristics of one design size."""

    width: int
    comb_gates: int
    comb_leak: float
    alwayson_leak: float
    overhead_energy: float       # per-cycle gating overhead at full swing
    convergence_hz: float        # None -> saving persists to SCPG Fmax
    saving_10k_pct: float
    savingmax_10k_pct: float
    header_size: int
    area_overhead_pct: float


@dataclass
class ScalingStudy:
    """A sweep over operand widths."""

    points: list = field(default_factory=list)

    def trend(self, attr):
        """Values of ``attr`` ordered by design size."""
        return [getattr(p, attr) for p in
                sorted(self.points, key=lambda p: p.comb_gates)]


def _estimate_e_cycle(module, library):
    """Vectorless switched-energy estimate (adequate for trends)."""
    from ..power.probabilistic import vectorless_switching

    return vectorless_switching(module, library)[0]


def evaluate_width(library, width):
    """One :class:`ScalingPoint` for a ``width x width`` multiplier."""
    from ..techniques import technique

    design = Design(elaborate(DesignKey("multiplier", n=width), library,
                              fresh=True), library)
    e_cycle = _estimate_e_cycle(design.top, library)
    scpg = technique("scpg").transform(design, energy_per_cycle=e_cycle)
    model = ScpgPowerModel.from_scpg_design(scpg, e_cycle)
    base = leakage_power(design.top, library)
    model.leak_comb_base = base.combinational
    model.leak_alwayson_base = base.always_on

    row = model.table_row(1e4)
    nopg, s50, smax = row[Mode.NO_PG], row[Mode.SCPG], row[Mode.SCPG_MAX]
    try:
        convergence = find_convergence(model, Mode.SCPG)
    except ScpgError:
        convergence = None
    stats = module_stats(design.top)
    return ScalingPoint(
        width=width,
        comb_gates=stats.comb_gates,
        comb_leak=model.leak_comb,
        alwayson_leak=model.leak_alwayson,
        overhead_energy=scpg.rail.cycle_overhead(
            library.vdd_nom, 1e-3, scpg.headers.gate_cap),
        convergence_hz=convergence,
        saving_10k_pct=s50.saving_vs(nopg),
        savingmax_10k_pct=smax.saving_vs(nopg),
        header_size=scpg.headers.cell.drive_strength,
        area_overhead_pct=scpg.area_overhead_pct,
    )


def _width_point(library, width):
    return evaluate_width(library, width)


def scaling_study(library, widths=(8, 12, 16, 24, 32), runner=None):
    """Sweep multiplier widths; returns a :class:`ScalingStudy`.

    Each width is an independent build-transform-model pipeline, so with
    a ``runner`` the widths evaluate in parallel worker processes and land
    in the content-addressed cache keyed by the library's fingerprint.
    """
    runner = Runner() if runner is None else runner
    points = runner.run(_width_point, [int(w) for w in widths],
                        context=library,
                        cache_key=stable_hash_or_none("scaling-point",
                                                      library))
    study = ScalingStudy()
    study.points.extend(points)
    return study
