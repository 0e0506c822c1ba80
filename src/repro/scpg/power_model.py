"""Cycle-level average power of No-PG / SCPG / SCPG-Max / Override designs.

The decomposition behind Tables I and II::

    P(f) = E_cycle * f                      switching (logic + isolation)
         + E_overhead(t_high) * f           SCPG only: rail recharge +
                                            crowbar + header gate
         + P_leak_alwayson                  sequential / clock / iso / ctl
         + P_leak_comb * on_fraction        combinational domain when live
         + P_leak_comb_decay                leak while the rail collapses
         + P_leak_header * off_fraction     residual through the headers

Under No-PG the combinational domain simply leaks all cycle.  Under SCPG
the header is off for the clock-high phase ``t_high = duty * T``; leakage
then decays with the rail (time constant from the rail model), and the
recharge/crowbar/header energies are paid once per cycle.  As frequency
rises, ``t_high`` shrinks toward the collapse time constant and the saving
vanishes while the overhead stays -- producing the convergence behaviour
of Figs 6(a)/8(a) and the negative Cortex-M0 savings at 5-10 MHz.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ScpgError
from ..netlist.soa import LeakageSoa, leakage_soa_for
from ..obs.trace import layer
from ..power.leakage import LeakageReport
from ..sta.constraints import ClockSpec
from .clocking import scpg_feasible
from .duty import clamp_duty, optimise_duty


class Mode(enum.Enum):
    """Operating configurations compared in the paper."""

    NO_PG = "no-pg"          # original design, no SCPG circuitry
    SCPG = "scpg"            # SCPG at 50% clock duty cycle
    SCPG_MAX = "scpg-max"    # SCPG at the maximum feasible duty cycle
    OVERRIDE = "override"    # SCPG design with gating overridden (always on)


@dataclass
class PowerBreakdown:
    """One operating point's power decomposition (W, J)."""

    mode: Mode
    freq_hz: float
    duty: float
    p_dynamic: float
    p_overhead: float
    p_leak_alwayson: float
    p_leak_comb: float
    p_leak_header: float

    @property
    def total(self):
        """Average power (W)."""
        return (
            self.p_dynamic
            + self.p_overhead
            + self.p_leak_alwayson
            + self.p_leak_comb
            + self.p_leak_header
        )

    @property
    def leakage(self):
        """Total leakage component (W)."""
        return self.p_leak_alwayson + self.p_leak_comb + self.p_leak_header

    @property
    def energy_per_op(self):
        """Energy per operation (J) -- one operation per clock cycle."""
        return self.total / self.freq_hz

    def saving_vs(self, other):
        """Percent power saving relative to ``other`` (positive = better)."""
        return 100.0 * (other.total - self.total) / other.total


class ScpgPowerModel:
    """Evaluate the Tables I/II power model for one design.

    Parameters
    ----------
    e_cycle:
        Switched energy per clock cycle of the base design (J).
    leak_comb:
        Combinational-domain leakage (W) at the operating voltage.
    leak_alwayson:
        Always-on leakage (W): sequential, clock tree, isolation cells,
        controller.
    leak_header_off:
        Residual leakage through the gated header network (W).
    rail:
        :class:`~repro.power.rails.VirtualRailModel` of the gated domain.
    header_gate_cap:
        Summed header gate capacitance (F).
    timing:
        :class:`~repro.scpg.clocking.ScpgTimingParams` at this voltage.
    vdd:
        Operating supply (V).
    e_iso_cycle:
        Extra switching energy of the isolation cells and controller per
        cycle (J); charged in every SCPG/Override mode.
    """

    def __init__(self, e_cycle, leak_comb, leak_alwayson, leak_header_off,
                 rail, header_gate_cap, timing, vdd, e_iso_cycle=0.0):
        self.e_cycle = e_cycle
        self.leak_comb = leak_comb
        self.leak_alwayson = leak_alwayson
        self.leak_header_off = leak_header_off
        self.rail = rail
        self.header_gate_cap = header_gate_cap
        self.timing = timing
        self.vdd = vdd
        self.e_iso_cycle = e_iso_cycle

    def __fingerprint__(self):
        """Content identity for result-cache keys (see repro.runner).

        Everything :meth:`power` reads enters the fingerprint -- including
        the explicitly-set No-PG base leakages, which default to the SCPG
        figures but change the NO_PG breakdowns when overridden.
        """
        return (
            "scpg-model-v1",
            self.e_cycle,
            self.leak_comb,
            self.leak_alwayson,
            self.leak_header_off,
            self.rail,
            self.header_gate_cap,
            self.timing,
            self.vdd,
            self.e_iso_cycle,
            self.leak_comb_base,
            self.leak_alwayson_base,
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    @layer("scpg.model")
    def from_scpg_design(cls, scpg_design, e_cycle, vdd=None,
                         extra_alwayson=0.0):
        """Build the model from an :class:`~repro.scpg.transform.ScpgDesign`
        and a measured per-cycle energy (through its
        :class:`ScpgModelTable`).

        ``extra_alwayson`` adds always-on leakage not present in the
        netlist yet (e.g. a clock tree before CTS has run).
        """
        return ScpgModelTable.compile(scpg_design).build_model(
            scpg_design.design.library, e_cycle, vdd=vdd,
            extra_alwayson=extra_alwayson)

    # -- evaluation -------------------------------------------------------------

    def feasible_fmax(self, mode, duty=0.5):
        """Highest frequency the mode supports.

        SCPG-Max may *lower* the duty cycle below 50% near Fmax (the
        paper: duty adjustment "allows the application of SCPG even when
        T_clk/2 < T_eval < T_clk"), so its ceiling is set by the duty
        floor, not the 50% point.
        """
        if mode in (Mode.NO_PG, Mode.OVERRIDE):
            return 1.0 / (self.timing.t_eval + self.timing.t_setup)
        if mode is Mode.SCPG_MAX:
            from .duty import DUTY_CYCLE_FLOOR

            duty = DUTY_CYCLE_FLOOR
        return (1.0 - duty) / self.timing.low_phase_demand

    def power(self, freq_hz, mode, duty=None):
        """Evaluate the model; returns a :class:`PowerBreakdown`.

        Raises :class:`ScpgError` when the frequency/duty combination is
        infeasible for the mode.
        """
        if freq_hz <= 0:
            raise ScpgError("frequency must be positive")
        if mode in (Mode.NO_PG, Mode.OVERRIDE):
            return self._power_ungated(freq_hz, mode)
        if mode is Mode.SCPG:
            duty = 0.5 if duty is None else duty
        else:  # SCPG_MAX
            duty = optimise_duty(freq_hz, self.timing) if duty is None \
                else duty
        clock = ClockSpec(freq_hz, duty)
        if not scpg_feasible(clock, self.timing):
            raise ScpgError(
                "SCPG infeasible at {:.3g} Hz with duty {:.2f}: low phase "
                "{:.3g} s < demand {:.3g} s".format(
                    freq_hz, duty, clock.t_low,
                    self.timing.low_phase_demand)
            )
        t_high = clock.t_high
        period = clock.period

        # Leakage of the gated domain: fully on during the low phase,
        # decaying during collapse, residual through the header after.
        on_time = period - t_high
        decay_time = self.rail.effective_leak_time(t_high)
        comb_eff = self.leak_comb * (on_time + decay_time) / period
        header_eff = self.leak_header_off * max(
            0.0, t_high - decay_time) / period

        overhead = self.rail.cycle_overhead(
            self.vdd, t_high, self.header_gate_cap) * freq_hz

        return PowerBreakdown(
            mode=mode,
            freq_hz=freq_hz,
            duty=duty,
            p_dynamic=(self.e_cycle + self.e_iso_cycle) * freq_hz,
            p_overhead=overhead,
            p_leak_alwayson=self.leak_alwayson,
            p_leak_comb=comb_eff,
            p_leak_header=header_eff,
        )

    # -- batch kernels ----------------------------------------------------------

    def _freq_batch(self, freqs, mode, duty=None):
        """Evaluate one mode across a whole frequency axis in one pass.

        Returns one :class:`PowerBreakdown` per frequency, with ``None``
        where :meth:`power` would raise :class:`ScpgError` -- the exact
        ``None`` convention of :func:`repro.analysis.sweep.sweep`.  The
        per-mode constants (feasibility limit, hoisted energy sums, duty
        bounds) are computed once; every per-point operation replays
        :meth:`power`'s arithmetic unchanged, so results are
        bit-identical to the point-at-a-time path.
        """
        if mode in (Mode.NO_PG, Mode.OVERRIDE):
            fmax = 1.0 / (self.timing.t_eval + self.timing.t_setup)
            limit = fmax * 1.0001
            if mode is Mode.NO_PG:
                e_dyn = self.e_cycle
                leak_on = self.leak_alwayson_base
                leak_comb = self.leak_comb_base
            else:
                e_dyn = self.e_cycle + self.e_iso_cycle
                leak_on = self.leak_alwayson
                leak_comb = self.leak_comb
            out = []
            for f in freqs:
                if f <= 0 or f > limit:
                    out.append(None)
                    continue
                out.append(PowerBreakdown(
                    mode=mode, freq_hz=f, duty=0.5,
                    p_dynamic=e_dyn * f, p_overhead=0.0,
                    p_leak_alwayson=leak_on, p_leak_comb=leak_comb,
                    p_leak_header=0.0))
            return out

        timing = self.timing
        demand = timing.low_phase_demand
        tol = demand * (1.0 - 1e-6)
        rail = self.rail
        effective_leak_time = rail.effective_leak_time
        cycle_overhead = rail.cycle_overhead
        e_dyn = self.e_cycle + self.e_iso_cycle
        leak_comb = self.leak_comb
        leak_header_off = self.leak_header_off
        leak_on = self.leak_alwayson
        vdd = self.vdd
        header_gate_cap = self.header_gate_cap
        is_scpg = mode is Mode.SCPG
        out = []
        for f in freqs:
            if f <= 0:
                out.append(None)
                continue
            if duty is not None:
                d = duty
            elif is_scpg:
                d = 0.5
            else:
                d = clamp_duty(1.0 - demand * f)
                if d is None:
                    out.append(None)
                    continue
            period = 1.0 / f
            t_high = period * d
            t_low = period * (1.0 - d)
            if not t_low >= tol:
                out.append(None)
                continue
            on_time = period - t_high
            decay_time = effective_leak_time(t_high)
            comb_eff = leak_comb * (on_time + decay_time) / period
            header_eff = leak_header_off * max(
                0.0, t_high - decay_time) / period
            overhead = cycle_overhead(vdd, t_high, header_gate_cap) * f
            out.append(PowerBreakdown(
                mode=mode, freq_hz=f, duty=d,
                p_dynamic=e_dyn * f, p_overhead=overhead,
                p_leak_alwayson=leak_on, p_leak_comb=comb_eff,
                p_leak_header=header_eff))
        return out

    def _power_points(self, points):
        """Batch-evaluate ``(freq_hz, mode)`` sweep points.

        Groups the points by mode, runs each group through
        :meth:`_freq_batch`, and reassembles results in point order --
        the batch kernel :func:`repro.analysis.sweep.sweep` hands the
        runner.
        """
        out = [None] * len(points)
        by_mode = {}
        for i, (freq_hz, mode) in enumerate(points):
            by_mode.setdefault(mode, []).append((i, freq_hz))
        for mode, items in by_mode.items():
            values = self._freq_batch([f for _, f in items], mode)
            for (i, _), value in zip(items, values):
                out[i] = value
        return out

    def _power_ungated(self, freq_hz, mode):
        fmax = self.feasible_fmax(mode)
        if freq_hz > fmax * 1.0001:
            raise ScpgError(
                "{:.3g} Hz exceeds Fmax {:.3g} Hz".format(freq_hz, fmax))
        if mode is Mode.NO_PG:
            # The base design: no headers, no isolation.
            return PowerBreakdown(
                mode=mode,
                freq_hz=freq_hz,
                duty=0.5,
                p_dynamic=self.e_cycle * freq_hz,
                p_overhead=0.0,
                p_leak_alwayson=self.leak_alwayson_base,
                p_leak_comb=self.leak_comb_base,
                p_leak_header=0.0,
            )
        # Override: SCPG silicon with gating disabled -- pays the iso/ctl
        # leakage and switching, headers always on (their channel leakage
        # is negligible next to the logic under them).
        return PowerBreakdown(
            mode=mode,
            freq_hz=freq_hz,
            duty=0.5,
            p_dynamic=(self.e_cycle + self.e_iso_cycle) * freq_hz,
            p_overhead=0.0,
            p_leak_alwayson=self.leak_alwayson,
            p_leak_comb=self.leak_comb,
            p_leak_header=0.0,
        )

    # The No-PG reference excludes SCPG circuitry; by default assume the
    # SCPG netlist's extra always-on leakage (iso + controller) is small
    # and reuse the same figures, unless base values are set explicitly.
    @property
    def leak_comb_base(self):
        """Combinational leakage of the unmodified design (W)."""
        return getattr(self, "_leak_comb_base", self.leak_comb)

    @leak_comb_base.setter
    def leak_comb_base(self, value):
        self._leak_comb_base = value

    @property
    def leak_alwayson_base(self):
        """Always-on leakage of the unmodified design (W)."""
        return getattr(self, "_leak_alwayson_base", self.leak_alwayson)

    @leak_alwayson_base.setter
    def leak_alwayson_base(self, value):
        self._leak_alwayson_base = value

    def table_row(self, freq_hz):
        """No-PG / SCPG / SCPG-Max breakdowns at one frequency (a Table I/II
        row); infeasible entries come back as ``None``."""
        row = {}
        for mode in (Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX):
            try:
                row[mode] = self.power(freq_hz, mode)
            except ScpgError:
                row[mode] = None
        return row


@dataclass
class ScpgModelTable:
    """Everything :class:`ScpgPowerModel` is built from, snapshot from an
    :class:`~repro.scpg.transform.ScpgDesign` without its netlist.

    ``leakage`` is the transformed netlist's
    :class:`~repro.netlist.soa.LeakageSoa`; the rest are the nominal SCPG
    timing, the rail model, the header gate capacitance, the
    isolation-cell count and the transform's area overhead (the figure a
    technique comparison reports).  :meth:`build_model` is the one model
    constructor (:meth:`ScpgPowerModel.from_scpg_design` compiles a table
    and calls it), and the per-circuit artifact bundle stores the table
    so a bundle loaded from disk rebuilds the same model.
    """

    leakage: LeakageSoa
    timing_nominal: object      # ScpgTimingParams at sta_vdd
    sta_vdd: float
    rail: object                # VirtualRailModel
    header_gate_cap: float
    n_iso: int
    area_overhead_pct: float

    @classmethod
    def compile(cls, scpg_design):
        """Snapshot an :class:`~repro.scpg.transform.ScpgDesign`."""
        return cls(
            leakage=leakage_soa_for(scpg_design.flat.top),
            timing_nominal=scpg_design.timing,
            sta_vdd=scpg_design.sta.vdd,
            rail=scpg_design.rail,
            header_gate_cap=scpg_design.headers.gate_cap,
            n_iso=len(scpg_design.iso_instances),
            area_overhead_pct=scpg_design.area_overhead_pct,
        )

    @layer("scpg.model")
    def build_model(self, library, e_cycle, vdd=None, extra_alwayson=0.0):
        """The :class:`ScpgPowerModel` at ``vdd`` (default nominal) for a
        base-design switched energy ``e_cycle`` characterised at nominal.

        The isolation term charges the ISOLATE net, which toggles twice
        per cycle into every clamp, plus an output transition in half
        the clamps.
        """
        vdd = library.vdd_nom if vdd is None else vdd
        report = LeakageReport.from_soa(self.leakage, library, vdd)
        timing = self.timing_nominal.scaled(
            library.delay_scale(vdd) / library.delay_scale(self.sta_vdd))
        iso_cell = library.cell("ISO_AND_X1")
        ctl_cap = self.n_iso * iso_cell.pin("ISO").capacitance
        out_cap = 0.5 * self.n_iso * iso_cell.c_internal
        return ScpgPowerModel(
            e_cycle=e_cycle * library.energy_scale(vdd),
            leak_comb=report.combinational,
            leak_alwayson=report.always_on + extra_alwayson,
            leak_header_off=report.headers,
            rail=self.rail,
            header_gate_cap=self.header_gate_cap,
            timing=timing,
            vdd=vdd,
            e_iso_cycle=(ctl_cap + out_cap) * vdd * vdd,
        )
