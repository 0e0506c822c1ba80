"""LECTOR: leakage-control transistor insertion (arXiv 1805.07409).

LECTOR attacks active-mode leakage without any sleep signal at all: two
*leakage control transistors* (LCTs) are spliced between the pull-up and
pull-down networks of every gate, each LCT's gate driven by the source
of the other.  In any input state one LCT is near its cutoff region, so
every supply-to-ground path always contains a stacked, barely-on device
-- the transistor stacking effect -- and the gate keeps functioning with
no control logic, no state loss and no wake-up latency.  The price is an
extra series device: more area, a slower output, a little extra internal
capacitance.

The reproduction models this as a *library* transform:

* :func:`lector_library` derives a ``<lib>-lector`` variant library in
  which every combinational/buffer cell gains an ``_LCT`` twin --
  leakage divided by the device model's self-consistent stacking factor
  (:meth:`~repro.tech.transistor.DeviceModel.stack_leakage_factor`),
  area/delay/cap penalties amortised over the cell's input count (a
  2-transistor overhead on a ``2*n_in``-transistor CMOS gate).
* :meth:`LectorTechnique.transform` swaps every eligible instance for
  its twin with :func:`~repro.netlist.transform.remap_cells`, and the
  power/timing numbers come from running the ordinary leakage, activity
  and STA engines on the remapped netlist against the variant library.

The delay penalty is calibrated so an inverter (``n_in = 1``) slows by
~35 %, matching the LECTOR paper's reported propagation-delay cost,
and shrinks for wider gates where two extra devices matter less.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..netlist.core import Design
from ..netlist.stats import module_stats
from ..netlist.transform import remap_cells
from ..power.leakage import leakage_power
from ..power.probabilistic import vectorless_switching
from ..sta.analysis import timing_for
from ..tech.library import CellKind, Library
from .base import (
    Technique,
    TechniqueBreakdown,
    TechniqueModel,
    common_checks,
)

#: Suffix of the derived cell variants.
LCT_SUFFIX = "_LCT"

#: Fractional delay penalty of the two LCTs on a single-input gate.
DELAY_PENALTY = 0.35

#: Fractional internal-capacitance penalty on a single-input gate.
CAP_PENALTY = 0.5

#: Kinds that receive an LCT variant (the gates LECTOR rebuilds).
LCT_KINDS = (CellKind.COMBINATIONAL, CellKind.BUFFER)


def _lct_cell(cell, stack):
    """The ``_LCT`` twin of one combinational cell.

    ``stack`` is the leakage division factor from the stacking effect.
    Penalties scale with ``1/n_in``: LECTOR adds exactly two transistors
    to a gate that already has ``2 * n_in``, so wide gates pay
    proportionally less.
    """
    n_in = max(1, len(cell.inputs))
    states = [dataclasses.replace(s, power=s.power / stack)
              for s in cell.leakage_states]
    return dataclasses.replace(
        cell,
        name=cell.name + LCT_SUFFIX,
        area=cell.area * (1.0 + 1.0 / n_in),
        leakage=cell.leakage / stack,
        leakage_states=states,
        intrinsic_delay=cell.intrinsic_delay * (1.0 + DELAY_PENALTY / n_in),
        drive_resistance=cell.drive_resistance
        * (1.0 + DELAY_PENALTY / n_in),
        c_internal=cell.c_internal * (1.0 + CAP_PENALTY / n_in),
    )


def lector_library(library):
    """Derive the ``<name>-lector`` variant library.

    Keeps every original cell (sequential/clock/header cells are not
    touched by LECTOR) and adds an ``_LCT`` twin for each
    combinational/buffer cell with at least one input and one output.
    """
    stack = library.device_model("svt").stack_leakage_factor(library.vdd_nom)
    out = Library(
        library.name + "-lector",
        library.vdd_nom,
        dict(library.devices),
        temp_c=library.temp_c,
        wire_cap_per_fanout=library.wire_cap_per_fanout,
    )
    out.ref_devices = dict(library.ref_devices)
    for cell in library.cells():
        out.add_cell(cell)
        if cell.kind in LCT_KINDS and cell.inputs and cell.outputs:
            out.add_cell(_lct_cell(cell, stack))
    return out


@dataclass
class LectorDesign:
    """Everything produced by the LECTOR transform."""

    design: Design          # remapped design against the variant library
    base: Design            # the original design
    stack_factor: float     # leakage division per gated cell
    swapped: int            # number of instances remapped to _LCT twins

    @property
    def area(self):
        return module_stats(self.design.top).area

    @property
    def base_area(self):
        return module_stats(self.base.top).area

    @property
    def area_overhead_pct(self):
        return 100.0 * (self.area - self.base_area) / self.base_area


@dataclass
class LectorModel(TechniqueModel):
    """Frequency -> power surface of a LECTOR-remapped design.

    No control overhead bucket: LECTOR has no sleep signal.  The
    technique's costs show up as a higher ``e_cycle`` (extra internal
    capacitance) and a lower ``fmax`` (slower gates); its benefit as a
    stacked-down ``leak_total``.
    """

    e_cycle: float
    leak_total: float
    fmax_hz: float
    vdd: float

    technique = "lector"

    def __fingerprint__(self):
        return ("technique-lector-v1", self.e_cycle, self.leak_total,
                self.fmax_hz, self.vdd)

    def fmax(self):
        return self.fmax_hz

    def breakdown(self, freq_hz):
        self._check_freq(freq_hz)
        return TechniqueBreakdown(
            technique="lector", freq_hz=freq_hz,
            p_dynamic=self.e_cycle * freq_hz,
            p_overhead=0.0,
            p_leak=self.leak_total)


@dataclass
class LectorTable:
    """Picklable artifact snapshot: the remapped design's measured
    numbers at the characterisation point, ready to rescale to any
    operating voltage without the netlist."""

    leak_nom: float         # leakage_power(...) at vdd_nom (W)
    t_eval: float
    t_setup: float
    sta_vdd: float
    e_ratio: float          # switched energy vs the base design
    swapped: int
    stack_factor: float

    @classmethod
    def compile(cls, transformed):
        lib = transformed.design.library
        top = transformed.design.top
        report = leakage_power(top, lib)
        sta = timing_for(top, lib).run()
        e_new, _ = vectorless_switching(top, lib)
        e_base, _ = vectorless_switching(transformed.base.top,
                                         transformed.base.library)
        return cls(
            leak_nom=report.total,
            t_eval=sta.eval_delay,
            t_setup=sta.setup,
            sta_vdd=sta.vdd,
            e_ratio=e_new / e_base if e_base > 0 else 1.0,
            swapped=transformed.swapped,
            stack_factor=transformed.stack_factor,
        )

    def build_model(self, library, e_cycle, base_leakage, vdd=None):
        vdd = library.vdd_nom if vdd is None else vdd
        leak_scale = library.leakage_scale(vdd, "svt")
        timing_scale = (library.delay_scale(vdd)
                        / library.delay_scale(self.sta_vdd))
        t_eval = self.t_eval * timing_scale
        t_setup = self.t_setup * timing_scale
        return LectorModel(
            e_cycle=e_cycle * self.e_ratio * library.energy_scale(vdd),
            leak_total=self.leak_nom * leak_scale,
            fmax_hz=1.0 / (t_eval + t_setup),
            vdd=vdd)


class LectorTechnique(Technique):
    """Leakage-control transistor insertion as a plugin."""

    name = "lector"
    paper = "LECTOR leakage-control transistors (arXiv 1805.07409)"
    version = "lector-column-v1"

    def check(self, design, clock_port="clk"):
        # LECTOR needs no sleep/clock control at all.
        return common_checks(self.name, design, clock_port=clock_port,
                             needs_clock=False)

    def transform(self, design, **options):
        """Swap every eligible gate for its ``_LCT`` twin; returns a
        :class:`LectorDesign` bound to the variant library."""
        if options:
            raise TypeError(
                "lector transform takes no options: {}".format(
                    ", ".join(sorted(options))))
        lib_l = lector_library(design.library)
        cell_map = {}
        for cell in design.library.cells():
            if lib_l.has_cell(cell.name + LCT_SUFFIX):
                cell_map[cell.name] = lib_l.cell(cell.name + LCT_SUFFIX)
        swapped = sum(1 for inst in design.top.cell_instances()
                      if inst.cell.name in cell_map)
        top = remap_cells(design.top, cell_map)
        stack = design.library.device_model("svt") \
            .stack_leakage_factor(design.library.vdd_nom)
        return LectorDesign(
            design=Design(top, lib_l),
            base=design,
            stack_factor=stack,
            swapped=swapped,
        )

    def artifact_table(self, transformed):
        return LectorTable.compile(transformed)

    def sweep_model(self, transformed, *, library, e_cycle, base_leakage,
                    base_sta, vdd=None):
        return self.artifact_table(transformed).build_model(
            library, e_cycle, base_leakage, vdd=vdd)
