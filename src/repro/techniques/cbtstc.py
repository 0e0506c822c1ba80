"""Cluster-based tunable sleep transistor cells (CBTSTC, arXiv 1310.3203).

Where SCPG gates the whole combinational domain from the clock, CBTSTC
partitions the logic into *clusters*, gives each cluster its own sleep
transistor cell, and tunes every cell to its cluster's worst-case
discharge current and observed activity:

* **Clustering** -- gatable gates are grouped along the levelized
  topological order (:func:`repro.netlist.traverse.levelize`), so a
  cluster's gates share inputs and tend to idle together.
* **Sizing** -- each cluster gets the smallest library header whose IR
  drop under the cluster's peak-current share meets the budget (the
  same §III machinery SCPG uses, applied per cluster).
* **Tuning** -- the TSTC's off-state gate bias is a digital knob: idle-
  dominated clusters get a deeper (super-cutoff) bias that crushes the
  residual leakage, busy clusters stay at nominal bias to keep the
  wake energy low.  The residual ratio comes from the hvt device model
  (:meth:`~repro.tech.transistor.DeviceModel.biased_leakage`).
* **Power model** -- active-mode gating driven by per-cluster idle
  probability from the vectorless activity estimate: a cluster leaks
  fully while active and through its (biased) TSTC while idle; sleep
  transitions charge the TSTC gate and recharge the cluster's local
  rail every wake.

Calibrated against the same scl90 library as SCPG so the comparison in
``Session.compare_techniques`` is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TechniqueError
from ..netlist.core import Design
from ..netlist.stats import module_stats
from ..netlist.traverse import levelize
from ..netlist.validate import validate_module
from ..obs.trace import layer
from ..power.headers import DEFAULT_IR_BUDGET, peak_current
from ..power.leakage import GATABLE_KINDS
from ..power.probabilistic import activity_for, vectorless_switching
from ..power.rails import RailParams
from ..sta.analysis import timing_for
from ..tech.library import CellKind
from .base import (
    Technique,
    TechniqueBreakdown,
    TechniqueModel,
    common_checks,
)

#: Default gates per cluster (the paper clusters tens of gates per TSTC).
DEFAULT_CLUSTER_SIZE = 24

#: Deepest super-cutoff gate bias, as a fraction of VDD.
MAX_BIAS_FRACTION = 0.15

#: Number of discrete tuning steps the TSTC bias DAC offers.
BIAS_STEPS = 3


@dataclass
class TstcCluster:
    """One cluster and its tuned sleep transistor cell."""

    index: int
    instances: list
    level_lo: int
    level_hi: int
    leak_base: float        # summed cell leakage at vdd_nom (W)
    c_internal: float       # summed internal cap (F) -- sizing share
    p_active: float         # probability the cluster switches in a cycle
    header_cell: str        # chosen TSTC (a library HEADER cell)
    header_ron: float       # its on-resistance (ohm)
    header_gate_cap: float  # its gate capacitance (F)
    header_leak: float      # its unbiased off-state residual (W at nom)
    bias_step: int          # chosen tuning step (0 = nominal bias)
    bias_v: float           # gate underdrive (V) of that step
    ir_drop: float          # IR drop at the cluster's peak current (V)


@dataclass
class CbtstcDesign:
    """Everything produced by the CBTSTC transform."""

    design: Design          # transformed flat design with TSTC instances
    base: Design            # the original design
    clusters: list = field(default_factory=list)
    sleep_port: str = "tstc_sleep"
    sta: object = None      # base design's timing result
    e_cycle_est: float = 0.0

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
class CbtstcModel(TechniqueModel):
    """Frequency -> power surface of a CBTSTC-transformed design.

    All inputs are pre-reduced scalars (picklable, fingerprintable)::

        P(f) = E_cycle * f                      useful switching
             + E_ctl * f                        sleep-control + wake energy
             + P_leak_alwayson                  sequential / clock tree
             + sum_c [ p_on * P_leak_c          cluster awake
                     + (1 - p_on) * P_resid_c ] cluster gated (biased TSTC)
    """

    e_cycle: float
    e_ctl: float
    leak_alwayson: float
    leak_eff: float
    fmax_hz: float
    vdd: float

    technique = "cbtstc"

    def __fingerprint__(self):
        return ("technique-cbtstc-v1", self.e_cycle, self.e_ctl,
                self.leak_alwayson, self.leak_eff, self.fmax_hz, self.vdd)

    def fmax(self):
        return self.fmax_hz

    def breakdown(self, freq_hz):
        self._check_freq(freq_hz)
        return TechniqueBreakdown(
            technique="cbtstc", freq_hz=freq_hz,
            p_dynamic=self.e_cycle * freq_hz,
            p_overhead=self.e_ctl * freq_hz,
            p_leak=self.leak_alwayson + self.leak_eff)


@dataclass
class CbtstcTable:
    """Picklable snapshot of a CBTSTC transform (the per-technique
    artifact table): enough per-cluster scalars to rebuild the power
    model without the netlist, like
    :class:`~repro.scpg.power_model.ScpgModelTable` does for SCPG."""

    clusters: list
    t_eval: float
    t_setup: float
    sta_vdd: float
    e_cycle_est: float

    @classmethod
    def compile(cls, transformed):
        sta = transformed.sta
        return cls(clusters=list(transformed.clusters),
                   t_eval=sta.eval_delay, t_setup=sta.setup,
                   sta_vdd=sta.vdd,
                   e_cycle_est=transformed.e_cycle_est)

    def build_model(self, library, e_cycle, base_leakage, vdd=None):
        """Reduce the cluster table to a :class:`CbtstcModel` at ``vdd``.

        ``e_cycle`` is the base design's measured/estimated switched
        energy per cycle; ``base_leakage`` the base design's
        :class:`~repro.power.leakage.LeakageReport` at nominal.
        """
        vdd = library.vdd_nom if vdd is None else vdd
        svt_scale = library.leakage_scale(vdd, "svt")
        hvt_scale = library.leakage_scale(vdd, "hvt")
        hvt = library.device_model("hvt")
        unbiased = hvt.biased_leakage(vdd, 0.0)

        leak_eff = 0.0
        e_ctl = 0.0
        worst_ir = 0.0
        for c in self.clusters:
            leak_c = c.leak_base * svt_scale
            if unbiased > 0:
                bias_ratio = hvt.biased_leakage(vdd, -c.bias_v) / unbiased
            else:
                bias_ratio = 1.0
            resid_c = c.header_leak * hvt_scale * bias_ratio
            p_on = c.p_active
            leak_eff += p_on * leak_c + (1.0 - p_on) * resid_c
            # Sleep-control energy: the TSTC gate swings VDD + bias on
            # every sleep transition; each wake also recharges the
            # cluster's local virtual rail.
            p_trans = 2.0 * p_on * (1.0 - p_on)
            gate_swing = vdd + c.bias_v
            e_gate = c.header_gate_cap * gate_swing * gate_swing
            e_wake = (RailParams().rail_cap_fraction * c.c_internal
                      * vdd * vdd)
            e_ctl += p_trans * e_gate + 0.5 * p_trans * e_wake
            worst_ir = max(worst_ir, c.ir_drop)

        # The worst cluster's IR drop slows every path through it.
        delay_factor = (library.delay_scale(max(vdd - worst_ir, 1e-3))
                        / library.delay_scale(vdd))
        timing_scale = (library.delay_scale(vdd)
                        / library.delay_scale(self.sta_vdd))
        t_eval = self.t_eval * timing_scale * delay_factor
        t_setup = self.t_setup * timing_scale
        return CbtstcModel(
            e_cycle=e_cycle * library.energy_scale(vdd),
            e_ctl=e_ctl,
            leak_alwayson=base_leakage.always_on * svt_scale
            / library.leakage_scale(base_leakage.vdd, "svt"),
            leak_eff=leak_eff,
            fmax_hz=1.0 / (t_eval + t_setup),
            vdd=vdd)


class CbtstcTechnique(Technique):
    """Clustered tunable sleep transistor cells as a plugin."""

    name = "cbtstc"
    paper = "Cluster-based tunable sleep transistor cells (arXiv 1310.3203)"

    def check(self, design, clock_port="clk"):
        # CBTSTC's sleep control is activity-driven, not clock-derived.
        return common_checks(self.name, design, clock_port=clock_port,
                             needs_clock=False)

    @layer("techniques.transform")
    def transform(self, design, cluster_size=DEFAULT_CLUSTER_SIZE,
                  ir_budget=DEFAULT_IR_BUDGET, sleep_port="tstc_sleep",
                  energy_per_cycle=None):
        """Cluster the gatable logic and instantiate one tuned TSTC per
        cluster; returns a :class:`CbtstcDesign`."""
        lib = design.library
        top_src = design.top
        validate_module(top_src).raise_if_errors()
        if cluster_size < 1:
            raise TechniqueError("cluster_size must be >= 1")

        sta = timing_for(top_src, lib).nominal
        activity = activity_for(top_src)
        if energy_per_cycle is None:
            energy_per_cycle, _ = vectorless_switching(top_src, lib)

        levels = levelize(top_src)
        gatable = [i for i in top_src.cell_instances()
                   if i.cell.kind in GATABLE_KINDS]
        if not gatable:
            raise TechniqueError("design has no gatable logic to cluster")
        gatable.sort(key=lambda i: (levels.get(i.name, 0), i.name))
        groups = [gatable[k:k + cluster_size]
                  for k in range(0, len(gatable), cluster_size)]

        vdd = lib.vdd_nom
        headers = sorted(lib.cells_of_kind(CellKind.HEADER),
                         key=lambda c: c.drive_strength)
        if not headers:
            raise TechniqueError(
                "library {} has no header cells".format(lib.name))
        c_int_total = sum(i.cell.c_internal for i in gatable) or 1.0

        clusters = []
        for index, group in enumerate(groups):
            leak_base = sum(i.cell.leakage for i in group)
            c_int = sum(i.cell.c_internal for i in group)
            # Fraction of cycles the cluster must be awake.  Clusters
            # are level-contiguous, so their gates share fanin cones
            # and switch together; the perfectly-correlated estimate
            # ``max(density)`` models that (the independent-union bound
            # saturates to 1 over tens of gates and would never sleep).
            p_active = 0.0
            for inst in group:
                for _pin, net in _output_nets(inst):
                    dens = min(1.0, activity.density.get(net.name, 0.0))
                    p_active = max(p_active, dens)

            # Size: smallest TSTC meeting the IR budget at this
            # cluster's share of the peak current.
            share = c_int / c_int_total
            i_peak = peak_current(energy_per_cycle * share,
                                  sta.eval_delay, vdd)
            chosen = headers[-1]
            for cell in headers:
                if i_peak * cell.header_ron <= ir_budget * vdd:
                    chosen = cell
                    break

            # Tune: idle-dominated clusters take the deepest bias step.
            step = min(BIAS_STEPS,
                       int(round(BIAS_STEPS * (1.0 - p_active))))
            bias_v = vdd * MAX_BIAS_FRACTION * step / BIAS_STEPS

            cluster_levels = [levels.get(i.name, 0) for i in group]
            clusters.append(TstcCluster(
                index=index,
                instances=[i.name for i in group],
                level_lo=min(cluster_levels),
                level_hi=max(cluster_levels),
                leak_base=leak_base,
                c_internal=c_int,
                p_active=p_active,
                header_cell=chosen.name,
                header_ron=chosen.header_ron,
                header_gate_cap=chosen.pin("SLEEP").capacitance,
                header_leak=chosen.leakage,
                bias_step=step,
                bias_v=bias_v,
                ir_drop=i_peak * chosen.header_ron,
            ))

        # The transformed netlist: a structural copy plus one TSTC
        # instance per cluster, all slept from one control input (the
        # per-cluster activity detectors live in the model).
        top = top_src.copy()
        sleep_net = top.add_input(sleep_port)
        for cluster in clusters:
            top.add_instance(
                "u_tstc_{}".format(cluster.index),
                lib.cell(cluster.header_cell),
                {"SLEEP": sleep_net})
        validate_module(top).raise_if_errors()

        return CbtstcDesign(
            design=Design(top, lib),
            base=design,
            clusters=clusters,
            sleep_port=sleep_port,
            sta=sta,
            e_cycle_est=energy_per_cycle,
        )

    def compare_input(self, handle, e_cycle):
        return self.transform(handle.design, energy_per_cycle=e_cycle)

    def artifact_table(self, transformed):
        return CbtstcTable.compile(transformed)

    @layer("techniques.model")
    def sweep_model(self, transformed, *, library, e_cycle, base_leakage,
                    base_sta, vdd=None):
        return self.artifact_table(transformed).build_model(
            library, e_cycle, base_leakage, vdd=vdd)


def _output_nets(inst):
    """(pin, net) for each connected output pin of a cell instance."""
    out = []
    for pin_name in inst.output_pins():
        net = inst.connections.get(pin_name)
        if net is not None and not net.is_const:
            out.append((pin_name, net))
    return out
