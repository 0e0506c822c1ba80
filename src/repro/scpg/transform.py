"""Apply sub-clock power gating to a design (steps 1-2 of the paper's
Fig. 5 flow, plus header sizing).

Given a flat design, :func:`_apply_scpg` (reached through
``repro.techniques.technique("scpg").transform``):

1. splits it into an always-on parent and a combinational child module
   (step 1: "parsing the netlist ... moving the combinational logic to a
   separate verilog module");
2. adds the VDDV sense tie, the Fig. 3 isolation controller, and isolation
   clamps on every child output (step 2: "custom isolation circuitry ...
   combined with the new split netlist");
3. derives the header network (sized per the §III IR-drop study unless a
   size is forced), instantiates the sleep transistors, and drives their
   SLEEP pins with ``clock AND override_n`` -- the active-low override
   forces the power gate on continuously, giving the Override
   peak-performance mode discussed in §IV;
4. produces the power-intent description (UPF-lite) and the book-keeping
   the power model and the flow reports need.

The transformed design remains simulatable: the phase-start flop sampling
of the gate simulator captures register data before the isolation clamps
assert on the rising edge, mirroring the hold-time argument of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ScpgError
from ..netlist.core import Design
from ..netlist.stats import module_stats
from ..netlist.transform import split_combinational
from ..netlist.validate import validate_module
from ..power.dynamic import DEFAULT_GLITCH_FACTOR
from ..power.headers import HeaderNetwork, size_header_network
from ..power.probabilistic import SwitchedCapacitance
from ..power.rails import RailParams, VirtualRailModel
from ..sta.analysis import timing_for
from . import isolation as iso
from .clocking import ScpgTimingParams, check_hold, timing_from_sta
from .domains import PowerDomainSpec
from .upf import dumps_upf


@dataclass
class ScpgDesign:
    """Everything produced by the SCPG netlist transform
    (``repro.techniques.technique("scpg").transform``).

    Attributes
    ----------
    design:
        The hierarchical SCPG design (always-on top + gated child).
    flat:
        Flattened copy for simulation and sign-off analyses.
    base:
        The original (pre-SCPG) flat design for comparisons.
    comb_module:
        The power-gated child module.
    headers:
        The chosen :class:`~repro.power.headers.HeaderNetwork`.
    header_sizings:
        The full §III sizing study (one entry per available size).
    rail:
        Virtual-rail model of the gated domain.
    timing:
        :class:`ScpgTimingParams` at the library's nominal voltage.
    sta:
        The base design's timing result.
    domains:
        UPF-level domain descriptions.
    upf:
        UPF-lite power-intent text.
    iso_instances / boundary_outputs:
        Isolation bookkeeping.
    """

    design: Design
    flat: Design
    base: Design
    comb_module: object
    headers: HeaderNetwork
    header_sizings: list
    rail: VirtualRailModel
    timing: ScpgTimingParams
    sta: object
    domains: list = field(default_factory=list)
    upf: str = ""
    iso_instances: list = field(default_factory=list)
    boundary_outputs: list = field(default_factory=list)

    @property
    def area(self):
        """Total cell area of the SCPG design (um^2)."""
        return module_stats(self.flat.top).area

    @property
    def base_area(self):
        """Cell area of the original design (um^2)."""
        return module_stats(self.base.top).area

    @property
    def area_overhead_pct(self):
        """SCPG area overhead in percent (paper: 3.9% / 6.6%)."""
        return 100.0 * (self.area - self.base_area) / self.base_area


def _apply_scpg(design, clock_port="clk", header_size=None,
                energy_per_cycle=None, rail_params=None,
                glitch_factor=DEFAULT_GLITCH_FACTOR,
                override_port="override_n"):
    """Transform ``design`` (flat) into an SCPG implementation.

    Parameters
    ----------
    design:
        Flat :class:`~repro.netlist.core.Design` with a clock input.
    clock_port:
        Name of the clock input port.
    header_size:
        Force a header size (1/2/4/8); default picks by the IR-drop study.
    energy_per_cycle:
        Measured switched energy per cycle for header sizing; when absent,
        a vectorless probabilistic estimate is used.
    rail_params:
        Optional :class:`~repro.power.rails.RailParams` override.
    glitch_factor:
        Hazard multiplier applied to the vectorless estimate.
    override_port:
        Name of the added active-low override input.
    """
    lib = design.library
    top_src = design.top
    if not top_src.has_port(clock_port):
        raise ScpgError("design has no clock port {}".format(clock_port))
    validate_module(top_src).raise_if_errors()

    sta = timing_for(top_src, lib).run()

    if energy_per_cycle is None:
        energy_per_cycle = SwitchedCapacitance.compile(
            top_src, lib).evaluate(lib)[0] * glitch_factor

    # Step 1: split combinational logic into its own module.
    split = split_combinational(design)
    top = split.top
    comb = split.comb

    # Step 2: VDDV sense + Fig. 3 controller + isolation clamps.
    sense_port = iso.add_rail_sense(comb, lib)
    vddv_net = top.add_net("vddv")
    top.connect(split.comb_instance, sense_port, vddv_net)
    clk_net = top.net(clock_port)
    iso_net = iso.build_isolation_controller(top, lib, clk_net, vddv_net)
    iso_instances = iso.insert_isolation(
        top, list(split.boundary_outputs), lib, iso_net)

    # Step 3: header network.
    rail = VirtualRailModel(comb, lib, rail_params or RailParams())
    sizings, best = size_header_network(
        lib, rail, energy_per_cycle, sta.eval_delay)
    if header_size is not None:
        matches = [s for s in sizings if s.size == header_size]
        if not matches:
            raise ScpgError("no HEADER_X{} in library".format(header_size))
        best = matches[0]
    network = best.network

    override_net = top.add_input(override_port)
    sleep_net = top.add_net("sleep")
    top.add_instance(
        "u_pgctl", lib.cell("AND2_X1"),
        {"A": clk_net, "B": override_net, "Y": sleep_net},
    )
    header_names = []
    for i in range(network.count):
        name = "u_header_{}".format(i)
        top.add_instance(
            name, lib.cell("HEADER_X{}".format(best.size)),
            {"SLEEP": sleep_net},
        )
        header_names.append(name)

    new_design = Design(top, lib)
    flat = new_design.flatten()
    validate_module(flat.top).raise_if_errors()

    timing = timing_from_sta(
        sta, rail, network,
        controller_delay=iso.controller_delay(lib))
    check_hold(timing, rail)

    domains = [
        PowerDomainSpec(
            name="PD_COMB",
            switched=True,
            elements=[comb.name],
            internal_net="VDDV",
            switch_cells=header_names,
            isolation_cells=[i.name for i in iso_instances],
            isolation_control="isolate",
        ),
        PowerDomainSpec(
            name="PD_TOP",
            switched=False,
            elements=[top.name],
        ),
    ]

    result = ScpgDesign(
        design=new_design,
        flat=flat,
        base=design,
        comb_module=comb,
        headers=network,
        header_sizings=sizings,
        rail=rail,
        timing=timing,
        sta=sta,
        domains=domains,
        iso_instances=iso_instances,
        boundary_outputs=list(split.boundary_outputs),
    )
    result.upf = dumps_upf(result, clock_port=clock_port,
                           override_port=override_port)
    return result

