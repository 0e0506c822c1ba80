"""Netlist transformations used by the SCPG design flow.

The central one is :func:`split_combinational` -- step 1 of the paper's
Fig. 5: *"parsing the netlist of a design and moving the combinational
logic to a separate verilog module"*.  The result is a two-level hierarchy::

    top (always-on)                    comb module (power-gated later)
      - all flip-flops                   - every combinational gate
      - clock tree cells                 - ports for each boundary net
      - u_comb (instance of comb module)

Sequential cells, clock cells and top-level ports stay in the always-on
parent; everything combinational moves into the child, with child ports
created for every net crossing the boundary.  The SCPG transform proper
(:mod:`repro.scpg.transform`) then assigns the child to a switched power
domain, adds isolation on its outputs, headers and the Fig. 3 controller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import NetlistError
from ..tech.library import CellKind
from .core import Design, Module, _copy_instances, _copy_nets

_PORT_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]")


@dataclass
class SplitResult:
    """Outcome of :func:`split_combinational`.

    Attributes
    ----------
    design:
        New hierarchical design (top + combinational child).
    top:
        The always-on parent module.
    comb:
        The combinational child module.
    comb_instance:
        The instance of ``comb`` inside ``top``.
    boundary_inputs / boundary_outputs:
        Net names (in the original module) that became child ports, i.e.
        register outputs / primary inputs feeding logic, and logic outputs
        feeding registers / primary outputs.  ``boundary_outputs`` are
        exactly the nets that need isolation.
    """

    design: Design
    top: Module
    comb: Module
    comb_instance: object
    boundary_inputs: list = field(default_factory=list)
    boundary_outputs: list = field(default_factory=list)


def _sanitize(name, used):
    base = _PORT_SANITIZE_RE.sub("_", name) or "p"
    candidate = base
    k = 0
    while candidate in used:
        k += 1
        candidate = "{}_{}".format(base, k)
    used.add(candidate)
    return candidate


def split_combinational(design, comb_name=None, instance_name="u_comb"):
    """Split a flat design into always-on top + combinational child module.

    ``design.top`` must be flat (library cells only) -- flatten first.
    Ties are moved with the combinational logic (a TIEHI inside the gated
    domain is what the Fig. 3 isolation controller senses), while clock
    buffers remain always-on.
    """
    src = design.top
    lib = design.library
    moved_kinds = (CellKind.COMBINATIONAL, CellKind.BUFFER,
                   CellKind.ISOLATION, CellKind.TIE)
    comb_insts, keep_insts = [], []
    for inst in src.instances():
        if not inst.is_cell:
            raise NetlistError("split requires a flat design; flatten first")
        (comb_insts if inst.cell.kind in moved_kinds
         else keep_insts).append(inst)
    in_comb = set(comb_insts)

    comb = Module(comb_name or src.name + "_comb")
    top = Module(src.name)

    # Classify every net by which side touches it.
    boundary_inputs = []
    boundary_outputs = []
    comb_net_map = {}   # orig net -> net in comb module
    top_net_map = {}    # orig net -> net in top module
    used_port_names = set()

    for port in src.ports:
        top_net_map[port.net] = top.add_port(port.name, port.direction).net

    for net in src.nets():
        if net.is_const:
            continue
        # The driver is a gate on one side, an input port (top) or none.
        d = net.driver
        driven_in_comb = type(d) is tuple and d[0] in in_comb
        touches_comb = driven_in_comb
        touches_top = (d is not None and not driven_in_comb) \
            or src.has_port(net.name)
        for load in net.loads:  # a gate on one side or an output port
            if type(load) is tuple and load[0] in in_comb:
                touches_comb = True
            else:
                touches_top = True

        # A boundary net becomes a child port and a parent-side net; nets
        # touching neither side (fully dangling) are dropped.
        if touches_comb and not touches_top:
            comb_net_map[net] = comb._new_net(net.name)
        elif touches_comb:
            pname = _sanitize(net.name, used_port_names)
            if driven_in_comb:
                comb_net_map[net] = comb.add_output(pname)
                boundary_outputs.append((net.name, pname))
            else:
                comb_net_map[net] = comb.add_input(pname)
                boundary_inputs.append((net.name, pname))
        if touches_top and net not in top_net_map:
            top_net_map[net] = top._new_net(net.name)

    _copy_instances(comb, comb_insts, comb_net_map)
    _copy_instances(top, keep_insts, top_net_map)

    # Instantiate the child, binding each boundary port to the parent net.
    comb_instance = top.add_instance(instance_name, comb, {
        pname: top.net(orig_name)
        for orig_name, pname in boundary_inputs + boundary_outputs})

    return SplitResult(
        design=Design(top, lib),
        top=top,
        comb=comb,
        comb_instance=comb_instance,
        boundary_inputs=[n for n, _ in boundary_inputs],
        boundary_outputs=[n for n, _ in boundary_outputs],
    )


def remap_cells(module, cell_map, name=None):
    """Rebuild a flat ``module`` with every cell swapped per ``cell_map``.

    ``cell_map`` maps original cell *names* to replacement
    :class:`~repro.tech.library.Cell` objects with the *same pin
    interface* (checked once per mapped cell: differing input or output
    pin names raise :class:`~repro.errors.NetlistError`); unmapped cells
    are kept as-is.  Ports, nets and connectivity are copied one-to-one,
    so analyses on the result line up net-for-net with the original.
    This is the workhorse of variant-library techniques (e.g. LECTOR
    leakage-control-transistor insertion, which swaps each combinational
    cell for its LCT variant).
    """
    cells = {}
    for inst in module.instances():
        if not inst.is_cell:
            raise NetlistError(
                "remap_cells requires a flat module; flatten first")
        cells[inst.cell.name] = inst.cell
    for cell_name, cell in cells.items():
        new = cell_map.get(cell_name, cell)
        if (new.input_names, new.output_names) != (cell.input_names,
                                                   cell.output_names):
            raise NetlistError("remap_cells: {} lacks the pin interface of "
                               "{}".format(new.name, cell.name))

    out = Module(name or module.name)
    net_map = {}
    for port in module.ports:
        net_map[port.net] = out.add_port(port.name, port.direction).net
    # Constants map at their first use, after the other nets.
    _copy_nets(out, [n for n in module.nets() if not n.is_const], net_map)
    _copy_instances(out, module.instances(), net_map, cell_map=cell_map)
    return out


def insert_buffer(module, net, buf_cell, name=None):
    """Insert ``buf_cell`` after ``net``'s driver; all previous loads move to
    the buffered copy.  Returns the new net.

    Used by design planning to repair the fanout/RC cost of routing between
    the split domains (the paper attributes part of its 3.9 %/6.6 % area
    overhead to such buffers).
    """
    if not net.is_driven or net.is_const:
        raise NetlistError("cannot buffer undriven/const net " + net.name)
    new_net = module.add_net(net.name + "_buf")
    # Move instance loads to the buffered copy; ports keep seeing the driver.
    for load in list(net.loads):
        if isinstance(load, tuple):
            module.reconnect(*load, new_net)
    inst_name = name or "buf_{}".format(net.name)
    in_pin = buf_cell.inputs[0].name
    out_pin = buf_cell.outputs[0].name
    module.add_instance(inst_name, buf_cell, {in_pin: net, out_pin: new_net})
    return new_net
