"""The object-graph levelization: the differential oracle for
:func:`repro.netlist.traverse.topological_instances`.

This is the FIFO Kahn walk as it ran before the levelization became a
level-synchronous sweep over the integer connectivity index: it counts
each gate's combinational fan-in on ``Net`` / ``Instance`` objects and
pops ready gates from a deque.  Tests compare the order, the levels and
the loop error of the two.

The other helpers here walk the same objects for tests that inspect a
netlist's neighbourhoods: drivers, loads and fan-in cones.

The netlist copiers' oracles close the file: :func:`flatten_by_pin`,
:func:`split_by_connect` and :func:`remap_by_connect` are
``Design.flatten``, ``split_combinational`` and ``remap_cells`` as they
ran before all three built their result through the bulk copier of
:mod:`repro.netlist.core` -- one pin at a time, through
``Module.connect`` or a per-pin direction lookup.
"""

from collections import deque

from repro.errors import NetlistError
from repro.netlist.core import Design, Instance, Module
from repro.netlist.transform import SplitResult, _sanitize
from repro.netlist.traverse import _require_flat, combinational_instances
from repro.tech.library import CellKind


def comb_fanin_counts(module):
    """For each combinational instance, how many of its input nets are
    driven by other combinational instances."""
    comb = combinational_instances(module)
    comb_set = set(id(i) for i in comb)
    counts = {}
    for inst in comb:
        n = 0
        for pin_name in inst.input_pins():
            net = inst.connections.get(pin_name)
            if net is None or net.is_const:
                continue
            driver = net.driver
            if (
                isinstance(driver, tuple)
                and id(driver[0]) in comb_set
            ):
                n += 1
        counts[id(inst)] = n
    return comb, counts


def walk_levels(module):
    """``(order, level_of)`` of ``module`` by the deque walk."""
    _require_flat(module)
    comb, fanin = comb_fanin_counts(module)
    ready = deque(i for i in comb if fanin[id(i)] == 0)
    order = []
    level_of = {}
    depth = {}      # id(inst) -> deepest comb fanin level + 1 so far
    while ready:
        inst = ready.popleft()
        order.append(inst)
        level = level_of[inst.name] = depth.get(id(inst), 0)
        for pin_name in inst.output_pins():
            net = inst.connections.get(pin_name)
            if net is None:
                continue
            for load in net.loads:
                if not isinstance(load, tuple):
                    continue
                sink, _ = load
                if id(sink) in fanin:
                    depth[id(sink)] = max(depth.get(id(sink), 0), level + 1)
                    fanin[id(sink)] -= 1
                    if fanin[id(sink)] == 0:
                        ready.append(sink)
    if len(order) != len(comb):
        stuck = [i.name for i in comb if fanin[id(i)] > 0][:8]
        raise NetlistError(
            "combinational loop in module {} involving {}".format(
                module.name, ", ".join(stuck)
            )
        )
    return order, level_of


def header_instances(module):
    """Sleep-header instances."""
    return [
        i for i in module.cell_instances() if i.cell.kind is CellKind.HEADER
    ]


def fanout_instances(net):
    """Instances loading ``net`` (ports skipped)."""
    return [load[0] for load in net.loads if isinstance(load, tuple)]


def driver_instance(net):
    """Instance driving ``net`` or ``None`` (port/const driven)."""
    if isinstance(net.driver, tuple):
        return net.driver[0]
    return None


def transitive_fanin(module, nets):
    """All instances in the combinational fan-in cone of ``nets`` (stops at
    sequential elements and ports)."""
    _require_flat(module)
    seen = set()
    result = []
    stack = list(nets)
    while stack:
        net = stack.pop()
        driver = net.driver
        if not isinstance(driver, tuple):
            continue
        inst = driver[0]
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        if inst.cell.kind is CellKind.SEQUENTIAL:
            continue
        result.append(inst)
        for pin_name in inst.input_pins():
            inner = inst.connections.get(pin_name)
            if inner is not None and not inner.is_const:
                stack.append(inner)
    return result


# -- the copiers' oracles ------------------------------------------------------

def flatten_by_pin(design, name=None):
    """``design.flatten(name)``, one pin at a time."""
    flat = Module(name or design.top.name + "_flat")
    net_map = {}
    for port in design.top.ports:
        new_net = flat.add_port(port.name, port.direction).net
        net_map[id(port.net)] = new_net
    _flatten_into(design, flat, design.top, "", net_map)
    return Design(flat, design.library)


def _flatten_into(design, flat, module, prefix, net_map):
    for net in module.nets():
        if id(net) in net_map:
            continue
        if net.is_const:
            net_map[id(net)] = flat.const(net.const_value)
        else:
            net_map[id(net)] = flat.add_net(prefix + net.name)
    for inst in module.instances():
        if inst.is_cell:
            name = prefix + inst.name
            if name in flat._instances:
                raise NetlistError(
                    "flattening {}: two instances flatten to {}".format(
                        design.top.name, name))
            new = Instance(name, flat, cell=inst.cell)
            flat._instances[name] = new
            for pin_name, net in inst.connections.items():
                target = net_map[id(net)]
                new.connections[pin_name] = target
                if inst._pin_is_output(pin_name):
                    target._set_driver((new, pin_name))
                else:
                    target.loads.append((new, pin_name))
        else:
            sub = inst.submodule
            sub_prefix = prefix + inst.name + "/"
            sub_map = dict()
            for port in sub.ports:
                outer = inst.connections.get(port.name)
                if outer is None:
                    sub_map[id(port.net)] = flat.add_net(
                        sub_prefix + port.name)
                else:
                    sub_map[id(port.net)] = net_map[id(outer)]
            _flatten_into(design, flat, sub, sub_prefix, sub_map)


def split_by_connect(design, comb_name=None, instance_name="u_comb"):
    """``split_combinational(design, ...)`` through ``Module.connect``."""
    src = design.top
    lib = design.library
    for inst in src.instances():
        if not inst.is_cell:
            raise NetlistError("split requires a flat design; flatten first")

    moved_kinds = (CellKind.COMBINATIONAL, CellKind.BUFFER,
                   CellKind.ISOLATION, CellKind.TIE)
    comb_insts = [i for i in src.cell_instances() if i.cell.kind in moved_kinds]
    keep_insts = [i for i in src.cell_instances()
                  if i.cell.kind not in moved_kinds]
    comb_ids = set(id(i) for i in comb_insts)

    comb = Module(comb_name or src.name + "_comb")
    top = Module(src.name)

    boundary_inputs = []
    boundary_outputs = []
    comb_net_map = {}
    top_net_map = {}
    used_port_names = set()

    for port in src.ports:
        new = top.add_port(port.name, port.direction)
        top_net_map[id(port.net)] = new.net

    def side_of_driver(net):
        if net.is_const:
            return "const"
        d = net.driver
        if d is None:
            return "none"
        if isinstance(d, tuple):
            return "comb" if id(d[0]) in comb_ids else "top"
        return "top"

    def sides_of_loads(net):
        sides = set()
        for load in net.loads:
            if isinstance(load, tuple):
                sides.add("comb" if id(load[0]) in comb_ids else "top")
            else:
                sides.add("top")
        return sides

    for net in src.nets():
        if net.is_const:
            continue
        drv = side_of_driver(net)
        loads = sides_of_loads(net)
        is_top_port = src.has_port(net.name)
        touches_comb = drv == "comb" or "comb" in loads
        touches_top = drv == "top" or "top" in loads or is_top_port

        if touches_comb and not touches_top:
            comb_net_map[id(net)] = comb.add_net(net.name)
        elif touches_top and not touches_comb:
            if id(net) not in top_net_map:
                top_net_map[id(net)] = top.add_net(net.name)
        elif touches_comb and touches_top:
            pname = _sanitize(net.name, used_port_names)
            if drv == "comb":
                comb_net_map[id(net)] = comb.add_output(pname)
                boundary_outputs.append((net.name, pname))
            else:
                comb_net_map[id(net)] = comb.add_input(pname)
                boundary_inputs.append((net.name, pname))
            if id(net) not in top_net_map:
                top_net_map[id(net)] = top.add_net(net.name)

    def image(module, mapping, net):
        if net.is_const:
            return module.const(net.const_value)
        return mapping[id(net)]

    for inst in comb_insts:
        conns = {pin: image(comb, comb_net_map, net)
                 for pin, net in inst.connections.items()}
        comb.add_instance(inst.name, inst.cell, conns)
    for inst in keep_insts:
        conns = {pin: image(top, top_net_map, net)
                 for pin, net in inst.connections.items()}
        top.add_instance(inst.name, inst.cell, conns)

    bindings = {}
    for orig_name, pname in boundary_inputs + boundary_outputs:
        bindings[pname] = top.net(orig_name)
    comb_instance = top.add_instance(instance_name, comb, bindings)

    return SplitResult(
        design=Design(top, lib),
        top=top,
        comb=comb,
        comb_instance=comb_instance,
        boundary_inputs=[n for n, _ in boundary_inputs],
        boundary_outputs=[n for n, _ in boundary_outputs],
    )


def remap_by_connect(module, cell_map, name=None):
    """``remap_cells(module, cell_map, name)`` through ``Module.connect``
    (without its interface check)."""
    src = module
    for inst in src.instances():
        if not inst.is_cell:
            raise NetlistError(
                "remap_cells requires a flat module; flatten first")

    out = Module(name or src.name)
    net_map = {}
    for port in src.ports:
        new = out.add_port(port.name, port.direction)
        net_map[id(port.net)] = new.net
    for net in src.nets():
        if net.is_const or id(net) in net_map:
            continue
        net_map[id(net)] = out.add_net(net.name)

    def image(net):
        if net.is_const:
            return out.const(net.const_value)
        return net_map[id(net)]

    for inst in src.cell_instances():
        cell = cell_map.get(inst.cell.name, inst.cell)
        conns = {pin: image(net) for pin, net in inst.connections.items()}
        out.add_instance(inst.name, cell, conns)
    return out
