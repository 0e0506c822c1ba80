"""The object-graph levelization: the differential oracle for
:func:`repro.netlist.traverse.topological_instances`.

This is the FIFO Kahn walk as it ran before the levelization became a
level-synchronous sweep over the integer connectivity index: it counts
each gate's combinational fan-in on ``Net`` / ``Instance`` objects and
pops ready gates from a deque.  Tests compare the order, the levels and
the loop error of the two.

The other helpers here walk the same objects for tests that inspect a
netlist's neighbourhoods: drivers, loads and fan-in cones.
"""

from collections import deque

from repro.errors import NetlistError
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
