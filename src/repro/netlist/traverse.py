"""Netlist traversal: classification, topological order, levelization.

:func:`topological_instances` is the one walk that orders and levels a
module's combinational logic; :func:`levels_for` caches its result on the
module (see :meth:`repro.netlist.core.Module.derived`).

These helpers operate on *flat* modules (library-cell instances only); pass
hierarchical designs through :meth:`repro.netlist.core.Design.flatten`
first.  A submodule instance encountered here raises
:class:`~repro.errors.NetlistError` rather than silently producing a wrong
order.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType

from ..errors import NetlistError
from ..tech.library import CellKind


def _require_flat(module):
    for inst in module.instances():
        if not inst.is_cell:
            raise NetlistError(
                "module {} is hierarchical (instance {}); flatten first"
                .format(module.name, inst.name)
            )


def combinational_instances(module):
    """Cell instances evaluated combinationally (gates, buffers, isolation,
    clock buffers, ties)."""
    return [
        i
        for i in module.cell_instances()
        if i.cell.is_combinational or i.cell.kind is CellKind.TIE
    ]


def sequential_instances(module):
    """Flip-flop/latch instances."""
    return [
        i
        for i in module.cell_instances()
        if i.cell.kind is CellKind.SEQUENTIAL
    ]


def header_instances(module):
    """Sleep-header instances."""
    return [
        i for i in module.cell_instances() if i.cell.kind is CellKind.HEADER
    ]


def _comb_fanin_counts(module):
    """For each combinational instance, how many of its input nets are driven
    by other combinational instances."""
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


def topological_instances(module):
    """``(order, level_of)``: combinational instances in evaluation
    (topological) order, and each one's logic level (longest distance,
    in gates, from a source) by instance name.

    Sources are input ports, constants and sequential outputs.  Raises
    :class:`NetlistError` when a combinational loop prevents a full order.
    This is the uncached walk; analyses read :func:`levels_for`.
    """
    _require_flat(module)
    comb, fanin = _comb_fanin_counts(module)
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


def levels_for(module):
    """``(order, level_of)`` of a flat module, cached on it: the
    combinational instances in topological order, and each one's logic
    level (longest distance, in gates, from a source) by instance name.

    Every analysis that needs an evaluation order reads it here, so one
    module generation is walked once.  A loop or a hierarchy error
    raises on every call (a failed walk is not cached).  Treat both
    values as read-only.
    """
    return module.derived("levels", topological_instances)


def levelize(module):
    """Read-only view mapping each combinational instance name to its
    logic level (see :func:`levels_for`)."""
    return MappingProxyType(levels_for(module)[1])


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
