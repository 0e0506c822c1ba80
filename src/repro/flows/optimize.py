"""Logic optimisation pass: the cleanup a synthesis tool runs after
netlist surgery.

Three peephole transforms, iterated to a fixed point:

* **constant propagation** -- a gate whose output is fixed by constant
  inputs (``AND(x, 0)``, ``OR(x, 1)``, an inverter on a constant, ...) is
  replaced by the constant net;
* **double-inverter / buffer collapsing** -- ``INV(INV(x))`` and
  ``BUF(x)`` chains forward ``x`` to their loads (buffers inserted for
  drive strength by fan-out repair are re-inserted later, so collapsing
  here is safe);
* **dead-gate removal** -- combinational cells whose outputs drive
  nothing disappear.

The pass never touches sequential cells, isolation cells, headers, ties
feeding isolation sensing, or nets attached to ports.  Every run is
verifiable with :func:`repro.netlist.equivalence.check_equivalence`; the
flow's tests do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.logic import X, compile_cell
from ..tech.library import CellKind
from .base import StepReport

#: Cell kinds the optimiser may rewrite or delete.
_TOUCHABLE = (CellKind.COMBINATIONAL, CellKind.BUFFER)


@dataclass
class OptimizeStats:
    """What one optimisation run did."""

    constants_folded: int = 0
    buffers_collapsed: int = 0
    dead_removed: int = 0
    iterations: int = 0

    @property
    def total(self):
        return (self.constants_folded + self.buffers_collapsed
                + self.dead_removed)


def _net_is_protected(module, net):
    return net.is_const or module.has_port(net.name)


def _rewire_loads(module, from_net, to_net):
    """Move every load (instances and output-port views) of ``from_net``
    onto ``to_net``."""
    for load in list(from_net.loads):
        if isinstance(load, tuple):
            module.reconnect(*load, to_net)
    # Output ports keep their own net; protected nets are never rewired
    # away, so port loads stay untouched.


def _fold_constants(module):
    """Replace gates with constant-determined outputs; returns count."""
    folded = 0
    for inst in list(module.cell_instances()):
        cell = inst.cell
        if cell.kind not in _TOUCHABLE or not cell.outputs:
            continue
        compiled = compile_cell(cell)
        values = []
        all_known = True
        for pin in compiled.input_names:
            net = inst.connections.get(pin)
            if net is None:
                values.append(X)
                all_known = False
            elif net.is_const:
                values.append(net.const_value)
            else:
                values.append(X)
                all_known = False
        outs = compiled.evaluate(values)
        # Fold any output that is fully determined despite unknown inputs
        # (controlling values), or everything when all inputs are const.
        determined = {pin: v for pin, v in outs.items() if v != X}
        if not determined:
            continue
        if not all_known and len(determined) < len(outs):
            continue  # partial folds of multi-output cells: skip
        replaceable = True
        for pin in determined:
            net = inst.connections.get(pin)
            if net is None:
                continue
            if _net_is_protected(module, net):
                replaceable = False
        if not replaceable:
            continue
        for pin, value in determined.items():
            net = inst.connections.get(pin)
            if net is None:
                continue
            _rewire_loads(module, net, module.const(value))
        module.remove_instance(inst.name)
        folded += 1
    return folded


_FORWARDERS = {"BUF": False, "INV": True}


def _collapse_buffers(module):
    """Forward BUF outputs and INV-INV pairs; returns count."""
    collapsed = 0
    for inst in list(module.cell_instances()):
        base = inst.cell.name.split("_")[0]
        if base not in _FORWARDERS or inst.cell.kind not in _TOUCHABLE:
            continue
        in_net = inst.connections.get(inst.cell.inputs[0].name)
        out_net = inst.connections.get(inst.cell.outputs[0].name)
        if in_net is None or out_net is None:
            continue
        if _net_is_protected(module, out_net):
            continue
        if base == "BUF":
            _rewire_loads(module, out_net, in_net)
            module.remove_instance(inst.name)
            collapsed += 1
            continue
        # INV: collapse only a pair INV(INV(x)).
        driver = in_net.driver
        if not isinstance(driver, tuple):
            continue
        drv_inst, _pin = driver
        if not drv_inst.is_cell or \
                not drv_inst.cell.name.startswith("INV"):
            continue
        source = drv_inst.connections.get("A")
        if source is None:
            continue
        _rewire_loads(module, out_net, source)
        module.remove_instance(inst.name)
        collapsed += 1
        # The inner inverter may now be dead; the dead pass reaps it.
    return collapsed


def _remove_dead(module):
    """Delete combinational cells driving nothing; returns count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for inst in list(module.cell_instances()):
            if inst.cell.kind not in _TOUCHABLE:
                continue
            alive = False
            for pin in inst.output_pins():
                net = inst.connections.get(pin)
                if net is None:
                    continue
                if net.loads or module.has_port(net.name):
                    alive = True
                    break
            if not alive and inst.output_pins():
                module.remove_instance(inst.name)
                removed += 1
                changed = True
    return removed


def optimize(module, max_iterations=10):
    """Run the peephole passes to a fixed point.

    Returns ``(OptimizeStats, StepReport)``.  The module is modified in
    place.
    """
    report = StepReport("logic-optimisation")
    stats = OptimizeStats()
    for _ in range(max_iterations):
        stats.iterations += 1
        work = 0
        folded = _fold_constants(module)
        collapsed = _collapse_buffers(module)
        dead = _remove_dead(module)
        stats.constants_folded += folded
        stats.buffers_collapsed += collapsed
        stats.dead_removed += dead
        work = folded + collapsed + dead
        if work == 0:
            break
    report.metrics.update(
        constants_folded=stats.constants_folded,
        buffers_collapsed=stats.buffers_collapsed,
        dead_removed=stats.dead_removed,
        iterations=stats.iterations,
    )
    return stats, report
