"""Load and delay calculation for timing arcs.

scl90's timing model is a linear CMOS delay: ``d = intrinsic + R_drive *
C_load`` characterised at the library's nominal voltage, multiplied by the
device model's :meth:`~repro.tech.transistor.DeviceModel.delay_scale` at
the operating point.  ``C_load`` is the sum of the fanout input-pin
capacitances plus a per-fanout wire estimate (standing in for extracted
post-route parasitics).
"""

from __future__ import annotations

import numpy as np


def net_load(net, library):
    """Capacitive load (F) seen by the driver of ``net``."""
    total = 0.0
    fanout = 0
    for load in net.loads:
        if isinstance(load, tuple):
            inst, pin_name = load
            if inst.is_cell:
                total += inst.cell.input_capacitance(pin_name)
            fanout += 1
        else:
            # Output port: model a fixed external load of one fanout.
            fanout += 1
    total += fanout * library.wire_cap_per_fanout
    return total


def net_loads(module, library):
    """:func:`net_load` of every net of ``module``, in ``module.nets()``
    order (``0.0`` for a constant net), as an array.  Cached on the
    module per library (see :meth:`repro.netlist.core.Module.derived`);
    treat it as read-only."""
    return module.derived(("net_loads", library), lambda module: np.array(
        [0.0 if net.is_const else net_load(net, library)
         for net in module.nets()], dtype=np.float64))


def net_caps(module, library):
    """Switched capacitance (F) of every net of ``module``, in
    ``module.nets()`` order: the net's load plus its driver cell's
    internal capacitance (``0.0`` for a constant net).  Cached on the
    module per library (see :meth:`repro.netlist.core.Module.derived`);
    treat the list as read-only."""
    def build(module):
        caps = []
        for net, cap in zip(module.nets(),
                            net_loads(module, library).tolist()):
            driver = net.driver
            if isinstance(driver, tuple) and driver[0].is_cell:
                cap += driver[0].cell.c_internal
            caps.append(cap)
        return caps

    return module.derived(("net_caps", library), build)


def cell_delay(cell, c_load, scale=1.0):
    """Propagation delay (s) of ``cell`` into ``c_load``, voltage-scaled."""
    return cell.delay(c_load, scale)
