"""Synthesis step: lint plus fan-out repair.

Our netlists come pre-mapped (the generators emit library cells), so the
synthesis step models the part that matters to SCPG accounting: high
fan-out data nets get buffer trees (the paper attributes part of its area
overhead to "the addition of buffers to compensate for the splitting of
the combinational and sequential logic into separate power domains").
Clock nets are left to CTS.
"""

from __future__ import annotations

from ..netlist.validate import validate_module
from ..tech.library import CellKind
from .base import StepReport

#: Data nets with more fan-out than this get a buffer.
MAX_FANOUT = 24


def _is_clock_net(net):
    """Heuristic: a net feeding any flop CK pin is a clock net."""
    for load in net.loads:
        if isinstance(load, tuple):
            inst, pin = load
            if inst.is_cell and inst.cell.kind is CellKind.SEQUENTIAL:
                if inst.cell.pin(pin).is_clock:
                    return True
    return False


def synthesize(module, library, max_fanout=MAX_FANOUT):
    """Run the synthesis step on a flat ``module`` in place.

    Splits the loads of over-loaded data nets across BUF_X4 cells.
    Returns a :class:`StepReport`.
    """
    report = StepReport("synthesize")
    if not module.submodule_instances():
        lint = validate_module(module)
        lint.raise_if_errors()
        for warning in lint.warnings[:10]:
            report.log("lint: " + warning)
    else:
        report.log("hierarchical module: lint deferred to the flat netlist")

    buf = library.cell("BUF_X4")
    added = 0
    for net in list(module.nets()):
        if net.is_const or not net.is_driven:
            continue
        loads = [l for l in net.loads if isinstance(l, tuple)]
        if len(loads) <= max_fanout or _is_clock_net(net):
            continue
        # Split loads into balanced chunks, each behind a buffer.
        chunks = [
            loads[i:i + max_fanout] for i in range(0, len(loads), max_fanout)
        ]
        for k, chunk in enumerate(chunks):
            new_net = module.add_net("{}_fo{}".format(net.name, k))
            for inst, pin in chunk:
                module.reconnect(inst, pin, new_net)
            module.add_instance(
                "fobuf_{}_{}".format(net.name, k), buf,
                {"A": net, "Y": new_net},
            )
            added += 1
    report.metrics["buffers_added"] = added
    report.metrics["cells"] = len(module.instances())
    return report
