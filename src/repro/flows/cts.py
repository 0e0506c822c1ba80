"""Clock-tree synthesis: balanced buffer insertion.

The paper notes SCPG "exploits the extensive, high-fanout clock tree of a
processor for the power gating control signal"; this step actually builds
that tree.  Flop clock pins (and the SCPG clock consumers: the sleep
control AND and the isolation controller) are grouped under CLKBUF cells
bottom-up until the root drives at most ``max_fanout`` sinks.  The tree's
cells are always-on leakage and per-cycle switching energy in the power
model -- part of the SCPG-Max residual floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FlowError
from .base import StepReport

#: Maximum sinks per clock buffer.
MAX_CLOCK_FANOUT = 16


@dataclass
class CtsReport:
    """Clock-tree metrics."""

    buffers: int
    levels: int
    sinks: int
    root_fanout: int
    insertion_delay: float
    leakage: float


def synthesize_clock_tree(module, library, clock="clk",
                          max_fanout=MAX_CLOCK_FANOUT,
                          buffer_cell="CLKBUF_X4"):
    """Insert a clock tree under input port ``clock`` of a flat module.

    Returns ``(CtsReport, StepReport)``.  The tree is balanced: sinks are
    chunked into groups of ``max_fanout`` per level until one root group
    remains on the clock port net.
    """
    report = StepReport("clock-tree-synthesis")
    if not module.has_port(clock):
        raise FlowError("module {} has no clock port {}".format(
            module.name, clock))
    clk_net = module.net(clock)
    cell = library.cell(buffer_cell)

    sinks = [l for l in clk_net.loads if isinstance(l, tuple)]
    n_sinks = len(sinks)
    if n_sinks <= max_fanout:
        report.log("clock fanout {} within limit; no tree needed".format(
            n_sinks))
        cts = CtsReport(0, 0, n_sinks, n_sinks, 0.0, 0.0)
        return cts, report

    buffers = 0
    levels = 0
    current = sinks  # (inst, pin) sink connections to regroup
    # Bottom-up grouping: each pass replaces groups of sinks by one buffer
    # sink, until the count fits under the root.
    while len(current) > max_fanout:
        levels += 1
        next_level = []
        for k in range(0, len(current), max_fanout):
            chunk = current[k:k + max_fanout]
            branch = module.add_net("{}_l{}_{}".format(
                clock, levels, k // max_fanout))
            for inst, pin in chunk:
                module.reconnect(inst, pin, branch)
            buf = module.add_instance(
                "ctsbuf_l{}_{}".format(levels, k // max_fanout),
                cell,
                {"Y": branch},
            )
            buffers += 1
            next_level.append((buf, "A"))
        current = next_level
    # Attach the top level to the clock root.
    for inst, pin in current:
        if pin not in inst.connections:
            module.connect(inst, pin, clk_net)

    insertion = levels * cell.delay(
        max_fanout * (cell.pin("A").capacitance
                      + library.wire_cap_per_fanout))
    cts = CtsReport(
        buffers=buffers,
        levels=levels,
        sinks=n_sinks,
        root_fanout=len(current),
        insertion_delay=insertion,
        leakage=buffers * cell.leakage,
    )
    report.metrics.update(
        buffers=buffers, levels=levels, sinks=n_sinks,
        insertion_delay_ns=round(insertion * 1e9, 3),
    )
    return cts, report
