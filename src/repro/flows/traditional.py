"""Baseline implementation flow (no SCPG): synthesize, plan, CTS, route."""

from __future__ import annotations

from ..netlist.stats import module_stats
from ..obs.trace import layer
from ..sta.analysis import TimingAnalysis
from .base import FlowResult
from .cts import synthesize_clock_tree
from .floorplan import plan_design
from .route import estimate_routing
from .synthesis import synthesize


@layer("flows.implement")
def run_traditional_flow(design, clock="clk"):
    """Implement a flat ``design`` traditionally; returns a
    :class:`~repro.flows.base.FlowResult` whose ``flat`` has the clock tree
    and fanout buffers inserted (the module is modified in place)."""
    module = design.top
    lib = design.library
    steps = []

    steps.append(synthesize(module, lib))
    plan, step = plan_design(module, lib)
    steps.append(step)
    if module.has_port(clock):
        cts, step = synthesize_clock_tree(module, lib, clock)
        steps.append(step)
    else:
        cts = None
    routing, step = estimate_routing(module, lib)
    steps.append(step)

    stats = module_stats(module)
    timing = TimingAnalysis(module, lib).run()
    result = FlowResult(
        name="traditional:{}".format(module.name),
        design=design,
        flat=design,
        steps=steps,
    )
    result.metrics.update(
        area=stats.area,
        cells=stats.cells,
        fmax_hz=timing.fmax,
        floorplan=plan,
        cts=cts,
        routing=routing,
        timing=timing,
    )
    return result
