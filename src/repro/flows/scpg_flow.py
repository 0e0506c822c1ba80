"""The Fig. 5 SCPG implementation flow.

Two steps beyond a traditional power-gating flow:

1. **Separate combinational and sequential logic** -- parse the netlist and
   move the combinational logic to its own module (power domain).
2. **Combine the custom isolation circuitry** -- the Fig. 3 controller and
   the output clamps -- with the split netlist.

Both happen inside :func:`repro.scpg.transform._apply_scpg`; the remainder
(synthesis, design planning with the centred gated domain, CTS, routing)
"is identical to a traditional power gating implementation flow".  The
flow compares its result against a freshly implemented baseline to report
the SCPG area overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist.stats import module_stats
from ..obs.trace import layer
from ..scpg.transform import _apply_scpg, flatten_linted
from .base import FlowResult, StepReport
from .cts import synthesize_clock_tree
from .floorplan import plan_design
from .route import estimate_routing
from .synthesis import synthesize


@dataclass
class ScpgFlowResult:
    """Outcome of the SCPG flow plus its baseline comparison."""

    scpg: object                        # the ScpgDesign (flat post-CTS)
    flow: FlowResult
    baseline: FlowResult = None
    area_overhead_pct: float = 0.0
    steps: list = field(default_factory=list)

    def summary(self):
        """Readable flow summary."""
        lines = [self.flow.summary()]
        lines.append("area overhead vs baseline: {:.2f}%".format(
            self.area_overhead_pct))
        return "\n".join(lines)


@layer("flows.implement")
def _run_scpg_flow(design, library, clock="clk", header_size=None,
                   energy_per_cycle=None, centred=True):
    """Implement a design with SCPG and a baseline for comparison.

    Parameters
    ----------
    design:
        Flat :class:`~repro.netlist.core.Design`, left unedited (a memoised
        elaboration will do): the baseline flow edits a
        :meth:`~repro.netlist.core.Design.copy` in place, and the SCPG
        transform builds new modules.
    library:
        Cell library.
    clock:
        Clock port name.
    header_size / energy_per_cycle:
        Forwarded to :func:`~repro.scpg.transform._apply_scpg`.
    centred:
        Centre the gated domain in the floorplan (the paper's
        recommendation); ``False`` shows the congestion penalty.
    """
    from .traditional import run_traditional_flow

    steps = []

    # Baseline first (its area is the overhead reference).
    baseline = run_traditional_flow(design.copy(), clock)

    # SCPG steps 1+2.
    step12 = StepReport("scpg-split-and-isolate")
    scpg = _apply_scpg(
        design, clock_port=clock, header_size=header_size,
        energy_per_cycle=energy_per_cycle,
    )
    step12.metrics.update(
        comb_gates=module_stats(scpg.comb_module).comb_gates,
        isolation_cells=len(scpg.iso_instances),
        headers="{}x HEADER_X{}".format(
            scpg.headers.count, scpg.headers.cell.drive_strength),
    )
    steps.append(step12)

    # Remainder of the flow on the SCPG top (hierarchy preserved; analyses
    # run on the flattened copy).  Both domains get fan-out repair, like
    # the baseline.
    top = scpg.design.top
    steps.append(synthesize(top, library))
    comb_step = synthesize(scpg.comb_module, library)
    comb_step.name = "synthesize-comb-domain"
    steps.append(comb_step)
    plan, step = plan_design(
        top, library, comb_module=scpg.comb_module,
        boundary_nets=len(scpg.boundary_outputs), centred=centred)
    steps.append(step)
    cts, step = synthesize_clock_tree(top, library, clock)
    steps.append(step)

    flat = flatten_linted(scpg.design)
    scpg.flat = flat  # the post-synthesis/post-CTS netlist

    routing, step = estimate_routing(flat.top, library)
    steps.append(step)

    flow = FlowResult(
        name="scpg:{}".format(top.name),
        design=scpg.design,
        flat=flat,
        steps=steps,
    )
    stats = module_stats(flat.top)
    flow.metrics.update(
        area=stats.area,
        cells=stats.cells,
        floorplan=plan,
        cts=cts,
        routing=routing,
    )

    overhead = 100.0 * (stats.area - baseline.metrics["area"]) \
        / baseline.metrics["area"]
    return ScpgFlowResult(
        scpg=scpg,
        flow=flow,
        baseline=baseline,
        area_overhead_pct=overhead,
        steps=steps,
    )
