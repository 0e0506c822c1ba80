"""Switching-activity capture and vector grouping (the paper's Fig. 7 flow).

The paper divides the 3700-vector Dhrystone run into groups of 10 vectors,
computes each group's average switching activity with PrimeTime-PX, plots
the per-group switching probability (Fig. 7), and picks the maximum /
minimum / average groups for detailed HSpice power simulation.  This module
reproduces that pipeline on our simulator: toggle counts per group, the
switching-probability series, and the representative-group selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class GroupActivity:
    """Activity of one vector group.

    ``switching_probability`` is the average per-net toggle rate per cycle
    (the paper's y-axis); ``toggles`` maps net name -> count for the power
    engine.
    """

    index: int
    cycles: int
    total_toggles: int
    nets: int
    toggles: dict = field(default_factory=dict)

    @property
    def switching_probability(self):
        """Average toggles per net per cycle."""
        if self.cycles == 0 or self.nets == 0:
            return 0.0
        return self.total_toggles / (self.cycles * self.nets)


@dataclass
class ActivityTrace:
    """A full run's per-group activity plus representative groups."""

    groups: list = field(default_factory=list)

    @property
    def series(self):
        """Switching probability per group (Fig. 7's y series)."""
        return [g.switching_probability for g in self.groups]

    def representative_groups(self):
        """The paper's max / min / average trio.

        Returns a dict with keys ``max``, ``min``, ``avg`` -- the group with
        the highest, lowest, and closest-to-mean switching probability.
        """
        if not self.groups:
            raise ValueError("no activity groups recorded")
        by_prob = sorted(self.groups, key=lambda g: g.switching_probability)
        mean = sum(self.series) / len(self.groups)
        avg_group = min(
            self.groups,
            key=lambda g: abs(g.switching_probability - mean),
        )
        return {"max": by_prob[-1], "min": by_prob[0], "avg": avg_group}

    def average_switching_probability(self):
        """Cycle-weighted mean switching probability of the whole run."""
        total_cycles = sum(g.cycles for g in self.groups)
        if total_cycles == 0:
            return 0.0
        return (
            sum(g.switching_probability * g.cycles for g in self.groups)
            / total_cycles
        )


def group_activity(module, vectors, group_size=10, clock="clk"):
    """Run ``vectors`` through ``module`` and return the grouped
    :class:`ActivityTrace` (paper Fig. 7 pipeline for open-loop stimuli).

    Runs on the levelized struct-of-arrays engine
    (:mod:`repro.sim.compiled`).
    """
    from .compiled import schedule_for

    run = schedule_for(module).run_vectors(
        list(vectors), clock=clock, group_size=group_size)
    return run.trace
