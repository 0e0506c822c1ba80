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

import numpy as np


class GroupActivity:
    """Activity of one vector group.

    ``switching_probability`` is the average per-net toggle rate per cycle
    (the paper's y-axis); ``toggles`` maps net name -> count for the power
    engine.  A group the simulator records (:meth:`from_counts`) keeps
    one count per net in the narrowest unsigned dtype that holds its
    largest count, and builds the mapping on its first read.
    """

    def __init__(self, index, cycles, total_toggles, nets, toggles=None):
        self.index = index
        self.cycles = cycles
        self.total_toggles = total_toggles
        self.nets = nets
        self._toggles = {} if toggles is None else toggles
        self._dense = None

    @classmethod
    def from_counts(cls, index, cycles, nets, names, counts):
        """The group of per-net toggle ``counts`` (net ``i`` is named
        ``names[i]``), held as one dense array."""
        peak = int(counts.max()) if len(counts) else 0
        group = cls(index, cycles, int(counts.sum()), nets)
        group._toggles = None
        group._dense = (names, counts.astype(np.min_scalar_type(peak)))
        return group

    @property
    def toggles(self):
        """Net name -> toggle count, nets without toggles left out."""
        if self._toggles is None:
            names, counts = self._dense
            hit = np.flatnonzero(counts)
            self._toggles = dict(zip([names[i] for i in hit.tolist()],
                                     counts[hit].tolist()))
        return self._toggles

    @property
    def switching_probability(self):
        """Average toggles per net per cycle."""
        if self.cycles == 0 or self.nets == 0:
            return 0.0
        return self.total_toggles / (self.cycles * self.nets)

    def __getstate__(self):
        state = dict(self.__dict__)
        if self._dense is not None:
            state["_toggles"] = None        # rebuilt from the array
        return state

    def __eq__(self, other):
        if not isinstance(other, GroupActivity):
            return NotImplemented
        return (self.index, self.cycles, self.total_toggles, self.nets,
                self.toggles) == (other.index, other.cycles,
                                  other.total_toggles, other.nets,
                                  other.toggles)

    __hash__ = None


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
