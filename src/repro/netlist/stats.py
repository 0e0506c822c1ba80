"""Netlist statistics: gate counts, area and leakage roll-ups.

The paper quotes design sizes as combinational gate counts (556 for the
multiplier, 6747 for the Cortex-M0) and SCPG cost as an area percentage;
this module computes the same figures from our netlists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..tech.library import CellKind


@dataclass
class ModuleStats:
    """Aggregate statistics of a flat module."""

    name: str
    cells: int = 0
    comb_gates: int = 0
    seq_cells: int = 0
    buffer_cells: int = 0
    clock_cells: int = 0
    isolation_cells: int = 0
    tie_cells: int = 0
    header_cells: int = 0
    nets: int = 0
    area: float = 0.0
    leakage_nominal: float = 0.0
    by_cell: Counter = field(default_factory=Counter)

    def __str__(self):
        return (
            "{}: {} cells ({} comb, {} seq, {} iso, {} headers), "
            "area {:.1f} um2, leakage {:.3g} W"
        ).format(
            self.name,
            self.cells,
            self.comb_gates,
            self.seq_cells,
            self.isolation_cells,
            self.header_cells,
            self.area,
            self.leakage_nominal,
        )


_KIND_FIELD = {
    CellKind.COMBINATIONAL: "comb_gates",
    CellKind.SEQUENTIAL: "seq_cells",
    CellKind.BUFFER: "buffer_cells",
    CellKind.CLOCK: "clock_cells",
    CellKind.ISOLATION: "isolation_cells",
    CellKind.TIE: "tie_cells",
    CellKind.HEADER: "header_cells",
}


def module_stats(module):
    """Compute :class:`ModuleStats` for a flat ``module``.

    Hierarchical instances are counted recursively (their cells roll up into
    the same totals).  Cached on the module (see
    :meth:`repro.netlist.core.Module.derived`) with the generation of
    each submodule rolled up, since editing one leaves its parent's
    generation alone; treat the result as read-only.
    """
    slot = module.derived("stats", lambda m: [None, ()])
    stats, subs = slot
    if stats is None or any(sub.generation != generation
                            for sub, generation in subs):
        stats = ModuleStats(module.name)
        subs = []
        _accumulate(module, stats, subs)
        stats.nets = len(module.nets())
        slot[:] = stats, tuple((sub, sub.generation) for sub in subs)
    return stats


def _accumulate(module, stats, subs):
    for inst in module.instances():
        if not inst.is_cell:
            subs.append(inst.submodule)
            _accumulate(inst.submodule, stats, subs)
            continue
        cell = inst.cell
        stats.cells += 1
        stats.area += cell.area
        stats.leakage_nominal += cell.leakage
        stats.by_cell[cell.name] += 1
        setattr(
            stats,
            _KIND_FIELD[cell.kind],
            getattr(stats, _KIND_FIELD[cell.kind]) + 1,
        )
