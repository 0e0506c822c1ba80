"""Leakage power analysis.

Cell leakage is characterised at the library's nominal voltage; the device
model rescales it to the operating supply (sub-threshold current with DIBL
plus the linear V factor of power).  When a state snapshot is supplied
(net name -> 0/1 from the simulator), state-dependent Liberty-style leakage
values are used per cell; otherwise the average.

The report splits totals by cell kind because that split is exactly what
SCPG exploits: combinational leakage is gatable, sequential/clock/isolation
leakage is always-on, header leakage is the gated-mode residual.

:func:`leakage_power` runs over the memoised
:class:`~repro.netlist.soa.LeakageSoa` lowering -- one state gather plus
one scaled accumulate instead of a per-instance netlist walk -- and is
bit-identical to the per-instance walk it replaced (the differential
oracle in ``tests/power/walk.py``): the state tables are enumerated
*through* ``Cell.leakage_for_state`` and every accumulation replays the
walk's addition order.  :func:`state_leakage_trace` extends the same gather
across a whole co-simulation state trace (one row per cycle, e.g. from
:meth:`repro.isa.trace.GateLevelCpu.state_trace`) as array ops, and
:meth:`LeakageReport.from_soa` evaluates a lowering kept without its
netlist (the SCPG model's snapshot); all three scale and fold through
one helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netlist.soa import leakage_soa_for
from ..tech.library import CellKind

#: Kinds whose leakage the SCPG header can gate away.
GATABLE_KINDS = (CellKind.COMBINATIONAL, CellKind.BUFFER, CellKind.TIE)


@dataclass
class LeakageReport:
    """Leakage totals (W) at the requested operating point."""

    vdd: float
    total: float = 0.0
    by_kind: dict = field(default_factory=dict)
    by_cell: dict = field(default_factory=dict)

    @property
    def combinational(self):
        """Leakage of gatable (combinational-domain) cells."""
        return sum(self.by_kind.get(k, 0.0) for k in GATABLE_KINDS)

    @property
    def always_on(self):
        """Leakage of cells that stay powered under SCPG (excl. headers)."""
        return self.total - self.combinational - self.headers

    @property
    def headers(self):
        """Off-state residual leakage through the sleep headers."""
        return self.by_kind.get(CellKind.HEADER, 0.0)

    @classmethod
    def from_soa(cls, lk, library, vdd=None, state=None, temp_c=None):
        """The report of a :class:`~repro.netlist.soa.LeakageSoa` at
        ``vdd`` (default nominal); ``state`` is an optional packed
        net-value row."""
        vdd = library.vdd_nom if vdd is None else vdd
        report = cls(vdd=vdd)
        totals = _leakage_totals(lk, library, vdd, state, temp_c)
        if totals is not None:
            total, kinds, cells = totals
            report.total = float(total)
            report.by_kind = {k: float(v) for k, v in kinds.items()}
            report.by_cell = {k: float(v) for k, v in cells.items()}
        return report

    def __str__(self):
        lines = ["leakage @ {:.2f} V: {:.4g} W".format(self.vdd, self.total)]
        for kind, value in sorted(self.by_kind.items(), key=lambda kv: -kv[1]):
            lines.append("  {:<12} {:.4g} W".format(kind.value, value))
        return "\n".join(lines)


def _left_fold(vals):
    """Sum along the last axis as a strictly sequential left fold:
    ``np.add.accumulate`` repeats the walk's float additions in
    instance order, where ``np.sum`` would pair them."""
    return np.add.accumulate(vals, axis=-1)[..., -1]


def _leakage_totals(lk, library, vdd, states, temp_c, by_cell=True):
    """``(total, by_kind, by_cell)`` of a lowered module at the resolved
    supply ``vdd``, or ``None`` when it has no cells.

    Each instance's leakage (state-dependent where ``states`` gives net
    values) is scaled by the HVT factor for headers and the SVT factor
    otherwise, then left-folded by total, kind and cell.  ``states`` is
    ``None``, one packed row or a ``(cycles, n_nets)`` trace; the totals
    take the matching leading shape.
    """
    svt_scale = library.leakage_scale(vdd, "svt", temp_c)
    hvt_scale = library.leakage_scale(vdd, "hvt", temp_c)
    vals = lk.per_instance(states) * np.where(lk.is_header, hvt_scale,
                                              svt_scale)
    if not vals.shape[-1]:
        return None
    kinds = {kind: _left_fold(vals[..., rows])
             for kind, rows in lk.kind_rows}
    cells = {name: _left_fold(vals[..., rows])
             for name, rows in lk.cell_rows} if by_cell else {}
    return _left_fold(vals), kinds, cells


def leakage_power(module, library, vdd=None, state=None, temp_c=None):
    """Compute the :class:`LeakageReport` of a flat ``module``.

    Parameters
    ----------
    module:
        Flat module.
    library:
        Cell library.
    vdd:
        Operating supply (defaults to nominal).
    state:
        Optional net-value snapshot (dict name -> 0/1/other) enabling
        state-dependent leakage.
    temp_c:
        Operating temperature (defaults to the library's).
    """
    lk = leakage_soa_for(module)
    return LeakageReport.from_soa(
        lk, library, vdd, None if state is None else lk.state_values(state),
        temp_c)


@dataclass
class LeakageTrace:
    """Per-cycle state-dependent leakage across a co-sim trace (W).

    Arrays are indexed by cycle; every element equals the corresponding
    field of ``leakage_power(module, library, vdd, state=cycle_state)``
    bit-for-bit.
    """

    vdd: float
    total: np.ndarray = None
    #: CellKind -> per-cycle totals, first-occurrence order.
    by_kind: dict = field(default_factory=dict)

    @property
    def cycles(self):
        return 0 if self.total is None else len(self.total)

    @property
    def combinational(self):
        """Gatable (combinational-domain) leakage per cycle."""
        return sum(self.by_kind.get(k, 0.0) for k in GATABLE_KINDS)

    @property
    def always_on(self):
        """Always-on (non-header, non-gatable) leakage per cycle."""
        return self.total - self.combinational - self.headers

    @property
    def headers(self):
        """Sleep-header residual leakage per cycle."""
        return self.by_kind.get(CellKind.HEADER, 0.0)


def state_leakage_trace(module, library, states, vdd=None, temp_c=None):
    """State-dependent leakage for every cycle of a state trace.

    ``states`` is a ``(cycles, n_nets)`` packed value matrix in
    ``module.nets()`` order (what
    :meth:`repro.isa.trace.GateLevelCpu.state_trace` records) or an
    iterable of ``{net name: value}`` snapshots.  One gather + scaled
    accumulate over the whole trace replaces ``cycles`` netlist walks;
    returns a :class:`LeakageTrace`.
    """
    vdd = library.vdd_nom if vdd is None else vdd
    lk = leakage_soa_for(module)
    if isinstance(states, np.ndarray):
        mat = np.asarray(states, dtype=np.int8)
        if mat.ndim == 1:
            mat = mat[np.newaxis, :]
    else:
        rows = [lk.state_values(s) for s in states]
        mat = np.asarray(rows, dtype=np.int8) if rows \
            else np.zeros((0, len(lk.net_names)), dtype=np.int8)
    trace = LeakageTrace(vdd=vdd)
    totals = _leakage_totals(lk, library, vdd, mat, temp_c, by_cell=False)
    if totals is None:
        trace.total = np.zeros(len(mat), dtype=np.float64)
    else:
        trace.total, trace.by_kind, _ = totals
    return trace
