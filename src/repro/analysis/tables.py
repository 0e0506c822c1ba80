"""Table I / Table II generation in the paper's exact format.

Columns: clock frequency; then power, energy/op for No Power Gating;
power, energy/op and saving % for Proposed SCPG; the same for Proposed
SCPG-Max.  Savings are relative to the No-PG power at the same frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.trace import layer
from ..scpg.power_model import Mode
from .sweep import sweep

#: The frequency grids of Table I and Table II (Hz).
TABLE_I_FREQS = [0.01e6, 0.1e6, 1e6, 2e6, 5e6, 8e6, 10e6, 14.3e6]
TABLE_II_FREQS = [0.01e6, 0.1e6, 1e6, 2e6, 5e6, 10e6]


@dataclass
class TableRowResult:
    """One table row (SI units; ``None`` marks infeasible entries)."""

    freq_hz: float
    power_nopg: float
    energy_nopg: float
    power_scpg: float
    energy_scpg: float
    saving_scpg_pct: float
    power_scpgmax: float
    energy_scpgmax: float
    saving_scpgmax_pct: float


@layer("analysis.self")
def build_table(model, freqs, runner=None, label="sweep"):
    """Evaluate the model on a frequency grid; returns
    ``list[TableRowResult]``.

    ``runner`` (a :class:`repro.runner.Runner`) supplies workers and the
    result cache for the underlying sweep; ``label`` names the grid in
    the trace.
    """
    data = sweep(model, freqs, runner=runner, label=label)
    rows = []
    for i, f in enumerate(freqs):
        nopg = data.results[Mode.NO_PG][i]
        scpg = data.results[Mode.SCPG][i]
        scpgmax = data.results[Mode.SCPG_MAX][i]

        def fields(breakdown):
            if breakdown is None or nopg is None:
                return None, None, None
            return (
                breakdown.total,
                breakdown.energy_per_op,
                breakdown.saving_vs(nopg),
            )

        p2, e2, s2 = fields(scpg)
        p3, e3, s3 = fields(scpgmax)
        rows.append(
            TableRowResult(
                freq_hz=f,
                power_nopg=nopg.total if nopg else None,
                energy_nopg=nopg.energy_per_op if nopg else None,
                power_scpg=p2,
                energy_scpg=e2,
                saving_scpg_pct=s2,
                power_scpgmax=p3,
                energy_scpgmax=e3,
                saving_scpgmax_pct=s3,
            )
        )
    return rows


def _fmt(value, scale, pattern="{:8.2f}"):
    if value is None:
        return " " * (len(pattern.format(0.0)) - 1) + "-"
    return pattern.format(value * scale)


def format_table(rows, title="POWER AND ENERGY PER OPERATION", vdd=0.6):
    """Render rows in the paper's layout (uW / pJ / %)."""
    lines = []
    lines.append("{}, VDD={}V".format(title, vdd))
    lines.append(
        "{:>8} | {:>8} {:>9} | {:>8} {:>9} {:>7} | {:>8} {:>9} {:>7}".format(
            "Clock", "Power", "Energy", "Power", "Energy", "Saving",
            "Power", "Energy", "Saving")
    )
    lines.append(
        "{:>8} | {:>8} {:>9} | {:>8} {:>9} {:>7} | {:>8} {:>9} {:>7}".format(
            "(MHz)", "(uW)", "(pJ)", "(uW)", "(pJ)", "(%)",
            "(uW)", "(pJ)", "(%)")
    )
    lines.append("-" * 96)
    for row in rows:
        lines.append(
            "{:>8.2f} | {} {} | {} {} {} | {} {} {}".format(
                row.freq_hz / 1e6,
                _fmt(row.power_nopg, 1e6),
                _fmt(row.energy_nopg, 1e12, "{:9.2f}"),
                _fmt(row.power_scpg, 1e6),
                _fmt(row.energy_scpg, 1e12, "{:9.2f}"),
                _fmt(row.saving_scpg_pct, 1.0, "{:7.1f}"),
                _fmt(row.power_scpgmax, 1e6),
                _fmt(row.energy_scpgmax, 1e12, "{:9.2f}"),
                _fmt(row.saving_scpgmax_pct, 1.0, "{:7.1f}"),
            )
        )
    return "\n".join(lines)
