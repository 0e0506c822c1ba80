"""Netlist lint: structural checks run before timing/power/transform steps.

The checks mirror what a synthesis tool's ``check_design`` reports:

* **errors** -- floating cell inputs, nets with loads but no driver,
  combinational loops (these break simulation and STA);
* **warnings** -- dangling nets/outputs (legal but usually a generator bug),
  unconnected output ports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError
from .core import PortDirection
from .traverse import connectivity_for, levels_for


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_module`."""

    module: str
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    def raise_if_errors(self):
        """Raise :class:`NetlistError` summarising any errors."""
        if self.errors:
            raise NetlistError(
                "module {}: {}".format(self.module, "; ".join(self.errors))
            )

    def __str__(self):
        lines = ["validation of {}: {}".format(
            self.module, "ok" if self.ok else "FAILED")]
        lines += ["  error: {}".format(e) for e in self.errors]
        lines += ["  warning: {}".format(w) for w in self.warnings]
        return "\n".join(lines)


def validate_module(module, check_loops=True):
    """Run all structural checks on a flat ``module`` (over its
    :class:`~repro.netlist.traverse.Connectivity`)."""
    report = ValidationReport(module.name)
    conn = connectivity_for(module)
    missing = conn.open_inputs()
    dead = np.array([bool(c.output_names) for c in conn.cell_types],
                    dtype=bool)[conn.cell_code] & (conn.out_net < 0).all(1)
    flagged = set(np.flatnonzero(missing.any(axis=1) | dead).tolist())

    rows = iter(range(len(conn.cells)))
    hierarchical = False
    for inst in module.instances():
        if not inst.is_cell:
            hierarchical = True
            report.errors.append(
                "instance {} is hierarchical; flatten first".format(inst.name)
            )
            continue
        row = next(rows)
        if row not in flagged:
            continue
        report.errors.extend(
            "instance {} input pin {} unconnected".format(
                inst.name, inst.cell.input_names[k])
            for k in np.flatnonzero(missing[row]).tolist())
        if dead[row]:
            report.warnings.append(
                "instance {} drives nothing".format(inst.name)
            )

    if hierarchical:
        return report

    for i in np.flatnonzero(conn.has_loads & ~conn.driven).tolist():
        report.errors.append("net {} has loads but no driver".format(
            conn.net_names[i]))
    dangling = ~conn.has_loads & conn.driven & ~conn.is_const \
        & ~conn.is_port
    for i in np.flatnonzero(dangling).tolist():
        report.warnings.append("net {} is dangling".format(
            conn.net_names[i]))

    for port in module.ports:
        if port.direction is PortDirection.OUTPUT and not port.net.is_driven:
            report.warnings.append(
                "output port {} is undriven".format(port.name)
            )

    if check_loops and not report.errors:
        try:
            levels_for(module)
        except NetlistError as exc:
            report.errors.append(str(exc))

    return report
