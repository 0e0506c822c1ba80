"""Netlist lint: structural checks run before timing/power/transform steps.

The checks mirror what a synthesis tool's ``check_design`` reports:

* **errors** -- floating cell inputs, nets with loads but no driver,
  combinational loops (these break simulation and STA);
* **warnings** -- dangling nets/outputs (legal but usually a generator bug),
  unconnected output ports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetlistError
from .core import PortDirection
from .traverse import levels_for


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
    """Run all structural checks on a flat ``module``."""
    report = ValidationReport(module.name)

    for inst in module.instances():
        if not inst.is_cell:
            report.errors.append(
                "instance {} is hierarchical; flatten first".format(inst.name)
            )
            continue
        for pin_name in inst.input_pins():
            if pin_name not in inst.connections:
                report.errors.append(
                    "instance {} input pin {} unconnected".format(
                        inst.name, pin_name
                    )
                )
        connected_outputs = [
            p for p in inst.output_pins() if p in inst.connections
        ]
        if inst.output_pins() and not connected_outputs:
            report.warnings.append(
                "instance {} drives nothing".format(inst.name)
            )

    if any("hierarchical" in e for e in report.errors):
        return report

    for net in module.nets():
        has_loads = bool(net.loads)
        if has_loads and not net.is_driven:
            report.errors.append("net {} has loads but no driver".format(
                net.name))
        if (
            not has_loads
            and net.is_driven
            and not net.is_const
            and not module.has_port(net.name)
        ):
            report.warnings.append("net {} is dangling".format(net.name))

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
