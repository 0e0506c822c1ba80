"""Vectorless activity estimation: signal probabilities and transition
densities.

When no workload vectors exist (early design planning, or the control half
of a design whose datapath is simulated), activity can be estimated by
propagating, under an input-independence assumption:

* ``prob`` -- probability a net is 1;
* ``density`` -- expected toggles per clock cycle.

Each gate's outputs are computed exactly over its own inputs (exhaustive
enumeration of the at-most-3-input cells), with the classic
Boolean-difference formulation for density.  Flip-flops resample per cycle:
``prob(Q) = prob(D)``, ``density(Q) = 2 p (1 - p)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PowerError
from ..netlist.traverse import levels_for
from ..sim.logic import compile_cell
from ..sta.delay import net_caps
from ..tech.library import CellKind


@dataclass
class ActivityEstimate:
    """Per-net activity estimates."""

    prob: dict
    density: dict

    def net_prob(self, name):
        """Probability that net ``name`` is logic 1."""
        return self.prob[name]

    def net_density(self, name):
        """Expected toggles of net ``name`` per cycle."""
        return self.density[name]

    def average_density(self):
        """Mean toggles/net/cycle over all estimated nets."""
        if not self.density:
            return 0.0
        return sum(self.density.values()) / len(self.density)


def _gate_output_stats(compiled, pin, in_probs, in_densities):
    """Exact output probability and Boolean-difference density."""
    table = compiled.tables[pin]
    n = len(compiled.input_names)
    prob = 0.0
    # P(out = 1): sum over minterms.
    for idx in range(1 << n):
        p = 1.0
        t_idx = 0
        stride = 1
        for k in range(n):
            bit = (idx >> k) & 1
            p *= in_probs[k] if bit else (1.0 - in_probs[k])
            t_idx += bit * stride
            stride *= 3
        if table[t_idx] == 1:
            prob += p
    # Density: sum_i P(dOut/dIn_i) * D(in_i).
    density = 0.0
    for i in range(n):
        sens = 0.0
        for idx in range(1 << n):
            if (idx >> i) & 1:
                continue  # enumerate with input i = 0, flip to 1
            p = 1.0
            t0 = 0
            t1 = 0
            stride = 1
            for k in range(n):
                bit = (idx >> k) & 1
                if k == i:
                    t1 += stride
                else:
                    p *= in_probs[k] if bit else (1.0 - in_probs[k])
                    t0 += bit * stride
                    t1 += bit * stride
                stride *= 3
            if table[t0] != table[t1]:
                sens += p
        density += sens * in_densities[i]
    return prob, density


def estimate_activity(module, input_probs=None, input_densities=None,
                      default_prob=0.5, default_density=0.5):
    """Estimate activity for every net of a flat ``module``.

    ``input_probs`` / ``input_densities`` override per-input defaults
    (dict port name -> value).  Returns an :class:`ActivityEstimate`.
    """
    input_probs = input_probs or {}
    input_densities = input_densities or {}
    prob = {}
    density = {}

    for port in module.input_ports():
        prob[port.net.name] = input_probs.get(port.name, default_prob)
        density[port.net.name] = input_densities.get(
            port.name, default_density)

    for net in module.nets():
        if net.is_const:
            prob[net.name] = float(net.const_value)
            density[net.name] = 0.0

    # Flip-flop outputs: resample D each cycle.  D's statistics are not
    # known yet (cyclic), so seed with defaults and refine by iteration.
    seq = [i for i in module.cell_instances()
           if i.cell.kind is CellKind.SEQUENTIAL]
    for inst in seq:
        q = inst.connections.get("Q")
        if q is not None:
            prob[q.name] = default_prob
            density[q.name] = 2 * default_prob * (1 - default_prob)

    order = levels_for(module)[0]
    for _iteration in range(3):  # a couple of sweeps converge feedback paths
        for inst in order:
            compiled = compile_cell(inst.cell)
            in_probs = []
            in_densities = []
            for pin_name in compiled.input_names:
                net = inst.connections.get(pin_name)
                if net is None:
                    in_probs.append(0.0)
                    in_densities.append(0.0)
                else:
                    in_probs.append(prob.get(net.name, default_prob))
                    in_densities.append(
                        density.get(net.name, default_density))
            for pin, net_idx in (
                (p, inst.connections.get(p)) for p in inst.output_pins()
            ):
                if net_idx is None:
                    continue
                p_out, d_out = _gate_output_stats(
                    compiled, pin, in_probs, in_densities)
                prob[net_idx.name] = p_out
                density[net_idx.name] = min(d_out, 1.0)
        for inst in seq:
            d_net = inst.connections.get("D")
            q_net = inst.connections.get("Q")
            if d_net is None or q_net is None:
                continue
            p = prob.get(d_net.name, default_prob)
            prob[q_net.name] = p
            density[q_net.name] = 2 * p * (1 - p)

    if not prob:
        raise PowerError("module has no nets to estimate")
    return ActivityEstimate(prob=prob, density=density)


def activity_for(module):
    """The default-argument :func:`estimate_activity` of ``module``,
    cached on the module (see :meth:`repro.netlist.core.Module.derived`);
    treat it as read-only."""
    return module.derived("activity", estimate_activity)


@dataclass
class SwitchedCapacitance:
    """Per-net switched capacitance x activity: the vdd-independent half
    of :func:`vectorless_switching`.

    ``rows`` holds ``(net_name, cap_farads, density)`` in
    ``module.nets()`` order for every non-constant net with positive
    estimated density; ``cap`` is the net's load (wire + pin) plus its
    driver's internal capacitance.  Activity estimation, the expensive
    part, is read from the module's cache (:func:`activity_for`);
    :meth:`evaluate` only prices the rows at a supply.  The table holds
    names and floats only, so it pickles into the per-circuit artifact
    bundle.
    """

    rows: list = field(default_factory=list)

    @classmethod
    def compile(cls, module, library):
        """Estimate activity and price every net's load."""
        density = activity_for(module).density
        rows = []
        for net, cap in zip(module.nets(), net_caps(module, library)):
            if net.is_const:
                continue
            d = density.get(net.name, 0.0)
            if d > 0:
                rows.append((net.name, cap, d))
        return cls(rows=rows)

    def evaluate(self, library, vdd=None):
        """``(e_cycle, by_net)`` at ``vdd`` (default nominal)."""
        vdd = library.vdd_nom if vdd is None else vdd
        half_v2 = 0.5 * vdd * vdd
        by_net = {}
        e_cycle = 0.0
        for name, cap, density in self.rows:
            energy = half_v2 * cap * density
            by_net[name] = energy
            e_cycle += energy
        return e_cycle, by_net


def vectorless_switching(module, library, vdd=None):
    """Vectorless per-cycle switched energy: ``(e_cycle, by_net)``.

    The probabilistic activity estimate priced against each net's load
    (wire + pin + driver-internal capacitance) at ``vdd`` (default: the
    library's characterisation voltage) -- a :class:`SwitchedCapacitance`
    compiled and evaluated once.  Adequate for trend studies and
    reports when no workload trace exists; measured activity needs a
    testbench (see :mod:`repro.power.dynamic`).
    """
    table = SwitchedCapacitance.compile(module, library)
    return table.evaluate(library, vdd)
