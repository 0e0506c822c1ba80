"""Per-gate and per-instance walks: the differential oracles for the
vectorless activity estimate and the lowered leakage analysis.

* :func:`walk_activity` is :func:`repro.power.probabilistic.estimate_activity`
  as it ran before the level sweep: one gate at a time in topological
  order, with the textbook minterm loops of :func:`gate_output_stats`;
* :func:`leakage_power_walk` is :func:`repro.power.leakage.leakage_power`
  as it ran before the :class:`~repro.netlist.soa.LeakageSoa` lowering:
  one instance at a time, state from a ``{net name: value}`` snapshot.

Tests compare the analyses against them bit for bit; the leakage-trace
benchmark times the walk as its slow side.
"""

from repro.errors import PowerError
from repro.netlist.traverse import levels_for
from repro.power.leakage import LeakageReport
from repro.power.probabilistic import ActivityEstimate
from repro.sim.logic import compile_cell
from repro.tech.library import CellKind


def gate_output_stats(compiled, pin, in_probs, in_densities):
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


def walk_activity(module, input_probs=None, input_densities=None,
                  default_prob=0.5, default_density=0.5):
    """:class:`ActivityEstimate` of ``module`` by the per-gate walk."""
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

    seq = [i for i in module.cell_instances()
           if i.cell.kind is CellKind.SEQUENTIAL]
    for inst in seq:
        q = inst.connections.get("Q")
        if q is not None:
            prob[q.name] = default_prob
            density[q.name] = 2 * default_prob * (1 - default_prob)

    order = levels_for(module)[0]
    for _iteration in range(3):
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
            for pin in inst.output_pins():
                net = inst.connections.get(pin)
                if net is None:
                    continue
                p_out, d_out = gate_output_stats(
                    compiled, pin, in_probs, in_densities)
                prob[net.name] = p_out
                density[net.name] = min(d_out, 1.0)
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


def _cell_state(inst, state):
    """Input pin values of ``inst`` from a net-value snapshot."""
    values = {}
    for pin_name in inst.input_pins():
        net = inst.connections.get(pin_name)
        if net is None:
            values[pin_name] = None
        elif net.is_const:
            values[pin_name] = net.const_value
        else:
            v = state.get(net.name)
            values[pin_name] = None if v not in (0, 1) else v
    return values


def leakage_power_walk(module, library, vdd=None, state=None, temp_c=None):
    """:class:`LeakageReport` of ``module`` by the per-instance walk."""
    vdd = library.vdd_nom if vdd is None else vdd
    svt_scale = library.leakage_scale(vdd, "svt", temp_c)
    hvt_scale = library.leakage_scale(vdd, "hvt", temp_c)
    report = LeakageReport(vdd=vdd)
    for inst in module.cell_instances():
        cell = inst.cell
        if state is not None and cell.leakage_states:
            base = cell.leakage_for_state(_cell_state(inst, state))
        else:
            base = cell.leakage
        scale = hvt_scale if cell.kind is CellKind.HEADER else svt_scale
        value = base * scale
        report.total += value
        report.by_kind[cell.kind] = report.by_kind.get(cell.kind, 0.0) + value
        report.by_cell[cell.name] = report.by_cell.get(cell.name, 0.0) + value
    return report
