"""The netlist-walking STA: the differential oracle for
:class:`repro.sta.analysis.TimingAnalysis`.

This is the arrival-time propagation as it ran before the analysis was
lowered to an index program: it walks ``Net`` / ``Instance`` objects
directly.  Tests compare the lowered analysis against it with ``==`` on
floats and on the rendered critical path.
"""

from repro.errors import TimingError
from repro.netlist.traverse import topological_instances
from repro.sta.analysis import TimingPath, TimingResult
from repro.sta.delay import net_load
from repro.tech.library import CellKind


def walk_timing(module, lib, vdd=None):
    """:class:`TimingResult` of ``module`` at ``vdd`` by netlist walk."""
    vdd = lib.vdd_nom if vdd is None else vdd
    scale = lib.delay_scale(vdd)

    # arrival[net id] = (worst arrival, min arrival)
    arrivals = {}
    trace = {}

    def arrive(net, at, at_min, source):
        key = id(net)
        worst, best = arrivals.get(key, (None, None))
        if worst is None or at > worst:
            trace[key] = source
            worst = at
        best = at_min if best is None else min(best, at_min)
        arrivals[key] = (worst, best)

    for port in module.input_ports():
        arrive(port.net, 0.0, 0.0, ("port", port.name))
    for inst in module.cell_instances():
        if inst.cell.kind is CellKind.SEQUENTIAL:
            q_net = inst.connections.get("Q")
            if q_net is None:
                continue
            c2q = inst.cell.delay(net_load(q_net, lib), scale)
            arrive(q_net, c2q, c2q, ("clk2q", inst.name))

    for inst in topological_instances(module)[0]:
        worst_in = 0.0
        best_in = None
        have_input = False
        for pin_name in inst.input_pins():
            net = inst.connections.get(pin_name)
            if net is None or net.is_const:
                continue
            entry = arrivals.get(id(net))
            if entry is None:
                continue
            have_input = True
            worst_in = max(worst_in, entry[0])
            best_in = entry[1] if best_in is None \
                else min(best_in, entry[1])
        for pin_name in inst.output_pins():
            net = inst.connections.get(pin_name)
            if net is None:
                continue
            d = inst.cell.delay(net_load(net, lib), scale)
            base_w = worst_in if have_input else 0.0
            base_b = best_in if (have_input and best_in is not None) \
                else 0.0
            arrive(net, base_w + d, base_b + d, ("cell", inst.name))

    eval_delay = 0.0
    min_path = float("inf")
    setup = 0.0
    hold = 0.0
    worst_capture = None
    for inst in module.cell_instances():
        if inst.cell.kind is not CellKind.SEQUENTIAL:
            continue
        hold = max(hold, inst.cell.hold * scale)
        d_net = inst.connections.get("D")
        if d_net is None:
            continue
        entry = arrivals.get(id(d_net))
        if entry is None:
            continue
        if entry[0] > eval_delay:
            eval_delay = entry[0]
            setup = inst.cell.setup * scale
            worst_capture = ("{}/D".format(inst.name), d_net)
        min_path = min(min_path, entry[1])
    for port in module.output_ports():
        entry = arrivals.get(id(port.net))
        if entry is None:
            continue
        if entry[0] > eval_delay:
            eval_delay = entry[0]
            setup = 0.0
            worst_capture = ("port {}".format(port.name), port.net)
        min_path = min(min_path, entry[1])

    if worst_capture is None:
        raise TimingError(
            "module {} has no capture points".format(module.name))
    if min_path == float("inf"):
        min_path = 0.0

    name, net = worst_capture
    points = []
    seen = set()
    while net is not None and id(net) in trace and id(net) not in seen:
        seen.add(id(net))
        kind, inst_name = trace[id(net)]
        points.append((inst_name, net.name, arrivals[id(net)][0]))
        if kind != "cell":
            break
        inst = module.instance(inst_name)
        best = None
        for pin_name in inst.input_pins():
            candidate = inst.connections.get(pin_name)
            if candidate is None or candidate.is_const:
                continue
            entry = arrivals.get(id(candidate))
            if entry is None:
                continue
            if best is None or entry[0] > arrivals[id(best)][0]:
                best = candidate
        net = best
    points.reverse()
    path = TimingPath(delay=arrivals[id(worst_capture[1])][0],
                      points=points, capture=name)
    return TimingResult(eval_delay=eval_delay, setup=setup, hold=hold,
                        min_path_delay=min_path, critical_path=path,
                        vdd=vdd)
