"""Arrival-time propagation, critical paths and Fmax.

The analysis lowers a flat module once into an index program over its
combinational instances in topological order, then propagates worst-case
(and best-case, for hold) arrival times from launch points -- sequential
cell outputs (offset by clock-to-Q) and primary inputs (assumed
registered externally at time 0) -- to capture points (flip-flop D pins
and primary outputs).

Results are reported at the library's nominal voltage and can be rescaled
to any supply with :meth:`TimingResult.at_vdd`, which is how the Section IV
sub-threshold frequency sweep gets its ``Fmax(VDD)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from weakref import ref

from ..errors import TimingError
from ..netlist.traverse import level_rows
from ..obs.trace import layer
from .delay import net_loads


@dataclass
class TimingPath:
    """One timing path: launch -> pins -> capture."""

    delay: float
    points: list = field(default_factory=list)  # (instance, pin, arrival)
    capture: str = ""

    def __str__(self):
        lines = ["path delay {:.3e} s -> {}".format(self.delay, self.capture)]
        for inst_name, pin, at in self.points:
            lines.append("  {:<30} {:<6} {:.3e}".format(inst_name, pin, at))
        return "\n".join(lines)


@dataclass
class TimingResult:
    """Outcome of :class:`TimingAnalysis` at the nominal voltage.

    ``eval_delay`` is the paper's ``T_eval`` (clock-to-Q plus combinational
    logic, excluding the capture setup); ``setup``/``hold`` are the worst
    capture-flop constraints; ``min_period`` is the no-power-gating limit
    ``T_eval + T_setup``.
    """

    eval_delay: float
    setup: float
    hold: float
    min_path_delay: float
    critical_path: TimingPath
    vdd: float

    @property
    def min_period(self):
        """Minimum clock period without SCPG (s)."""
        return self.eval_delay + self.setup

    @property
    def fmax(self):
        """Maximum clock frequency without SCPG (Hz)."""
        return 1.0 / self.min_period

    def scaled(self, factor, vdd=None):
        """All delays multiplied by ``factor`` (hold requirements too)."""
        return TimingResult(
            eval_delay=self.eval_delay * factor,
            setup=self.setup * factor,
            hold=self.hold * factor,
            min_path_delay=self.min_path_delay * factor,
            critical_path=self.critical_path,
            vdd=self.vdd if vdd is None else vdd,
        )


class TimingAnalysis:
    """Run STA on a flat module.

    Construction lowers the module into an index program over the
    module's :class:`~repro.netlist.traverse.Connectivity` net indices,
    and every edge delay is stored as its
    nominal base ``intrinsic + R * C_load`` -- the parenthesised
    subexpression :meth:`repro.tech.library.Cell.delay` evaluates before
    applying the voltage scale.  :meth:`run` then propagates arrivals over
    that program at any supply; :attr:`nominal` is the run at the
    library's nominal supply, made once per analysis and shared by
    every transform that times the module.  The object keeps no ``Net``
    or ``Instance`` once built, so it pickles as is (the per-circuit
    artifact bundle stores it).

    Parameters
    ----------
    module:
        Flat module (cells only).
    library:
        The cell library.
    """

    def __init__(self, module, library):
        self.library = library
        self.module_name = module.name
        conn, rows, _ = level_rows(module)
        cells = conn.cells
        loads = net_loads(module, library).tolist()

        def base_delay(cell, idx):
            return cell.intrinsic_delay + cell.drive_resistance * loads[idx]

        #: [(net_idx, port_name)] in input_ports() order.
        self.port_launches = [(conn.port_net[port.name], port.name)
                              for port in module.input_ports()]
        seq = conn.seq_rows
        q_nets = conn.pin_net(seq, "Q").tolist()
        d_nets = conn.pin_net(seq, "D").tolist()
        seq = [cells[r] for r in seq.tolist()]
        #: [(q_net_idx, base_c2q, inst_name)] in cell_instances() order.
        self.seq_launches = [
            (q, base_delay(inst.cell, q), inst.name)
            for inst, q in zip(seq, q_nets) if q >= 0
        ]
        #: [(inst_name, (in_idx, ...), [(out_idx, base_delay), ...])] in
        #: topological order.
        self.steps = []
        is_const = conn.is_const.tolist()
        for r, ins, outs in zip(rows.tolist(), conn.in_net[rows].tolist(),
                                conn.out_net[rows].tolist()):
            cell = cells[r].cell
            self.steps.append((
                cells[r].name,
                tuple(i for i in ins if i >= 0 and not is_const[i]),
                [(o, base_delay(cell, o)) for o in outs if o >= 0]))
        #: [(hold_nom, d_idx | None, setup_nom, inst_name)] per seq cell.
        self.seq_captures = [
            (inst.cell.hold, None if d < 0 else d, inst.cell.setup,
             inst.name)
            for inst, d in zip(seq, d_nets)
        ]
        #: [(net_idx, port_name)] in output_ports() order.
        self.port_captures = [(conn.port_net[port.name], port.name)
                              for port in module.output_ports()]
        self.net_names = conn.net_names
        #: inst_name -> (in_idx, ...) for critical-path tracing.
        self.trace_inputs = {name: ins for name, ins, _ in self.steps}

    @cached_property
    def nominal(self):
        """:meth:`run` at the nominal supply, run on first read only."""
        return self.run()

    @layer("sta.run")
    def run(self, vdd=None):
        """Compute a :class:`TimingResult` at ``vdd`` (default nominal)."""
        lib = self.library
        vdd = lib.vdd_nom if vdd is None else vdd
        scale = lib.delay_scale(vdd)

        # arrivals[net idx] = (worst arrival, min arrival); trace[net idx]
        # = the (kind, name) that set the worst arrival.
        arrivals = {}
        trace = {}

        def arrive(idx, at, at_min, source):
            worst, best = arrivals.get(idx, (None, None))
            if worst is None or at > worst:
                trace[idx] = source
                worst = at
            best = at_min if best is None else min(best, at_min)
            arrivals[idx] = (worst, best)

        # Launch points.
        for idx, port_name in self.port_launches:
            arrive(idx, 0.0, 0.0, ("port", port_name))
        for idx, base, inst_name in self.seq_launches:
            c2q = base * scale
            arrive(idx, c2q, c2q, ("clk2q", inst_name))

        # Propagate through combinational logic.
        for inst_name, in_idxs, outs in self.steps:
            worst_in = 0.0
            best_in = None
            have_input = False
            for idx in in_idxs:
                entry = arrivals.get(idx)
                if entry is None:
                    continue  # undriven (lint catches it) or tie
                have_input = True
                worst_in = max(worst_in, entry[0])
                best_in = entry[1] if best_in is None \
                    else min(best_in, entry[1])
            for idx, base in outs:
                d = base * scale
                base_w = worst_in if have_input else 0.0
                base_b = best_in if (have_input and best_in is not None) \
                    else 0.0
                arrive(idx, base_w + d, base_b + d, ("cell", inst_name))

        # Capture points.
        eval_delay = 0.0
        min_path = float("inf")
        setup = 0.0
        hold = 0.0
        worst_capture = None
        for hold_nom, d_idx, setup_nom, inst_name in self.seq_captures:
            hold = max(hold, hold_nom * scale)
            if d_idx is None:
                continue
            entry = arrivals.get(d_idx)
            if entry is None:
                continue
            if entry[0] > eval_delay:
                eval_delay = entry[0]
                setup = setup_nom * scale
                worst_capture = ("{}/D".format(inst_name), d_idx)
            min_path = min(min_path, entry[1])
        for idx, port_name in self.port_captures:
            entry = arrivals.get(idx)
            if entry is None:
                continue
            if entry[0] > eval_delay:
                eval_delay = entry[0]
                setup = 0.0
                worst_capture = ("port {}".format(port_name), idx)
            min_path = min(min_path, entry[1])

        if worst_capture is None:
            raise TimingError(
                "module {} has no capture points".format(self.module_name)
            )
        if min_path == float("inf"):
            min_path = 0.0

        path = self._trace_path(worst_capture, arrivals, trace)
        return TimingResult(
            eval_delay=eval_delay,
            setup=setup,
            hold=hold,
            min_path_delay=min_path,
            critical_path=path,
            vdd=vdd,
        )

    def _trace_path(self, capture, arrivals, trace):
        name, net = capture
        points = []
        seen = set()
        while net is not None and net in trace and net not in seen:
            seen.add(net)
            kind, inst_name = trace[net]
            points.append((inst_name, self.net_names[net], arrivals[net][0]))
            if kind != "cell":
                break
            # Step to the worst input net of this instance.
            best = None
            for candidate in self.trace_inputs[inst_name]:
                entry = arrivals.get(candidate)
                if entry is None:
                    continue
                if best is None or entry[0] > arrivals[best][0]:
                    best = candidate
            net = best
        points.reverse()
        return TimingPath(
            delay=arrivals[capture[1]][0],
            points=points,
            capture=name,
        )


def timing_for(module, library):
    """The shared :class:`TimingAnalysis` of ``module`` under ``library``.

    The module's derived-analysis cache (see
    :meth:`repro.netlist.core.Module.derived`) holds the analysis
    weakly: callers share one lowering while anything (an artifact
    bundle, a transform in progress) still holds it, and a one-off
    analysis is freed with its caller, then lowered again on demand.
    """
    slot = module.derived(("timing", library), lambda m: [None])
    analysis = None if slot[0] is None else slot[0]()
    if analysis is None:
        analysis = TimingAnalysis(module, library)
        slot[0] = ref(analysis)
    return analysis
