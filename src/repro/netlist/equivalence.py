"""Simulation-based equivalence checking between two netlists.

Used wherever the flow rewrites a netlist -- logic optimisation, fan-out
repair, the SCPG transform, Verilog round-trips -- to certify that the
rewrite preserved behaviour.  Two strategies:

* **exhaustive** for combinational designs with few enough inputs: every
  input vector is applied to both sides;
* **randomised** otherwise: matched random vector streams (with a clocked
  protocol when the design has the named clock input), comparing every
  output each cycle.

Both sides simulate on the levelized engine (:mod:`repro.sim.compiled`):
a combinational check is one batched evaluation per side, a clocked one a
:class:`~repro.sim.compiled.ClosedLoopStepper` per side.

This is a miniature "logic equivalence check" (LEC) in the simulation
style; it cannot *prove* equivalence for large designs, but with a few
hundred vectors over a datapath it is a strong regression oracle, and the
report says exactly which output diverged first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError
from ..sim.compiled import schedule_for
from ..sim.logic import X

#: Input counts up to this get exhaustive checking.
EXHAUSTIVE_LIMIT = 12


@dataclass
class EquivalenceReport:
    """Outcome of :func:`check_equivalence`."""

    equivalent: bool
    vectors: int
    mode: str                      # "exhaustive" | "random"
    mismatches: list = field(default_factory=list)

    def __bool__(self):
        return self.equivalent

    def __str__(self):
        status = "EQUIVALENT" if self.equivalent else "DIFFERENT"
        lines = ["{} after {} {} vectors".format(
            status, self.vectors, self.mode)]
        lines += ["  " + m for m in self.mismatches[:5]]
        return "\n".join(lines)


def _port_signature(module):
    ins = tuple(sorted(p.name for p in module.input_ports()))
    outs = tuple(sorted(p.name for p in module.output_ports()))
    return ins, outs


def _fmt(value):
    return "X" if value == X else int(value)


def _evaluate(module, names, points, outs):
    """``module``'s ``outs`` over input ``points`` whose columns are
    ``names`` -- reordered to the module's own port declaration order."""
    schedule = schedule_for(module)
    schedule.require()
    order = [names.index(name) for name in schedule.soa.input_ports]
    got = schedule.evaluate(points[:, order])
    cols = list(schedule.soa.output_ports)
    return got[:, [cols.index(name) for name in outs]]


def check_equivalence(golden, revised, vectors=256, clock=None, seed=0,
                      max_mismatches=5):
    """Compare two flat modules with identical port lists.

    Parameters
    ----------
    golden / revised:
        Flat modules (library cells only).  A netlist without a
        levelized schedule (a combinational loop) raises its
        :class:`~repro.errors.NetlistError`.
    vectors:
        Random vectors to apply (ignored when exhaustive checking fits).
    clock:
        Name of the clock input for sequential designs; ``None`` treats
        the design as combinational.  With a clock, both sides start from
        all-zero flop state and step cycle by cycle.
    """
    g_sig = _port_signature(golden)
    r_sig = _port_signature(revised)
    if g_sig != r_sig:
        raise NetlistError(
            "port lists differ: {} vs {}".format(g_sig, r_sig))
    ins, outs = g_sig
    data_ins = [p for p in ins if p != clock]

    if clock is None and len(data_ins) <= EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        count = 1 << len(data_ins)
        points = (np.arange(count)[:, np.newaxis]
                  >> np.arange(len(data_ins))) & 1
        label = "vector {:#x}".format
    else:
        mode = "random"
        rng = random.Random(seed)
        count = vectors
        points = np.asarray(
            [[rng.getrandbits(1) for _ in data_ins] for _ in range(count)])
        label = "cycle {}".format
    points = points.astype(np.int8).reshape(count, len(data_ins))

    if clock is None:
        tables = [_evaluate(m, data_ins, points, outs)
                  for m in (golden, revised)]

        def outputs(k):
            return [table[k] for table in tables]
    else:
        steppers = []
        for module in (golden, revised):
            stepper = schedule_for(module).stepper(
                clock, record_toggles=False)
            stepper.force_flops(0)
            stepper.negedge()
            steppers.append(stepper)
        out_idx = [[st.soa.net_index[name] for name in outs]
                   for st in steppers]

        def outputs(k):
            vec = dict(zip(data_ins, points[k].tolist()))
            for st in steppers:
                st.cycle(vec)
            return [st.state_row()[idx]
                    for st, idx in zip(steppers, out_idx)]

    mismatches = []
    applied = 0
    for k in range(count):
        applied += 1
        for out, a, b in zip(outs, *outputs(k)):
            if a != b:
                mismatches.append("{}: golden={} revised={} at {}".format(
                    out, _fmt(a), _fmt(b), label(k)))
        if len(mismatches) >= max_mismatches:
            break

    return EquivalenceReport(
        equivalent=not mismatches,
        vectors=applied,
        mode=mode,
        mismatches=mismatches,
    )
