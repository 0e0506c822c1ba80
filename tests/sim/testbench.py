"""Clocked harnesses over the event-driven oracle (:mod:`tests.sim.event`).

Drives a standard cycle protocol: inputs change while the clock is low, a
rising edge captures flip-flops, the high phase completes, then the clock
falls.  Besides the testbench and bus helpers this holds the event-engine
twins of the library's simulation entry points, for the parity tests:

* :func:`event_run` -- :meth:`repro.sim.compiled.CompiledSchedule.run_vectors`;
* :class:`EventCpu` -- :class:`repro.isa.trace.GateLevelCpu`;
* :func:`event_cosimulate` -- :func:`repro.isa.trace.cosimulate`.

::

    tb = ClockedTestbench(module, clock="clk")
    tb.reset_flops()
    tb.cycle({"a_0": 1, "a_1": 0})
    product = read_bus(tb.sim, "p", 32)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IsaError, SimulationError
from repro.isa.encoding import MASK32
from repro.sim.activity import ActivityTrace, GroupActivity
from repro.sim.compiled import CompiledRun
from repro.sim.logic import X

from .event import Simulator


def drive_bus(sim_or_tb, name, width, value):
    """Drive the bit-blasted bus ``name_0..name_{width-1}`` with ``value``."""
    sim = sim_or_tb.sim if isinstance(sim_or_tb, ClockedTestbench) \
        else sim_or_tb
    sim.set_inputs(
        {"{}_{}".format(name, i): (value >> i) & 1 for i in range(width)}
    )


def read_bus(sim, name, width):
    """Read a bus as an int; returns ``None`` if any bit is X."""
    out = 0
    for i in range(width):
        v = sim.value("{}_{}".format(name, i))
        if v == X:
            return None
        out |= v << i
    return out


class ClockedTestbench:
    """Cycle-level driver for a flat module with a single clock input."""

    def __init__(self, module, clock="clk", record_toggles=True):
        self.sim = Simulator(module, record_toggles=record_toggles)
        self.clock = clock
        if clock not in [p.name for p in module.input_ports()]:
            raise SimulationError(
                "module {} has no clock input {}".format(module.name, clock)
            )
        self.cycles = 0
        self.sim.set_input(clock, 0)

    def reset_flops(self, value=0):
        """Force all flip-flops to a known state (posedge-free init)."""
        self.sim.force_flop_state(value)

    def apply(self, inputs):
        """Change inputs during the low phase (no clock edge)."""
        if self.clock in inputs:
            raise SimulationError("drive the clock via cycle(), not apply()")
        self.sim.set_inputs(inputs)

    def posedge(self):
        """Raise the clock (captures flip-flops)."""
        self.sim.set_input(self.clock, 1)

    def negedge(self):
        """Lower the clock."""
        self.sim.set_input(self.clock, 0)

    def cycle(self, inputs=None):
        """One full clock cycle: apply ``inputs``, rising edge, falling edge."""
        if inputs:
            self.apply(inputs)
        self.posedge()
        self.negedge()
        self.cycles += 1

    def run(self, vectors):
        """Run a sequence of input dicts, one per cycle."""
        for vec in vectors:
            self.cycle(vec)

    def toggles_per_cycle(self):
        """Average net toggles per executed cycle (activity metric)."""
        if self.cycles == 0:
            return 0.0
        return self.sim.total_toggles() / self.cycles


class GroupRecorder:
    """Incrementally collect toggle counts into fixed-size cycle groups."""

    def __init__(self, sim, group_size=10):
        self.sim = sim
        self.group_size = group_size
        self.trace = ActivityTrace()
        self._cycles_in_group = 0
        self._base = dict(sim.toggle_snapshot())
        self._nets = len([n for n in sim.module.nets() if not n.is_const])

    def after_cycle(self):
        """Call once per simulated cycle."""
        self._cycles_in_group += 1
        if self._cycles_in_group >= self.group_size:
            self.flush()

    def flush(self):
        """Close the current group (no-op when empty)."""
        if self._cycles_in_group == 0:
            return
        snap = self.sim.toggle_snapshot()
        deltas = {
            name: snap[name] - self._base.get(name, 0)
            for name in snap
            if snap[name] != self._base.get(name, 0)
        }
        self.trace.groups.append(
            GroupActivity(
                index=len(self.trace.groups),
                cycles=self._cycles_in_group,
                total_toggles=sum(deltas.values()),
                nets=self._nets,
                toggles=deltas,
            )
        )
        self._base = snap
        self._cycles_in_group = 0


def event_run(module, vectors, clock="clk", reset=0, group_size=None):
    """``run_vectors`` on the event oracle: the same protocol and the
    same :class:`~repro.sim.compiled.CompiledRun` fields (no toggle
    matrix)."""
    tb = ClockedTestbench(module, clock=clock)
    tb.reset_flops(reset)
    recorder = None if group_size is None \
        else GroupRecorder(tb.sim, group_size)
    for vec in vectors:
        tb.cycle(vec)
        if recorder is not None:
            recorder.after_cycle()
    if recorder is not None:
        recorder.flush()
    return CompiledRun(
        cycles=tb.cycles,
        toggles=tb.sim.toggle_snapshot(),
        trace=None if recorder is None else recorder.trace,
        final_values={net.name: tb.sim.value(net.name)
                      for net in module.nets()},
    )


class EventCpu:
    """:class:`~repro.isa.trace.GateLevelCpu`'s memory protocol on the
    event oracle: the same reset, feeds, stores, groups and state trace,
    one event-driven cycle at a time."""

    _extra_reset_inputs = {}

    def __init__(self, module, program, memory=None, group_size=10,
                 record_toggles=True, record_states=False):
        self.module = module
        self.program = list(program)
        self.memory = dict(memory or {})
        self.cycles = 0
        self.group_size = group_size
        self._record_states = record_states
        self._states = []
        self.state_net_names = [n.name for n in module.nets()]
        self.sim = Simulator(module, record_toggles=record_toggles)
        self.recorder = GroupRecorder(self.sim, group_size)
        self._reset()

    def _reset(self):
        sim = self.sim
        sim.force_flop_state(0)
        sim.set_inputs({"clk": 0, "rstn": 0, **self._extra_reset_inputs})
        self._feed_memories()
        sim.set_input("clk", 1)
        sim.set_input("clk", 0)
        sim.set_input("rstn", 1)
        self._feed_memories()
        sim.reset_toggles()

    def _feed_memories(self):
        sim = self.sim
        iaddr = read_bus(sim, "iaddr", 32)
        word = 0x7000  # NOP on X/out-of-range address
        if iaddr is not None and iaddr < len(self.program):
            word = self.program[iaddr]
        drive_bus(sim, "idata", 16, word)
        daddr = read_bus(sim, "daddr", 32)
        data = 0
        if daddr is not None:
            data = self.memory.get(daddr & ~3 & MASK32, 0)
        drive_bus(sim, "drdata", 32, data)

    def step(self):
        sim = self.sim
        if sim.value("dwrite") == 1:
            addr = read_bus(sim, "daddr", 32)
            data = read_bus(sim, "dwdata", 32)
            if addr is None or data is None:
                raise SimulationError("store with X address or data")
            if addr % 4:
                raise IsaError(
                    "unaligned gate-level store at {:#x}".format(addr))
            self.memory[addr] = data
        sim.set_input("clk", 1)
        sim.set_input("clk", 0)
        self._feed_memories()
        self.cycles += 1
        self.recorder.after_cycle()
        if self._record_states:
            snap = self.sim.state_snapshot()
            self._states.append([snap[name]
                                 for name in self.state_net_names])

    def run(self, max_cycles=100_000):
        start = self.cycles
        while not self.halted:
            if self.cycles - start >= max_cycles:
                raise SimulationError(
                    "core did not halt in {} cycles".format(max_cycles))
            self.step()
        self.recorder.flush()
        return self.cycles - start

    @property
    def halted(self):
        return self.sim.value("halted") == 1

    def register(self, index):
        value = 0
        for bit in range(32):
            v = self.sim.flop_q("rf{}_{}".format(index, bit))
            if v == X:
                return None
            value |= v << bit
        return value

    def registers(self):
        return [self.register(i) for i in range(16)]

    def activity_trace(self):
        self.recorder.flush()
        return self.recorder.trace

    def toggle_snapshot(self):
        return self.sim.toggle_snapshot()

    def value(self, net_name):
        return self.sim.value(net_name)

    def state_trace(self):
        return np.asarray(self._states, dtype=np.int8).reshape(
            len(self._states), len(self.state_net_names))


def event_cosimulate(*args, **kwargs):
    """:func:`repro.isa.trace.cosimulate` with its gate-level side on
    :class:`EventCpu`."""
    from repro.isa import trace

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "GateLevelCpu", EventCpu)
        return trace.cosimulate(*args, **kwargs)
