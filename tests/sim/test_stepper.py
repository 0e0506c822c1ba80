"""Closed-loop reactive stepping (``ClosedLoopStepper`` / ``BusView``).

The stepper's contract is bit-identity with the event oracle
(:mod:`tests.sim.event`) driven through the same protocol -- every comparison here is exact (``==`` on
values and toggle counts, ``np.array_equal`` on state rows), never
approximate.
"""

import random

import numpy as np
import pytest

from repro.errors import NetlistError, SimulationError
from repro.sim.compiled import ClosedLoopStepper, bus_values, schedule_for
from repro.sim.logic import X

from .event import Simulator
from .test_compiled import build_gated_clock, build_latch, build_skew
from .testbench import read_bus


def event_state_row(sim, module):
    """The event simulator's settled values in ``module.nets()`` order."""
    snap = sim.state_snapshot()
    return np.asarray([snap[n.name] for n in module.nets()], dtype=np.int8)


def lockstep(module, input_frames, force=True):
    """Drive stepper and event sim through identical phases, comparing
    state and toggles after every phase."""
    stepper = schedule_for(module).stepper("clk")
    sim = Simulator(module)
    if force:
        stepper.force_flops(0)
        sim.force_flop_state(0)
    for frame in input_frames:
        stepper.apply(frame)
        sim.set_inputs(frame)
        assert np.array_equal(stepper.state_row(),
                              event_state_row(sim, module))
        stepper.posedge()
        sim.set_input("clk", 1)
        assert np.array_equal(stepper.state_row(),
                              event_state_row(sim, module))
        stepper.negedge()
        sim.set_input("clk", 0)
        assert np.array_equal(stepper.state_row(),
                              event_state_row(sim, module))
        assert stepper.toggle_snapshot() == sim.toggle_snapshot()
    return stepper, sim


class TestLockstepParity:
    def test_toy_design(self, toy_design):
        frames = [{"a": a, "b": b}
                  for a in (0, 1) for b in (0, 1)] + [{"a": 0, "b": 1}]
        lockstep(toy_design.top, frames)

    def test_mult16_random_operands(self, mult_module):
        rng = random.Random(2011)
        frames = [{**bus_values("a", 16, rng.getrandbits(16)),
                   **bus_values("b", 16, rng.getrandbits(16))}
                  for _ in range(8)]
        lockstep(mult_module, frames)

    def test_from_unknown_state(self, mult_module):
        """No flop forcing: X propagation matches phase by phase."""
        frames = [{**bus_values("a", 16, 3), **bus_values("b", 16, 5)}]
        lockstep(mult_module, frames, force=False)

    def test_partial_apply_and_skip(self, mult_module):
        """Re-applying unchanged values is a no-op (toggle counts and
        state untouched), like re-posting the same event."""
        stepper, sim = lockstep(
            mult_module,
            [{**bus_values("a", 16, 7), **bus_values("b", 16, 9)}])
        before = stepper.toggle_snapshot()
        stepper.apply(bus_values("a", 16, 7))  # unchanged
        assert stepper.toggle_snapshot() == before
        stepper.apply(bus_values("a", 16, 0xFFFF))
        sim.set_inputs(bus_values("a", 16, 0xFFFF))
        assert np.array_equal(stepper.state_row(),
                              event_state_row(sim, mult_module))
        assert stepper.toggle_snapshot() == sim.toggle_snapshot()


class TestCycleProtocol:
    def test_cycle_counts_and_matches_phases(self, toy_design):
        a = schedule_for(toy_design.top).stepper("clk")
        b = schedule_for(toy_design.top).stepper("clk")
        a.force_flops(0)
        b.force_flops(0)
        a.cycle({"a": 1, "b": 1})
        b.apply({"a": 1, "b": 1})
        b.posedge()
        b.negedge()
        assert a.cycles == 1
        assert np.array_equal(a.state_row(), b.state_row())
        assert a.toggle_snapshot() == b.toggle_snapshot()

    def test_clock_rejected_in_cycle_inputs(self, toy_design):
        stepper = schedule_for(toy_design.top).stepper("clk")
        with pytest.raises(SimulationError, match="posedge"):
            stepper.cycle({"clk": 1, "a": 0})

    def test_unknown_port_rejected(self, toy_design):
        stepper = schedule_for(toy_design.top).stepper("clk")
        with pytest.raises(SimulationError, match="no input port"):
            stepper.apply({"nope": 1})

    def test_record_toggles_off(self, toy_design):
        stepper = schedule_for(toy_design.top).stepper(
            "clk", record_toggles=False)
        stepper.force_flops(0)
        stepper.cycle({"a": 1, "b": 1})
        assert sum(stepper.toggle_snapshot().values()) == 0

    def test_reset_toggles(self, toy_design):
        stepper = schedule_for(toy_design.top).stepper("clk")
        stepper.force_flops(0)
        stepper.cycle({"a": 1, "b": 1})
        assert sum(stepper.toggle_snapshot().values()) > 0
        stepper.reset_toggles()
        assert sum(stepper.toggle_snapshot().values()) == 0


class TestAccessors:
    def test_value_and_flop_q(self, toy_design):
        stepper = schedule_for(toy_design.top).stepper("clk")
        sim = Simulator(toy_design.top)
        for s in (stepper,):
            s.force_flops(0)
        sim.force_flop_state(0)
        stepper.apply({"a": 1, "b": 1})
        sim.set_inputs({"a": 1, "b": 1})
        stepper.posedge()
        sim.set_input("clk", 1)
        assert stepper.flop_q("ff") == sim.flop_q("ff")
        for net in ("n1", "q", "y"):
            assert stepper.value(net) == sim.value(net)
        with pytest.raises(SimulationError, match="unknown flop"):
            stepper.flop_q("nope")

    def test_bus_views(self, mult_module):
        stepper = schedule_for(mult_module).stepper("clk")
        stepper.force_flops(0)
        a = stepper.input_bus("a", 16)
        p = stepper.output_bus("p", 32)
        a.drive(0x1234)
        assert a.read() == 0x1234
        stepper.apply(bus_values("b", 16, 3))
        stepper.posedge()
        stepper.negedge()
        stepper.posedge()
        stepper.negedge()
        sim = Simulator(mult_module)
        sim.force_flop_state(0)
        sim.set_inputs({**bus_values("a", 16, 0x1234),
                        **bus_values("b", 16, 3)})
        for _ in range(2):
            sim.set_input("clk", 1)
            sim.set_input("clk", 0)
        assert p.read() == read_bus(sim, "p", 32)

    def test_bus_view_x_reads_none(self, mult_module):
        stepper = schedule_for(mult_module).stepper("clk")
        # Flops unforced: the product is X, like read_bus -> None.
        assert stepper.output_bus("p", 32).read() is None

    def test_readonly_bus_rejects_drive(self, mult_module):
        stepper = schedule_for(mult_module).stepper("clk")
        with pytest.raises(SimulationError, match="read-only"):
            stepper.output_bus("p", 32).drive(1)

    def test_missing_bus_bit_reported(self, mult_module):
        stepper = schedule_for(mult_module).stepper("clk")
        with pytest.raises(SimulationError, match="a_16"):
            stepper.input_bus("a", 17)


class TestEligibility:
    def test_gated_clock_rejected(self, lib):
        """Kept name: a gated clock steps, phase for phase like the
        oracle -- an enable edge while the clock is high clocks the
        flop in an apply phase."""
        frames = [{"en": 1, "d": 1}, {"en": 0, "d": 0}, {"en": 1, "d": 0},
                  {"en": 0, "d": 1}, {"en": 1, "d": 1}]
        stepper, _ = lockstep(build_gated_clock(lib), frames)
        assert isinstance(stepper, ClosedLoopStepper)

    def test_clock_skew_lockstep(self, lib):
        stepper, _ = lockstep(build_skew(lib), [{}] * 4)
        # The first edge rises from X and clocks nothing; the other three
        # each pulse y.
        assert stepper.toggle_snapshot()["y"] == 6

    def test_feedback_raises(self, lib):
        with pytest.raises(NetlistError, match="combinational loop"):
            schedule_for(build_latch(lib)).stepper("clk")

    def test_missing_clock_rejected(self, mult_module):
        with pytest.raises(SimulationError):
            schedule_for(mult_module).stepper("no_such_clock")
