"""Clocked testbench harness."""

import pytest

from repro.errors import SimulationError
from repro.sim.compiled import bus_values

from .testbench import ClockedTestbench, drive_bus, read_bus


class TestHelpers:
    def test_bus_values(self):
        assert bus_values("a", 4, 0b1010) == {
            "a_0": 0, "a_1": 1, "a_2": 0, "a_3": 1}

    def test_drive_and_read(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        drive_bus(tb, "a", 16, 1234)
        drive_bus(tb.sim, "b", 16, 2)
        tb.cycle()
        tb.cycle()
        assert read_bus(tb.sim, "p", 32) == 2468

    def test_read_bus_returns_none_on_x(self, mult_module):
        tb = ClockedTestbench(mult_module)  # flops uninitialised
        assert read_bus(tb.sim, "p", 32) is None


class TestTestbench:
    def test_requires_clock_port(self, lib):
        from repro.circuits.multiplier import build_mult16

        comb = build_mult16(lib, registered=False)
        with pytest.raises(SimulationError):
            ClockedTestbench(comb)

    def test_cycle_counting(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        tb.run([{}, {}, {}])
        assert tb.cycles == 3

    def test_apply_rejects_clock(self, mult_module):
        tb = ClockedTestbench(mult_module)
        with pytest.raises(SimulationError):
            tb.apply({"clk": 1})

    def test_toggles_per_cycle(self, mult_module):
        import random

        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        rng = random.Random(0)
        for _ in range(10):
            tb.cycle({**bus_values("a", 16, rng.getrandbits(16)),
                      **bus_values("b", 16, rng.getrandbits(16))})
        assert tb.toggles_per_cycle() > 100  # busy datapath

    def test_zero_cycles(self, mult_module):
        tb = ClockedTestbench(mult_module)
        assert tb.toggles_per_cycle() == 0.0
