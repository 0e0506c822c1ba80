"""Adder generators, verified against Python integers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.adders import (
    carry_select_adder,
    ripple_adder,
    ripple_incrementer,
    subtractor,
)
from repro.circuits.builder import new_module
from repro.errors import NetlistError

from ..sim.event import Simulator
from ..sim.testbench import read_bus


def _build_adder(lib, kind, width=8, **kwargs):
    module, b = new_module("dut", lib)
    xs = b.input_bus("x", width)
    ys = b.input_bus("y", width)
    out = b.output_bus("s", width)
    cout = module.add_output("co")
    builders = {
        "ripple": ripple_adder,
        "select": carry_select_adder,
        "sub": subtractor,
    }
    sums, carry = builders[kind](b, xs, ys, **kwargs)
    for s, o in zip(sums, out):
        b.buf(s, y=o)
    b.buf(carry, y=cout)
    return module


def _drive(sim, name, width, value):
    sim.set_inputs(
        {"{}_{}".format(name, i): (value >> i) & 1 for i in range(width)})


class TestRippleAdder:
    @pytest.mark.parametrize("x,y", [
        (0, 0), (1, 1), (255, 1), (200, 100), (127, 128), (255, 255)])
    def test_cases(self, lib, x, y):
        sim = Simulator(_build_adder(lib, "ripple"))
        _drive(sim, "x", 8, x)
        _drive(sim, "y", 8, y)
        total = x + y
        assert read_bus(sim, "s", 8) == total & 0xFF
        assert sim.value("co") == total >> 8

    def test_width_mismatch(self, lib):
        module, b = new_module("bad", lib)
        xs = b.input_bus("x", 4)
        ys = b.input_bus("y", 5)
        with pytest.raises(NetlistError):
            ripple_adder(b, xs, ys)

    def test_decomposed_variant_matches(self, lib):
        sim = Simulator(_build_adder(lib, "ripple", use_compound=False))
        _drive(sim, "x", 8, 173)
        _drive(sim, "y", 8, 99)
        assert read_bus(sim, "s", 8) == (173 + 99) & 0xFF

    def test_decomposed_has_no_fa_cells(self, lib):
        from repro.netlist.stats import module_stats

        module = _build_adder(lib, "ripple", use_compound=False)
        assert module_stats(module).by_cell.get("FA_X1", 0) == 0


class TestCarrySelect:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_matches_python(self, lib, x, y):
        sim = Simulator(_build_adder(lib, "select", width=16, block=4))
        _drive(sim, "x", 16, x)
        _drive(sim, "y", 16, y)
        total = x + y
        assert read_bus(sim, "s", 16) == total & 0xFFFF
        assert sim.value("co") == total >> 16

    def test_shallower_than_ripple(self, lib):
        from repro.netlist.traverse import levelize

        rip = _build_adder(lib, "ripple", width=32)
        sel = _build_adder(lib, "select", width=32, block=8)
        assert max(levelize(sel).values()) < max(levelize(rip).values())


class TestSubtractor:
    @pytest.mark.parametrize("x,y", [(5, 3), (3, 5), (0, 0), (255, 255),
                                     (0, 1), (200, 200)])
    def test_difference_and_borrow(self, lib, x, y):
        sim = Simulator(_build_adder(lib, "sub"))
        _drive(sim, "x", 8, x)
        _drive(sim, "y", 8, y)
        assert read_bus(sim, "s", 8) == (x - y) & 0xFF
        # carry-out = 1 means no borrow (x >= y unsigned)
        assert sim.value("co") == (1 if x >= y else 0)


class TestIncrementer:
    @pytest.mark.parametrize("value,step_bit", [
        (0, 0), (7, 0), (255, 0), (0, 1), (6, 1), (254, 1)])
    def test_increment(self, lib, value, step_bit):
        module, b = new_module("inc", lib)
        xs = b.input_bus("x", 8)
        out = b.output_bus("s", 8)
        sums, _carry = ripple_incrementer(b, xs, step_bit=step_bit)
        for s, o in zip(sums, out):
            b.buf(s, y=o)
        sim = Simulator(module)
        _drive(sim, "x", 8, value)
        assert read_bus(sim, "s", 8) == (value + (1 << step_bit)) & 0xFF
