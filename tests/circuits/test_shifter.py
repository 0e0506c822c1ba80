"""Barrel shifter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.shifter import build_barrel_shifter
from repro.sim.compiled import bus_values

from ..sim.event import Simulator
from ..sim.testbench import read_bus


MASK = 0xFFFFFFFF


def _signed(v):
    return v - (1 << 32) if v & 0x80000000 else v


@pytest.fixture(scope="module")
def shifter(lib):
    return Simulator(build_barrel_shifter(lib))


def _apply(sim, value, amount, left=0, arith=0):
    sim.set_inputs({
        **bus_values("d", 32, value),
        **bus_values("amt", 5, amount),
        "left": left,
        "arith": arith,
    })
    return read_bus(sim, "y", 32)


class TestShifts:
    @pytest.mark.parametrize("amount", [0, 1, 5, 16, 31])
    def test_lsr(self, shifter, amount):
        assert _apply(shifter, 0xDEADBEEF, amount) == 0xDEADBEEF >> amount

    @pytest.mark.parametrize("amount", [0, 1, 5, 16, 31])
    def test_lsl(self, shifter, amount):
        assert _apply(shifter, 0xDEADBEEF, amount, left=1) == \
            (0xDEADBEEF << amount) & MASK

    @pytest.mark.parametrize("amount", [0, 1, 8, 31])
    def test_asr_negative(self, shifter, amount):
        value = 0x80000001
        assert _apply(shifter, value, amount, arith=1) == \
            (_signed(value) >> amount) & MASK

    def test_asr_positive_is_lsr(self, shifter):
        assert _apply(shifter, 0x40000000, 4, arith=1) == 0x04000000

    def test_left_ignores_arith(self, shifter):
        """LSL with arith set must not sign-fill."""
        assert _apply(shifter, 0x80000001, 1, left=1, arith=1) == \
            0x00000002

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, MASK), st.integers(0, 31),
           st.booleans(), st.booleans())
    def test_random(self, shifter, value, amount, left, arith):
        got = _apply(shifter, value, amount, int(left), int(arith))
        if left:
            expected = (value << amount) & MASK
        elif arith:
            expected = (_signed(value) >> amount) & MASK
        else:
            expected = value >> amount
        assert got == expected


class TestOtherWidths:
    def test_width_8(self, lib):
        sim = Simulator(build_barrel_shifter(lib, width=8))
        sim.set_inputs({
            **bus_values("d", 8, 0b10110001),
            **bus_values("amt", 3, 3),
            "left": 0, "arith": 0,
        })
        assert read_bus(sim, "y", 8) == 0b10110001 >> 3
