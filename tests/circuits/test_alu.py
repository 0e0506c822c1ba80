"""The M0-lite ALU, against Python reference semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.alu import ALU_OPS, build_alu, lower_half_multiplier
from repro.circuits.builder import new_module
from repro.sim.compiled import bus_values

from ..sim.event import Simulator
from ..sim.testbench import read_bus


MASK = 0xFFFFFFFF


def _signed(v):
    return v - (1 << 32) if v & 0x80000000 else v


def _reference(op, a, b):
    sh = b & 31
    return {
        "add": (a + b) & MASK,
        "sub": (a - b) & MASK,
        "and": a & b,
        "or": a | b,
        "xor": a ^ b,
        "lsr": a >> sh,
        "lsl": (a << sh) & MASK,
        "asr": (_signed(a) >> sh) & MASK,
        "mul": (a * b) & MASK,
        "mvn": (~b) & MASK,
    }[op]


@pytest.fixture(scope="module")
def alu_sim(lib):
    return Simulator(build_alu(lib))


def _apply(sim, op, a, b):
    line = {"lsl": "shift", "lsr": "shift", "asr": "shift"}.get(op, op)
    sim.set_inputs({
        **bus_values("a", 32, a),
        **bus_values("b", 32, b),
        **bus_values("shamt", 5, b & 31),
        **{"op_" + o: (1 if o == line else 0) for o in ALU_OPS},
        "shift_left": 1 if op == "lsl" else 0,
        "shift_arith": 1 if op == "asr" else 0,
    })


ALL_OPS = ["add", "sub", "and", "or", "xor", "lsl", "lsr", "asr", "mul",
           "mvn"]


class TestOperations:
    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("a,b", [
        (0, 0), (1, 1), (MASK, 1), (0x80000000, 0x80000000),
        (0xDEADBEEF, 0x12345678), (5, 31),
    ])
    def test_corner_cases(self, alu_sim, op, a, b):
        _apply(alu_sim, op, a, b)
        assert read_bus(alu_sim, "y", 32) == _reference(op, a, b), (op, a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(ALL_OPS),
           st.integers(0, MASK), st.integers(0, MASK))
    def test_random(self, alu_sim, op, a, b):
        _apply(alu_sim, op, a, b)
        assert read_bus(alu_sim, "y", 32) == _reference(op, a, b)


class TestFlags:
    def test_zero_flag(self, alu_sim):
        _apply(alu_sim, "sub", 77, 77)
        assert alu_sim.value("fz") == 1
        assert alu_sim.value("fn") == 0

    def test_negative_flag(self, alu_sim):
        _apply(alu_sim, "sub", 3, 5)
        assert alu_sim.value("fn") == 1
        assert alu_sim.value("fz") == 0

    def test_carry_is_not_borrow(self, alu_sim):
        _apply(alu_sim, "sub", 9, 3)
        assert alu_sim.value("fc") == 1   # no borrow
        _apply(alu_sim, "sub", 3, 9)
        assert alu_sim.value("fc") == 0   # borrow

    def test_add_carry_out(self, alu_sim):
        _apply(alu_sim, "add", MASK, 1)
        assert alu_sim.value("fc") == 1
        assert alu_sim.value("fz") == 1

    def test_signed_overflow(self, alu_sim):
        _apply(alu_sim, "add", 0x7FFFFFFF, 1)      # max_int + 1
        assert alu_sim.value("fv") == 1
        _apply(alu_sim, "sub", 0x80000000, 1)      # min_int - 1
        assert alu_sim.value("fv") == 1
        _apply(alu_sim, "add", 5, 6)
        assert alu_sim.value("fv") == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, MASK), st.integers(0, MASK))
    def test_sub_flags_match_arm_semantics(self, alu_sim, a, b):
        _apply(alu_sim, "sub", a, b)
        res = (a - b) & MASK
        assert alu_sim.value("fz") == (1 if res == 0 else 0)
        assert alu_sim.value("fn") == (res >> 31)
        assert alu_sim.value("fc") == (1 if a >= b else 0)


class TestLowerHalfMultiplier:
    @pytest.mark.parametrize("width", [4, 8])
    def test_exhaustive_small(self, lib, width):
        module, b = new_module("lmul", lib)
        xs = b.input_bus("x", width)
        ys = b.input_bus("y", width)
        out = b.output_bus("p", width)
        prod = lower_half_multiplier(b, xs, ys)
        for s, o in zip(prod, out):
            b.buf(s, y=o)
        sim = Simulator(module)
        step = 1 if width <= 4 else 23
        for x in range(0, 1 << width, step):
            for y in range(0, 1 << width, step):
                sim.set_inputs({
                    **bus_values("x", width, x),
                    **bus_values("y", width, y),
                })
                assert read_bus(sim, "p", width) == \
                    (x * y) & ((1 << width) - 1)
