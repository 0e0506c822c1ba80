"""Randomised ISS-vs-gate-level equivalence (the strongest evidence that
M0-lite is a faithful workload vehicle).

A random-program generator emits structurally valid code (bounded loops
via counted conditional branches, aligned memory traffic in a small
window) and hypothesis drives it through both models.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.encoding import Funct
from repro.isa.trace import cosimulate


def _random_program(rng, length=30):
    """A linear random program: ALU soup + memory ops + a counted loop."""
    lines = []
    # Seed registers with interesting values.
    for r in range(1, 6):
        lines.append("movi r{}, #{}".format(r, rng.randrange(256)))
        if rng.random() < 0.5:
            lines.append("addi r{}, #{}".format(r, rng.randrange(-128, 128)))
    # r10 = memory base (aligned, small).
    lines.append("movi r10, #64")

    alu_ops = [f.name.lower() for f in Funct]
    for _ in range(length):
        choice = rng.random()
        rd = rng.randrange(1, 8)
        rs = rng.randrange(1, 8)
        if choice < 0.55:
            lines.append("{} r{}, r{}".format(rng.choice(alu_ops), rd, rs))
        elif choice < 0.7:
            lines.append("movi r{}, #{}".format(rd, rng.randrange(256)))
        elif choice < 0.85:
            off = 4 * rng.randrange(8)
            lines.append("str r{}, [r10, #{}]".format(rd, off))
        else:
            off = 4 * rng.randrange(8)
            lines.append("ldr r{}, [r10, #{}]".format(rd, off))
    # A counted loop with a conditional branch (always terminates: the
    # decrement is the last flag-setting instruction before the branch).
    lines.append("movi r9, #{}".format(rng.randrange(1, 6)))
    lines.append("loop:")
    lines.append("add r1, r2")
    lines.append("addi r9, #-1")
    lines.append("bne loop")
    lines.append("halt")
    return "\n".join(lines)


class TestRandomCosim:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 10_000))
    def test_random_programs_match(self, m0_module, seed):
        rng = random.Random(seed)
        program = assemble(_random_program(rng))
        result = cosimulate(m0_module, program, max_cycles=20_000)
        assert result.ok, (seed, result.mismatches[:5])

    def test_long_soak(self, m0_module):
        """One longer soak with a fixed seed (regression anchor)."""
        rng = random.Random(20110314)  # DATE 2011 ;-)
        program = assemble(_random_program(rng, length=120))
        result = cosimulate(m0_module, program, max_cycles=40_000)
        assert result.ok, result.mismatches[:5]
        assert result.instructions > 100


class TestEngineDifferential:
    """The compiled closed-loop engine against the event oracle: same
    random programs, bit-identical execution -- cycle counts, register
    files, data memory, and the grouped toggle trace."""

    @staticmethod
    def _assert_engines_match(m0_module, program, seed=None):
        from repro.isa.trace import GateLevelCpu

        from ..sim.testbench import EventCpu

        ev = EventCpu(m0_module, program)
        cp = GateLevelCpu(m0_module, program)
        ev.run(max_cycles=20_000)
        cp.run(max_cycles=20_000)
        assert ev.cycles == cp.cycles, seed
        assert ev.registers() == cp.registers(), seed
        assert ev.memory == cp.memory, seed
        assert ev.toggle_snapshot() == cp.toggle_snapshot(), seed
        te, tc = ev.activity_trace(), cp.activity_trace()
        assert len(te.groups) == len(tc.groups), seed
        for a, b in zip(te.groups, tc.groups):
            assert (a.index, a.cycles, a.total_toggles, a.nets,
                    a.toggles) == \
                   (b.index, b.cycles, b.total_toggles, b.nets,
                    b.toggles), seed

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 10_000))
    def test_random_programs_bit_identical(self, m0_module, seed):
        rng = random.Random(seed)
        program = assemble(_random_program(rng, length=20))
        self._assert_engines_match(m0_module, program, seed)

    def test_soak_bit_identical(self, m0_module):
        rng = random.Random(20110314)
        program = assemble(_random_program(rng, length=60))
        self._assert_engines_match(m0_module, program)
