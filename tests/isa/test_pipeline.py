"""The pipeline model as a per-cycle oracle for the gate-level M0-lite.

:class:`~repro.isa.pipeline.PipelineModel` predicts every flop of the
core, the memory words fed to it and the store it commits, cycle by
cycle.  Stepping the netlist and the model in lock-step and comparing
them before every cycle turns the end-state ISS check of
``cosimulate`` into a per-cycle one -- and is exactly the property the
batched ``GateLevelCpu.run`` relies on for its speed.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.pipeline import (
    FIELDS,
    FlopLayout,
    PipelineModel,
    decode_stage,
    execute_stage,
)
from repro.isa.programs import (
    crc32_program,
    dhrystone_memory,
    dhrystone_program,
    fir_program,
)
from repro.isa.trace import GateLevelCpu
from repro.sim.compiled import schedule_for
from repro.sim.logic import X

from ..integration.test_cosim_random import _random_program

NAMES = [stem for stem, _width in FIELDS]


class _ScpgGateLevelCpu(GateLevelCpu):
    """The SCPG core with its override held inactive."""

    _extra_reset_inputs = {"override_n": 1}


def _model(gate):
    """A model of ``gate``'s current state (compiled engine)."""
    values = gate._layout.pack(gate._stepper.state_row())
    assert values is not None
    return PipelineModel(gate.program, gate.memory, values,
                         gate._idata.read(), gate._drdata.read(),
                         gate.cycles)


def _netlist_store(gate):
    if gate.value("dwrite") != 1:
        return None
    return gate._daddr.read(), gate._dwdata.read()


def _lockstep(gate, max_cycles=20_000):
    """Step ``gate`` to HALT, checking the model against the netlist
    before every cycle; returns the cycles stepped."""
    model = _model(gate)
    start = gate.cycles
    while not gate.halted:
        assert gate.cycles - start < max_cycles
        actual = gate._layout.pack(gate._stepper.state_row())
        predicted = list(model.row())
        wrong = [name for name, p, a in zip(NAMES, predicted, actual)
                 if p != a]
        assert not wrong, (gate.cycles, wrong)
        assert (model.idata, model.drdata) == \
            (gate._idata.read(), gate._drdata.read()), gate.cycles
        assert model.store() == _netlist_store(gate), gate.cycles
        gate.step()
        model.advance()
    assert model.halted
    assert list(model.row()) == gate._layout.pack(gate._stepper.state_row())
    assert model.memory == gate.memory
    return gate.cycles - start


class TestOracle:
    def test_dhrystone(self, m0_module):
        gate = GateLevelCpu(m0_module, dhrystone_program(2),
                            dhrystone_memory())
        assert _lockstep(gate) > 100

    def test_crc32(self, m0_module):
        gate = GateLevelCpu(m0_module, crc32_program(2), dhrystone_memory())
        assert _lockstep(gate) > 100

    def test_fir(self, m0_module):
        gate = GateLevelCpu(m0_module, fir_program(4))
        assert _lockstep(gate) > 100

    def test_scpg_core(self, m0_study):
        """Same flop names after the SCPG transform, same trajectory."""
        gate = _ScpgGateLevelCpu(m0_study.scpg.flat.top,
                                 dhrystone_program(2), dhrystone_memory())
        assert gate._layout is not None
        assert _lockstep(gate) > 100

    def test_starts_after_any_number_of_steps(self, m0_module):
        gate = GateLevelCpu(m0_module, crc32_program(1), dhrystone_memory())
        for _ in range(7):
            gate.step()
        assert _lockstep(gate) > 50

    def test_undefined_encodings_follow_the_gates(self, m0_module):
        """Opcodes 8-15 and ALU functs above CMP are not ISA
        instructions, but the decode logic still does something with
        them; the model decodes like the gates, never like the ISS."""
        words = assemble("movi r1, #4\nmovi r2, #8")
        words += [0x8123, 0x2C12, 0xF0F0, 0x2F21]
        words += assemble("str r2, [r1, #0]\nhalt")
        for word in (0x8123, 0x2C12, 0xF0F0, 0x2F21):
            decode_stage(word)      # never raises
        gate = GateLevelCpu(m0_module, words)
        assert _lockstep(gate) > 6

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 10_000))
    def test_random_programs(self, m0_module, seed):
        program = assemble(_random_program(random.Random(seed), length=20))
        _lockstep(GateLevelCpu(m0_module, program))


class TestLayout:
    def test_maps_every_flop(self, m0_module):
        layout = FlopLayout(schedule_for(m0_module).soa)
        assert len(layout.q_cols) == 694
        assert len(set(layout.q_cols.tolist())) == 694

    def test_rejects_other_cores(self, mult_module):
        assert FlopLayout.for_soa(schedule_for(mult_module).soa) is None

    def test_x_flop_means_no_prediction(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("halt"))
        row = gate._stepper.state_row()
        assert gate._layout.pack(row) is not None
        row[gate._layout.q_cols[40]] = X
        assert gate._layout.pack(row) is None

    def test_pack_unpack_round_trip(self, m0_module):
        import numpy as np

        gate = GateLevelCpu(m0_module, crc32_program(1), dhrystone_memory())
        for _ in range(20):
            gate.step()
        row = gate._stepper.state_row()
        values = gate._layout.pack(row)
        bits = gate._layout.unpack(np.asarray([values], dtype=np.int64))
        assert np.array_equal(bits[0], row[gate._layout.q_cols])


class TestStages:
    def test_execute_uses_the_iss_adder(self):
        from repro.isa.cpu import add_sub

        _boff, ctrl = decode_stage(assemble("sub r1, r2")[0])
        rf = [0] * 16
        rf[1], rf[2] = 3, 5
        result, carry, overflow, ra = execute_stage(ctrl, rf)
        assert (result, bool(carry), bool(overflow)) == add_sub(3, 5, True)
        assert ra == 3

    def test_window_stops_before_an_unaligned_store(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble(
            "movi r3, #2\nstr r1, [r3, #0]\nhalt"))
        window = _model(gate).window(50)
        assert 0 < len(window) < 50
        assert len(window.fields) == len(window.idata) == len(window)

    def test_window_ends_at_halt(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("movi r1, #1\nhalt"))
        window = _model(gate).window(50)
        gate.run()
        assert len(window) == gate.cycles
