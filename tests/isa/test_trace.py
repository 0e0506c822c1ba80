"""Gate-level CPU wrapper and co-simulation plumbing."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.trace import GateLevelCpu, cosimulate
from repro.sim.compiled import ClosedLoopStepper

from ..sim.testbench import EventCpu

COUNTDOWN = """
    movi r1, #20
    movi r2, #32
loop:
    str  r1, [r2, #0]
    ldr  r3, [r2, #0]
    addi r1, #-1
    bne  loop
    halt
"""


class TestGateLevelCpu:
    def test_reset_state(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("halt"))
        assert not gate.halted
        assert gate.register(0) == 0

    def test_run_to_halt(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("movi r1, #9\nhalt"))
        cycles = gate.run()
        assert gate.halted
        assert cycles >= 4  # pipeline fill + two instructions
        assert gate.register(1) == 9

    def test_registers_list(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("""
            movi r14, #3
            movi r15, #4
            halt
        """))
        gate.run()
        regs = gate.registers()
        assert regs[14] == 3 and regs[15] == 4

    def test_memory_writes_committed(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("""
            movi r1, #32
            movi r2, #7
            str  r2, [r1, #0]
            halt
        """))
        gate.run()
        assert gate.memory[32] == 7

    def test_max_cycles_guard(self, m0_module):
        from repro.errors import SimulationError

        gate = GateLevelCpu(m0_module, assemble("""
        spin:
            b spin
        """))
        with pytest.raises(SimulationError, match="halt"):
            gate.run(max_cycles=50)

    def test_activity_trace_produced(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("""
            movi r1, #25
        loop:
            addi r1, #-1
            bne  loop
            halt
        """), group_size=10)
        gate.run()
        trace = gate.activity_trace()
        assert len(trace.groups) >= 5
        assert all(g.switching_probability > 0 for g in trace.groups)


class TestEngines:
    """The compiled closed-loop engine against the event oracle."""

    def test_auto_picks_compiled_for_m0lite(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("halt"))
        assert isinstance(gate._stepper, ClosedLoopStepper)

    def test_compiled_raises_on_ineligible_module(self, mult_module):
        """A multiplier has no M0-lite memory interface."""
        with pytest.raises(SimulationError, match="unavailable"):
            GateLevelCpu(mult_module, assemble("halt"))

    def test_scpg_core_engines_bit_identical(self, m0_study):
        """The SCPG-transformed core (isolation clamps, header logic in
        the netlist) matches the oracle -- the memory feed lands after
        the falling edge on both."""
        core = m0_study.scpg.flat.top
        program = assemble(COUNTDOWN)
        ev = EventCpu(core, program)
        cp = GateLevelCpu(core, program)
        ev.run()
        cp.run()
        assert ev.cycles == cp.cycles
        assert ev.registers() == cp.registers()
        assert ev.memory == cp.memory
        assert ev.toggle_snapshot() == cp.toggle_snapshot()

    def test_engines_bit_identical(self, m0_module):
        program = assemble(COUNTDOWN)
        ev = EventCpu(m0_module, program)
        cp = GateLevelCpu(m0_module, program)
        ev.run()
        cp.run()
        assert ev.cycles == cp.cycles
        assert ev.registers() == cp.registers()
        assert ev.memory == cp.memory
        assert ev.toggle_snapshot() == cp.toggle_snapshot()
        te, tc = ev.activity_trace(), cp.activity_trace()
        assert len(te.groups) == len(tc.groups)
        for a, b in zip(te.groups, tc.groups):
            assert (a.index, a.cycles, a.total_toggles, a.nets,
                    a.toggles) == \
                   (b.index, b.cycles, b.total_toggles, b.nets, b.toggles)

    def test_state_traces_bit_identical(self, m0_module):
        program = assemble(COUNTDOWN)
        ev = EventCpu(m0_module, program, record_states=True)
        cp = GateLevelCpu(m0_module, program, record_states=True)
        for _ in range(30):
            ev.step()
            cp.step()
        assert ev.state_net_names == cp.state_net_names
        assert np.array_equal(ev.state_trace(), cp.state_trace())

    def test_state_trace_requires_opt_in(self, m0_module):
        gate = GateLevelCpu(m0_module, assemble("halt"))
        with pytest.raises(SimulationError, match="record_states"):
            gate.state_trace()


class TestCosimulate:
    def test_result_fields(self, m0_module):
        result = cosimulate(m0_module, assemble("""
            movi r1, #2
            movi r2, #3
            mul  r1, r2
            halt
        """))
        assert result.ok
        assert result.registers_match and result.memory_match
        assert result.instructions == 4
        assert result.cycles >= result.instructions
        assert result.cpi == pytest.approx(
            result.cycles / result.instructions)
        assert result.trace is not None

    def test_detects_divergence_via_memory(self, m0_module):
        """Same program, different initial memory on the two sides would
        diverge -- emulate by checking a store-dependent result."""
        result = cosimulate(
            m0_module,
            assemble("""
                movi r1, #16
                ldr  r2, [r1, #0]
                addi r2, #1
                str  r2, [r1, #0]
                halt
            """),
            memory={16: 41},
        )
        assert result.ok


#: A store/load loop long enough for two batched windows, with a
#: 10-cycle activity group straddling the first window boundary.
LONG_COUNTDOWN = COUNTDOWN.replace("#20", "#40")

UNALIGNED_LATE = """
    movi r1, #40
spin:
    addi r1, #-1
    bne  spin
    movi r3, #2
    str  r1, [r3, #0]
    halt
"""


FAULT_CYCLE = 57


def _inject_model_fault(monkeypatch, fault, cycle):
    """Make the pipeline model wrong from ``cycle`` on: ``"flip"`` one
    register-file bit of every predicted row, ``"raise"`` instead of
    predicting (``None`` leaves it alone)."""
    from repro.isa.pipeline import FIELDS, PipelineModel

    if fault is None:
        return
    rf3 = [stem for stem, _width in FIELDS].index("rf3")
    row = PipelineModel.row

    def faulty_row(model):
        values = row(model)
        if model.cycle < cycle:
            return values
        if fault == "raise":
            raise RuntimeError("injected model fault")
        return values[:rf3] + (values[rf3] ^ 1 << 5,) + values[rf3 + 1:]

    monkeypatch.setattr(PipelineModel, "row", faulty_row)


def _outcome(gate):
    """Everything a run produces, for bit-for-bit engine comparison."""
    groups = [(g.index, g.cycles, g.total_toggles, g.nets, g.toggles)
              for g in gate.activity_trace().groups]
    states = gate.state_trace() if gate._record_states else None
    return (gate.cycles, gate.registers(), gate.memory,
            gate.toggle_snapshot(), groups), states


def _assert_same(expected, gate):
    (want, want_states), (got, got_states) = expected, _outcome(gate)
    assert got == want
    if want_states is not None:
        assert np.array_equal(got_states, want_states)


class TestBatchedRun:
    """``run()`` settles predicted windows; the netlist confirms each
    cycle, so the result is the oracle's bit for bit however the
    prediction goes."""

    @pytest.fixture(scope="class")
    def event_run(self, m0_module):
        gate = EventCpu(m0_module, assemble(LONG_COUNTDOWN),
                        record_states=True)
        gate.run()
        assert gate.cycles > 2 * 128 - 20
        return _outcome(gate)

    def test_fully_batched(self, m0_module, event_run):
        gate = GateLevelCpu(m0_module, assemble(LONG_COUNTDOWN),
                            record_states=True)
        gate.run()
        assert gate.batched_cycles == gate.cycles
        _assert_same(event_run, gate)

    @pytest.mark.parametrize("fault", ["flip", "raise"])
    def test_mispredictions_fall_back_to_the_stepper(
            self, m0_module, event_run, monkeypatch, fault):
        """From :data:`FAULT_CYCLE` on the model is wrong (one
        register-file bit flipped) or raises; the stepper takes over
        there and every result stays exact."""
        _inject_model_fault(monkeypatch, fault, FAULT_CYCLE)
        gate = GateLevelCpu(m0_module, assemble(LONG_COUNTDOWN),
                            record_states=True)
        gate.run()
        assert gate.batched_cycles == FAULT_CYCLE
        _assert_same(event_run, gate)

    @pytest.mark.parametrize("fault", [None, "flip"])
    def test_without_toggle_recording(self, m0_module, monkeypatch, fault):
        program = assemble(LONG_COUNTDOWN)
        ev = EventCpu(m0_module, program, record_toggles=False)
        ev.run()
        _inject_model_fault(monkeypatch, fault, FAULT_CYCLE)
        cp = GateLevelCpu(m0_module, program, record_toggles=False)
        cp.run()
        assert cp.batched_cycles == (FAULT_CYCLE if fault else cp.cycles)
        assert _outcome(cp) == _outcome(ev)

    def test_resumes_after_steps(self, m0_module, event_run):
        gate = GateLevelCpu(m0_module, assemble(LONG_COUNTDOWN),
                            record_states=True)
        for _ in range(13):
            gate.step()
        gate.run()
        assert gate.batched_cycles == gate.cycles - 13
        _assert_same(event_run, gate)


def _error_at(drive, gate):
    """``(class, message, cycle)`` of the error ``drive(gate)`` raises."""
    with pytest.raises(Exception) as info:
        drive(gate)
    return type(info.value), str(info.value), gate.cycles


def _step_to_halt(gate):
    while not gate.halted:
        gate.step()


class TestErrorParity:
    """Faults surface with the same class and message at the same cycle
    on the event oracle, a ``step()`` loop and the batched ``run()``."""

    def test_unaligned_store(self, m0_module):
        from repro.errors import IsaError

        program = assemble(UNALIGNED_LATE)
        batched = GateLevelCpu(m0_module, program)
        outcomes = {
            _error_at(EventCpu.run, EventCpu(m0_module, program)),
            _error_at(_step_to_halt, GateLevelCpu(m0_module, program)),
            _error_at(GateLevelCpu.run, batched),
        }
        assert len(outcomes) == 1, outcomes
        cls, message, cycle = outcomes.pop()
        assert cls is IsaError
        assert message == "unaligned gate-level store at 0x2"
        assert cycle > 128      # the fault lies past the first window
        assert batched.batched_cycles == cycle

    @pytest.mark.parametrize("stepped", [0, 9])
    def test_max_cycles_guard(self, m0_module, stepped):
        program = assemble("spin:\n    b spin")

        def drive(gate):
            for _ in range(stepped):
                gate.step()
            gate.run(max_cycles=150)

        outcomes = {
            _error_at(drive, cpu(m0_module, program))
            for cpu in (EventCpu, GateLevelCpu)}
        assert outcomes == {(SimulationError,
                             "core did not halt in 150 cycles",
                             stepped + 150)}
