"""Differential tests: the levelized SoA engine vs the event oracle.

The compiled engine's contract is *bit-identical* results, not close
ones: every toggle count, activity group, and final net value must equal
what the event-driven oracle (:mod:`tests.sim.event`) produces for the
same workload.  These tests assert exact equality on the paper's two
case-study circuits (mult16 random operands, M0-lite running every
program in ``repro.isa.programs``), on clock skew and gated clocks, and
on hypothesis-generated random DAG netlists under every clock structure
of the generator, plus the error / pickling edges of
:class:`~repro.sim.compiled.CompiledSchedule`.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import NetlistError, SimulationError
from repro.isa.programs import (
    crc32_program,
    dhrystone_memory,
    dhrystone_program,
    fir_program,
)
from repro.isa.trace import GateLevelCpu
from repro.netlist.core import Module
from repro.sim.compiled import bus_values, compile_schedule, schedule_for
from repro.sim.logic import X

from ..netlist.test_random_properties import CLOCKINGS, build_random_circuit
from .event import Simulator
from .testbench import ClockedTestbench, event_run


def assert_runs_identical(levelized, event):
    """Bit-for-bit equality of two :class:`CompiledRun` results."""
    assert levelized.cycles == event.cycles
    assert levelized.toggle_snapshot() == event.toggle_snapshot()
    assert levelized.final_values == event.final_values
    if event.trace is None:
        assert levelized.trace is None
        return
    lg, eg = levelized.trace.groups, event.trace.groups
    assert len(lg) == len(eg)
    for a, b in zip(lg, eg):
        assert (a.index, a.cycles, a.total_toggles, a.nets) \
            == (b.index, b.cycles, b.total_toggles, b.nets)
        assert a.toggles == b.toggles


def differential(module, vectors, group_size=10, reset=0):
    """Run ``vectors`` through the engine and the oracle and assert
    exact equality."""
    schedule = schedule_for(module)
    ok, why = schedule.vector_ready()
    assert ok, why
    fast = schedule.run_vectors(vectors, group_size=group_size,
                                reset=reset)
    slow = event_run(module, vectors, reset=reset, group_size=group_size)
    assert_runs_identical(fast, slow)
    return fast


def mult_vectors(count, seed=2011):
    rng = random.Random(seed)
    return [{
        **bus_values("a", 16, rng.getrandbits(16)),
        **bus_values("b", 16, rng.getrandbits(16)),
    } for _ in range(count)]


class TestMult16Differential:
    def test_random_operands_bit_identical(self, mult_module):
        run = differential(mult_module, mult_vectors(40))
        assert run.total_toggles() > 0
        assert len(run.trace.groups) == 4

    def test_partial_vectors_carry_forward(self, mult_module):
        """Unspecified ports hold their previous value, as in apply()."""
        rng = random.Random(7)
        vectors = []
        for i in range(20):
            vec = {}
            if i % 3 != 2:
                vec.update(bus_values("a", 16, rng.getrandbits(16)))
            if i % 2 == 0:
                vec.update(bus_values("b", 16, rng.getrandbits(16)))
            vectors.append(vec)
        vectors[5] = None  # idle cycle
        differential(mult_module, vectors, group_size=6)

    def test_toggle_matrix_matches_counts(self, mult_module):
        run = schedule_for(mult_module).run_vectors(mult_vectors(15))
        soa = schedule_for(mult_module).soa
        per_net = run.toggle_matrix.sum(axis=0)
        assert run.toggle_matrix.shape == (15, soa.n_nets)
        for i, name in enumerate(soa.net_names):
            assert run.toggles[name] == int(per_net[i])

    def test_driving_clock_in_vector_rejected(self, mult_module):
        with pytest.raises(SimulationError, match="clock"):
            schedule_for(mult_module).run_vectors([{"clk": 1}])

    def test_unknown_port_rejected(self, mult_module):
        with pytest.raises(SimulationError, match="no input port"):
            schedule_for(mult_module).run_vectors([{"nope": 1}])


def capture_cpu_vectors(module, program, memory=None, max_cycles=200):
    """Per-cycle input vectors from a closed-loop GateLevelCpu run.

    The captured open-loop stimulus (every non-clock input, sampled just
    before each rising edge) replays the same workload on any engine.
    """
    cpu = GateLevelCpu(module, program, memory)
    ports = [p.name for p in module.input_ports() if p.name != "clk"]
    vectors = []
    while not cpu.halted and cpu.cycles < max_cycles:
        vectors.append({p: cpu.value(p) for p in ports})
        cpu.step()
    return vectors


class TestM0LitePrograms:
    """Every program in ``repro.isa.programs`` drives the differential."""

    @pytest.mark.parametrize("name,program,memory", [
        ("dhrystone", dhrystone_program(2), dhrystone_memory()),
        ("crc32", crc32_program(1), dhrystone_memory()),
        ("fir", fir_program(3), None),
    ], ids=["dhrystone", "crc32", "fir"])
    def test_activity_trace_bit_identical(self, m0_module, name,
                                          program, memory):
        vectors = capture_cpu_vectors(m0_module, program, memory)
        assert len(vectors) >= 20, name
        run = differential(m0_module, vectors)
        assert run.total_toggles() > 0
        assert run.trace.representative_groups()["max"].total_toggles > 0


COMMON = dict(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


def random_vectors(module, seed, count=12):
    rng = random.Random(seed ^ 0xA5A5)
    ports = [p.name for p in module.input_ports() if p.name != "clk"]
    return [{p: rng.getrandbits(1) for p in ports} for _ in range(count)]


class TestRandomCircuits:
    @settings(**dict(COMMON, max_examples=24))
    @given(st.integers(0, 10_000), st.sampled_from(CLOCKINGS),
           st.sampled_from([0, 1]))
    def test_clocked_dag_bit_identical(self, lib, seed, clocking, reset):
        module = build_random_circuit(lib, seed, clocked=True,
                                      clocking=clocking)
        differential(module, random_vectors(module, seed), group_size=5,
                     reset=reset)

    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_comb_evaluate_matches_event_sim(self, lib, seed):
        module = build_random_circuit(lib, seed, n_gates=15)
        schedule = schedule_for(module)
        soa = schedule.soa
        assert soa is not None and soa.n_seq == 0
        rng = random.Random(seed)
        points = np.asarray(
            [[rng.getrandbits(1) for _ in soa.input_ports]
             for _ in range(10)], dtype=np.int8)
        got = schedule.evaluate(points)
        sim = Simulator(module)
        names = list(soa.input_ports)
        for row, out in zip(points, got):
            sim.set_inputs(dict(zip(names, (int(v) for v in row))))
            expected = [sim.value(name) for name in soa.output_ports]
            assert list(out) == expected, seed


def build_latch(lib):
    """Cross-coupled NAND latch: combinational feedback, unlowerable."""
    m = Module("latch")
    m.add_input("clk")
    s = m.add_input("s")
    r = m.add_input("r")
    q = m.add_net("q")
    qb = m.add_net("qb")
    m.add_instance("n1", "NAND2_X1", {"A": s, "B": qb, "Y": q},
                   library=lib)
    m.add_instance("n2", "NAND2_X1", {"A": r, "B": q, "Y": qb},
                   library=lib)
    out = m.add_output("o")
    m.add_instance("ob", "BUF_X1", {"A": q, "Y": out}, library=lib)
    return m


def build_gated_clock(lib):
    """A flop clocked through a port-enabled clock gate."""
    m = Module("gated")
    clk = m.add_input("clk")
    en = m.add_input("en")
    d = m.add_input("d")
    gck = m.add_net("gck")
    m.add_instance("g", "AND2_X1", {"A": clk, "B": en, "Y": gck},
                   library=lib)
    q = m.add_output("q")
    m.add_instance("ff", "DFF_X1", {"D": d, "CK": gck, "Q": q},
                   library=lib)
    return m


def build_skew(lib):
    """Two toggle flops, ``a`` clocked by ``clk`` and ``b`` through one
    buffer, with ``y = a ^ b``: ``b`` samples a generation after ``a``,
    so ``y`` pulses on every rising edge."""
    m = Module("skew")
    clk = m.add_input("clk")
    bck = m.add_net("bck")
    m.add_instance("cb", "BUF_X1", {"A": clk, "Y": bck}, library=lib)
    qs = []
    for name, ck in (("a", clk), ("b", bck)):
        q = m.add_net(name)
        nq = m.add_net("n" + name)
        m.add_instance("i" + name, "INV_X1", {"A": q, "Y": nq}, library=lib)
        m.add_instance("f" + name, "DFF_X1", {"D": nq, "CK": ck, "Q": q},
                       library=lib)
        qs.append(q)
    y = m.add_output("y")
    m.add_instance("x", "XOR2_X1", {"A": qs[0], "B": qs[1], "Y": y},
                   library=lib)
    return m


RIPPLE_V = """
module ripple (clk, q0, q1);
  input clk;
  output q0;
  output q1;
  wire n0;
  wire n1;
  INV_X1 i0 (.A(q0), .Y(n0));
  INV_X1 i1 (.A(q1), .Y(n1));
  DFF_X1 f0 (.D(n0), .CK(clk), .Q(q0));
  DFF_X1 f1 (.D(n1), .CK(n0), .Q(q1));
endmodule
"""

STATE_RESET_V = """
module sreset (clk, d, q, r);
  input clk;
  input d;
  output q;
  output r;
  wire rn;
  DFF_X1 fr (.D(d), .CK(clk), .Q(r));
  INV_X1 ir (.A(r), .Y(rn));
  DFFR_X1 fq (.D(d), .CK(clk), .RN(rn), .Q(q));
endmodule
"""


class TestClockStructures:
    """Gated, skewed and state-driven clock and reset cones run on the
    compiled engine and match the oracle bit for bit."""

    def test_skew_pulses_match(self, lib):
        run = differential(build_skew(lib), [{}] * 6, group_size=3)
        assert run.toggles["y"] == 12
        assert run.value("y") == 0

    def test_port_gated_clock(self, lib):
        vectors = [{"en": 1, "d": 1}, {"en": 0, "d": 0}, {"en": 1, "d": 0},
                   {"en": 1, "d": 1}, {"en": 0, "d": 1}]
        run = differential(build_gated_clock(lib), vectors, group_size=2)
        assert run.value("q") == 1

    def test_ripple_counter(self, lib):
        from repro.netlist.verilog import parse_verilog

        module = parse_verilog(RIPPLE_V, lib).top
        run = differential(module, [{}] * 7, group_size=4)
        # Three clock edges from 00 count to 11 ... seven to 11 again.
        assert (run.value("q1"), run.value("q0")) == (1, 1)
        assert run.toggles["q1"] == 3

    def test_state_driven_reset(self, lib):
        from repro.netlist.verilog import parse_verilog

        module = parse_verilog(STATE_RESET_V, lib).top
        vectors = [{"d": 1}, {"d": 1}, {"d": 0}, {"d": 1}, {"d": 0}]
        differential(module, vectors, group_size=2)


RING_V = """
module ring (clk, o);
  input clk;
  output o;
  wire q0;
  wire q1;
  wire g2;
  wire g3;
  XOR2_X1 u2 (.A(q1), .B(q0), .Y(g2));
  AND2_X1 u3 (.A(clk), .B(q1), .Y(g3));
  DFFR_X1 f0 (.D(g3), .CK(q1), .Q(q0), .RN(g2));
  DFF_X1 f1 (.D(g2), .CK(clk), .Q(q1));
  BUF_X1 ob (.A(q0), .Y(o));
endmodule
"""


class TestStateLoops:
    def test_ringing_state_loop_raises(self, lib):
        """``f0`` clears itself through its own reset and re-arms on
        ``q1``: the wave never settles, as in the oracle (which gives up
        after millions of events, too slow to run here)."""
        from repro.netlist.verilog import parse_verilog

        module = parse_verilog(RING_V, lib).top
        with pytest.raises(SimulationError, match="did not settle"):
            compile_schedule(module).run_vectors([{}] * 4)


class TestEligibilityAndFallback:
    """What cannot run raises, naming the problem; nothing falls back."""

    def test_feedback_reports_reason(self, lib):
        schedule = compile_schedule(build_latch(lib))
        assert schedule.soa is None and schedule.why
        ok, why = schedule.vector_ready()
        assert not ok and why

    def test_feedback_falls_back_to_event(self, lib):
        """Kept name: there is no event fallback any more, the run
        raises the lowering's loop error."""
        with pytest.raises(NetlistError,
                           match="combinational loop .* n1, n2"):
            compile_schedule(build_latch(lib)).run_vectors(
                [{"s": 1, "r": 0}], group_size=2)

    def test_gated_clock_reason_names_cone(self, lib):
        """Kept name: a gated clock cone is no reason to refuse; it runs
        on the compiled engine, exactly."""
        schedule = compile_schedule(build_gated_clock(lib))
        assert schedule.vector_ready() == (True, "")
        differential(build_gated_clock(lib),
                     [{"en": 1, "d": 1}, {"en": 0, "d": 0}])

    def test_gated_clock_event_run_matches_direct_testbench(self, lib):
        module = build_gated_clock(lib)
        vectors = [{"en": 1, "d": 1}, {"en": 0, "d": 0},
                   {"en": 1, "d": 0}]
        run = compile_schedule(module).run_vectors(vectors)
        tb = ClockedTestbench(module)
        tb.reset_flops(0)
        tb.run(vectors)
        assert run.toggle_snapshot() == tb.sim.toggle_snapshot()
        assert run.value("q") == tb.sim.value("q") == 0

    def test_unconnected_gate_input_falls_back(self, lib):
        module = Module("open_pin")
        a = module.add_input("a")
        y = module.add_output("y")
        module.add_instance("u1", "NAND2_X1", {"A": a, "Y": y}, library=lib)
        schedule = compile_schedule(module)
        ok, why = schedule.vector_ready()
        assert schedule.soa is None and not ok
        assert "u1" in why and "pin B" in why
        with pytest.raises(NetlistError, match="pin B"):
            schedule.evaluate([[0]])

    def test_missing_clock_port(self, lib):
        module = build_random_circuit(lib, 3)  # combinational
        ok, why = schedule_for(module).vector_ready()
        assert not ok and "clk" in why
        with pytest.raises(SimulationError, match="clk"):
            schedule_for(module).run_vectors([{}])

    def test_evaluate_rejects_sequential(self, mult_module):
        with pytest.raises(SimulationError,
                           match="combinational-only.* flops"):
            schedule_for(mult_module).evaluate([[0]])

    def test_evaluate_rejects_wrong_width(self, lib):
        module = build_random_circuit(lib, 4)
        with pytest.raises(SimulationError, match="input columns"):
            schedule_for(module).evaluate(np.zeros((2, 99), dtype=np.int8))

    def test_evaluate_refused_without_schedule(self, lib):
        with pytest.raises(NetlistError, match="combinational loop"):
            compile_schedule(build_latch(lib)).evaluate([[0, 0, 0]])


class TestMemoisationAndPickle:
    def test_schedule_for_memoises(self, mult_module):
        assert schedule_for(mult_module) is schedule_for(mult_module)

    def test_pickle_drops_module_keeps_levelized_path(self, mult_module):
        schedule = schedule_for(mult_module)
        restored = pickle.loads(pickle.dumps(schedule))
        assert not any(isinstance(v, Module)
                       for v in vars(restored).values())
        vectors = mult_vectors(8, seed=5)
        assert_runs_identical(restored.run_vectors(vectors),
                              schedule.run_vectors(vectors))

    #: Pickled ``CompiledSchedule`` sizes (bytes) of the lowering that
    #: stored a weight matrix and a flat index copy per level.
    OLD_PICKLE_BYTES = {"m0": 486_642, "mult": 68_578}

    @pytest.mark.parametrize("name", ["m0", "mult"])
    def test_pickle_is_slim_and_carries_no_memo(self, request, name):
        """The schedule rides in every artifact bundle: after use it
        pickles exactly as fresh -- no flop table, cone or fused gather
        form -- and below the old lowering's size."""
        module = request.getfixturevalue(name + "_module")
        schedule = compile_schedule(module)
        fresh = pickle.dumps(schedule)
        if name == "m0":
            stepper = schedule.stepper()
            stepper.force_flops(0)
            stepper.cycle({"rstn": 0})
        else:
            schedule.run_vectors(mult_vectors(4))
        assert schedule._cones and any(
            "_fused" in vars(level) for level in schedule.soa.levels)
        warm = pickle.dumps(schedule)
        assert warm == fresh
        assert len(warm) <= self.OLD_PICKLE_BYTES[name]
        restored = pickle.loads(warm)
        assert not {"_flops", "_cones"} & set(vars(restored))
        assert not any("_fused" in vars(level)
                       for level in restored.soa.levels)

    def test_unpickled_latch_still_names_the_loop(self, lib):
        restored = pickle.loads(pickle.dumps(
            compile_schedule(build_latch(lib))))
        with pytest.raises(NetlistError, match="n1, n2"):
            restored.run_vectors([{"s": 1, "r": 1}])


class TestCombinationalEvaluate:
    """``schedule_for(module).evaluate`` as the gate-level batch kernel."""

    def test_evaluate_matches_event_sim(self, lib):
        module = build_random_circuit(lib, 22)
        schedule = schedule_for(module)
        soa = schedule.soa
        rng = random.Random(22)
        points = np.asarray(
            [[rng.getrandbits(1) for _ in soa.input_ports]
             for _ in range(6)], dtype=np.int8)
        got = schedule.evaluate(points)
        sim = Simulator(module)
        names = list(soa.input_ports)
        for row, out in zip(points, got):
            sim.set_inputs(dict(zip(names, (int(v) for v in row))))
            assert list(out) == [sim.value(n) for n in soa.output_ports]

    def test_pickled_schedule_evaluates_without_module(self, lib):
        module = build_random_circuit(lib, 23)
        schedule = schedule_for(module)
        kernel = pickle.loads(pickle.dumps(schedule.evaluate))
        assert not any(isinstance(v, Module)
                       for v in vars(kernel.__self__).values())
        points = np.zeros((3, len(schedule.soa.input_ports)),
                          dtype=np.int8)
        assert np.array_equal(kernel(points), schedule.evaluate(points))


class TestGateSimKernel:
    """The gate-level batch kernel as a worker receives it: a pickled
    ``compile_schedule(module).evaluate`` keeps the schedule's refusals."""

    def test_compile_rejects_sequential(self, mult_module):
        kernel = pickle.loads(pickle.dumps(
            compile_schedule(mult_module).evaluate))
        with pytest.raises(SimulationError,
                           match="combinational-only.* flops"):
            kernel([[0]])

    def test_compile_rejects_feedback(self, lib):
        kernel = pickle.loads(pickle.dumps(
            compile_schedule(build_latch(lib)).evaluate))
        with pytest.raises(NetlistError,
                           match="combinational loop.*n1, n2"):
            kernel([[0, 0, 0]])


class TestXPropagation:
    def test_x_inputs_do_not_count_toggles(self, lib):
        """known -> X and X -> known transitions are not toggles, in both
        engines alike."""
        module = build_random_circuit(lib, 31, clocked=True)
        vectors = random_vectors(module, 31, count=6)
        vectors[2] = {name: X for name in vectors[2]}
        differential(module, vectors, group_size=3)
