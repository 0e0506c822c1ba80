"""Event-driven simulator semantics."""

import pytest

from repro.circuits.builder import new_module
from repro.errors import SimulationError
from repro.netlist.core import Module
from repro.sim.logic import X

from .event import Simulator


class TestCombinational:
    def test_propagation(self, toy_design):
        sim = Simulator(toy_design.top)
        sim.set_inputs({"a": 1, "b": 1})
        assert sim.value("n1") == 0

    def test_x_initial_state(self, toy_design):
        sim = Simulator(toy_design.top)
        assert sim.value("q") == X

    def test_const_nets(self, lib):
        m = Module("m")
        y = m.add_output("y")
        m.add_instance("g", "OR2_X1",
                       {"A": m.const(0), "B": m.const(1), "Y": y},
                       library=lib)
        sim = Simulator(m)
        assert sim.value("y") == 1

    def test_unknown_input_name(self, toy_design):
        sim = Simulator(toy_design.top)
        with pytest.raises(SimulationError):
            sim.set_input("nope", 1)

    def test_hierarchical_rejected(self, toy_design):
        from repro.netlist.transform import split_combinational

        split = split_combinational(toy_design)
        with pytest.raises(SimulationError):
            Simulator(split.top)

    def test_oscillating_loop_detected(self, lib):
        # Enabled 3-stage ring oscillator: settles while en=0, oscillates
        # forever once enabled (values are all known, so no X damping).
        m = Module("osc")
        en = m.add_input("en")
        a = m.add_net("a")
        b = m.add_net("b")
        c = m.add_net("c")
        m.add_instance("n", "NAND2_X1", {"A": en, "B": c, "Y": a},
                       library=lib)
        m.add_instance("i1", "INV_X1", {"A": a, "Y": b}, library=lib)
        m.add_instance("i2", "INV_X1", {"A": b, "Y": c}, library=lib)
        sim = Simulator(m)
        sim.set_input("en", 0)
        with pytest.raises(SimulationError, match="settle"):
            sim.set_input("en", 1)


class TestSequential:
    def test_posedge_capture(self, toy_design):
        sim = Simulator(toy_design.top)
        sim.force_flop_state(0)
        sim.set_inputs({"a": 1, "b": 1, "clk": 0})
        sim.set_input("clk", 1)
        assert sim.value("q") == 0  # captured NAND(1,1)=0
        assert sim.value("y") == 1

    def test_negedge_does_not_capture(self, toy_design):
        sim = Simulator(toy_design.top)
        sim.force_flop_state(0)
        sim.set_inputs({"a": 0, "b": 0, "clk": 1})
        sim.set_input("clk", 0)
        assert sim.value("q") == 0  # unchanged

    def test_dffe_enable(self, lib):
        m = Module("m")
        clk = m.add_input("clk")
        en = m.add_input("en")
        d = m.add_input("d")
        q = m.add_output("q")
        m.add_instance("ff", "DFFE_X1",
                       {"D": d, "CK": clk, "EN": en, "Q": q}, library=lib)
        sim = Simulator(m)
        sim.force_flop_state(0)
        sim.set_inputs({"d": 1, "en": 0, "clk": 0})
        sim.set_input("clk", 1)
        assert sim.value("q") == 0     # enable off
        sim.set_inputs({"clk": 0, "en": 1})
        sim.set_input("clk", 1)
        assert sim.value("q") == 1     # enable on

    def test_dffr_async_reset(self, lib):
        m = Module("m")
        clk = m.add_input("clk")
        rn = m.add_input("rn")
        d = m.add_input("d")
        q = m.add_output("q")
        m.add_instance("ff", "DFFR_X1",
                       {"D": d, "CK": clk, "RN": rn, "Q": q}, library=lib)
        sim = Simulator(m)
        sim.set_inputs({"d": 1, "rn": 1, "clk": 0})
        sim.set_input("clk", 1)
        assert sim.value("q") == 1
        sim.set_input("rn", 0)          # async clear, no clock needed
        assert sim.value("q") == 0
        sim.set_input("rn", 1)
        assert sim.value("q") == 0      # stays until next edge

    def test_shift_register_no_race(self, lib):
        """Back-to-back flops must shift one position per edge."""
        m = Module("sr")
        clk = m.add_input("clk")
        d = m.add_input("d")
        q1 = m.add_net("q1")
        q2 = m.add_net("q2")
        m.add_instance("f1", "DFF_X1", {"D": d, "CK": clk, "Q": q1},
                       library=lib)
        m.add_instance("f2", "DFF_X1", {"D": q1, "CK": clk, "Q": q2},
                       library=lib)
        sim = Simulator(m)
        sim.force_flop_state(0)
        sim.set_inputs({"d": 1, "clk": 0})
        sim.set_input("clk", 1)
        assert (sim.value("q1"), sim.value("q2")) == (1, 0)
        sim.set_input("clk", 0)
        sim.set_input("clk", 1)
        assert (sim.value("q1"), sim.value("q2")) == (1, 1)

    def test_buffered_clock_tree_no_skew_race(self, lib):
        """Flops behind different clock buffers still act as one domain."""
        m = Module("tree")
        clk = m.add_input("clk")
        d = m.add_input("d")
        c1 = m.add_net("c1")
        c2 = m.add_net("c2")
        q1 = m.add_net("q1")
        q2 = m.add_net("q2")
        m.add_instance("b1", "CLKBUF_X4", {"A": clk, "Y": c1}, library=lib)
        m.add_instance("b2", "CLKBUF_X4", {"A": clk, "Y": c2}, library=lib)
        m.add_instance("f1", "DFF_X1", {"D": d, "CK": c1, "Q": q1},
                       library=lib)
        m.add_instance("f2", "DFF_X1", {"D": q1, "CK": c2, "Q": q2},
                       library=lib)
        sim = Simulator(m)
        sim.force_flop_state(0)
        sim.set_inputs({"d": 1, "clk": 0})
        sim.set_input("clk", 1)
        # f2 must capture the PRE-edge q1 (0), not the fresh 1.
        assert (sim.value("q1"), sim.value("q2")) == (1, 0)

    def test_pre_settle_sampling_with_clock_derived_data(self, lib):
        """A clamp driven by the clock must not corrupt same-edge capture
        (the SCPG isolation hold-time scenario)."""
        m = Module("clamp")
        clk = m.add_input("clk")
        d = m.add_input("d")
        clamped = m.add_net("clamped")
        q = m.add_output("q")
        m.add_instance("iso", "ISO_AND_X1",
                       {"A": d, "ISO": clk, "Y": clamped}, library=lib)
        m.add_instance("ff", "DFF_X1",
                       {"D": clamped, "CK": clk, "Q": q}, library=lib)
        sim = Simulator(m)
        sim.force_flop_state(0)
        sim.set_inputs({"d": 1, "clk": 0})
        assert sim.value("clamped") == 1
        sim.set_input("clk", 1)
        # Capture sees the pre-edge (unclamped) data...
        assert sim.value("q") == 1
        # ...while the clamp is now active.
        assert sim.value("clamped") == 0


class TestInstrumentation:
    def test_toggle_counting(self, toy_design):
        sim = Simulator(toy_design.top)
        sim.force_flop_state(0)
        sim.set_inputs({"a": 1, "b": 1, "clk": 0})
        sim.reset_toggles()
        sim.set_input("a", 0)   # n1: 0 -> 1
        sim.set_input("a", 1)   # n1: 1 -> 0
        assert sim.net_toggles("n1") == 2
        assert sim.total_toggles() >= 2

    def test_x_transitions_not_counted(self, toy_design):
        sim = Simulator(toy_design.top)
        # q is X; settling into a known value is not a toggle.
        sim.set_inputs({"a": 1, "b": 1, "clk": 0})
        assert sim.net_toggles("q") == 0

    def test_watcher_callbacks(self, toy_design):
        sim = Simulator(toy_design.top)
        events = []
        sim.add_watcher(lambda net, old, new: events.append(
            (net.name, old, new)))
        sim.set_inputs({"a": 1, "b": 1})
        assert ("a", X, 1) in events

    def test_flop_q_lookup(self, toy_design):
        sim = Simulator(toy_design.top)
        sim.force_flop_state(1)
        assert sim.flop_q("ff") == 1
        with pytest.raises(SimulationError):
            sim.flop_q("nope")

    def test_toggle_snapshot_keys_are_net_names(self, toy_design):
        sim = Simulator(toy_design.top)
        snap = sim.toggle_snapshot()
        assert "n1" in snap and "q" in snap
