"""Isolation insertion and the Fig. 3 controller."""

import pytest

from repro.errors import ScpgError
from repro.netlist.core import Module
from repro.netlist.transform import split_combinational
from repro.scpg.isolation import (
    add_rail_sense,
    build_isolation_controller,
    controller_delay,
    insert_isolation,
)

from ..sim.event import Simulator


class TestRailSense:
    def test_adds_tiehi_port(self, toy_design, lib):
        split = split_combinational(toy_design)
        port = add_rail_sense(split.comb, lib)
        assert split.comb.has_port(port)
        tie = split.comb.instance("u_vddv_tie")
        assert tie.cell.name == "TIEHI_X1"

    def test_duplicate_rejected(self, toy_design, lib):
        split = split_combinational(toy_design)
        add_rail_sense(split.comb, lib)
        with pytest.raises(ScpgError):
            add_rail_sense(split.comb, lib)


class TestController:
    def test_fig3_logic(self, lib):
        """ISOLATE = clk OR !VDDV."""
        m = Module("ctl")
        clk = m.add_input("clk")
        vddv = m.add_input("vddv")
        iso = build_isolation_controller(m, lib, clk, vddv)
        out = m.add_output("iso_out")
        m.add_instance("obuf", "BUF_X1", {"A": iso, "Y": out}, library=lib)
        sim = Simulator(m)
        # Clock high -> isolate regardless of rail.
        sim.set_inputs({"clk": 1, "vddv": 1})
        assert sim.value("iso_out") == 1
        # Clock low but rail collapsed -> still isolating.
        sim.set_inputs({"clk": 0, "vddv": 0})
        assert sim.value("iso_out") == 1
        # Clock low and rail restored -> release.
        sim.set_input("vddv", 1)
        assert sim.value("iso_out") == 0

    def test_controller_delay_positive_and_scales(self, lib):
        nominal = controller_delay(lib)
        low_v = controller_delay(lib, vdd=0.4)
        assert 0 < nominal < 5e-9
        assert low_v > nominal


class TestInsertIsolation:
    def test_clamps_spliced_at_driver(self, toy_design, lib):
        top = toy_design.top
        iso_net = top.add_input("iso")
        inserted = insert_isolation(top, ["n1"], lib, iso_net)
        assert len(inserted) == 1
        # The flop's D pin now sees the isolation output.
        ff = top.instance("ff")
        assert ff.connections["D"].driver[0].cell.name == "ISO_AND_X1"
        # The raw net carries the original driver.
        raw = top.net("n1_raw")
        assert raw.driver[0].name == "g1"

    def test_clamp_behaviour(self, toy_design, lib):
        top = toy_design.top
        iso_net = top.add_input("iso")
        insert_isolation(top, ["n1"], lib, iso_net)
        sim = Simulator(top)
        sim.set_inputs({"a": 1, "b": 0, "iso": 0, "clk": 0})
        assert sim.value("n1") == 1          # NAND(1,0)=1 passes
        sim.set_input("iso", 1)
        assert sim.value("n1") == 0          # clamped low
        assert sim.value("n1_raw") == 1      # raw value unaffected

    def test_clamp_high_variant(self, toy_design, lib):
        top = toy_design.top
        iso_net = top.add_input("iso")
        insert_isolation(top, ["n1"], lib, iso_net, clamp="high")
        sim = Simulator(top)
        sim.set_inputs({"a": 1, "b": 1, "iso": 1, "clk": 0})
        assert sim.value("n1") == 1          # clamped high

    def test_portless_net_rejected(self, toy_design, lib):
        top = toy_design.top
        iso_net = top.add_input("iso")
        with pytest.raises(ScpgError):
            insert_isolation(top, ["a"], lib, iso_net)  # port-driven
