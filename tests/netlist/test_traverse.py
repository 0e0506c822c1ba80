"""Topological traversal, levelization, cones."""

import pytest

from repro.errors import NetlistError
from repro.netlist.core import Design, Module
from repro.netlist.traverse import (
    combinational_instances,
    levelize,
    sequential_instances,
    topological_instances,
)

from .walk import (
    driver_instance,
    fanout_instances,
    header_instances,
    transitive_fanin,
)


def _chain(lib, depth=5):
    """a -> INV -> INV -> ... -> y."""
    m = Module("chain")
    net = m.add_input("a")
    for i in range(depth):
        nxt = m.add_output("y") if i == depth - 1 else m.add_net()
        m.add_instance("inv{}".format(i), "INV_X1", {"A": net, "Y": nxt},
                       library=lib)
        net = nxt
    return m


class TestClassification:
    def test_toy(self, toy_design):
        top = toy_design.top
        assert {i.name for i in combinational_instances(top)} == {"g1", "g2"}
        assert {i.name for i in sequential_instances(top)} == {"ff"}
        assert header_instances(top) == []

    def test_hierarchical_rejected(self, toy_design, lib):
        from repro.netlist.transform import split_combinational

        split = split_combinational(toy_design)
        with pytest.raises(NetlistError):
            topological_instances(split.top)


class TestTopologicalOrder:
    def test_chain_in_order(self, lib):
        m = _chain(lib, 6)
        order = [i.name for i in topological_instances(m)[0]]
        assert order == ["inv{}".format(i) for i in range(6)]

    def test_flops_break_cycles(self, lib):
        """A feedback loop through a register must not be a comb loop."""
        m = Module("fb")
        clk = m.add_input("clk")
        q = m.add_net("q")
        d = m.add_net("d")
        m.add_instance("inv", "INV_X1", {"A": q, "Y": d}, library=lib)
        m.add_instance("ff", "DFF_X1", {"D": d, "CK": clk, "Q": q},
                       library=lib)
        assert len(topological_instances(m)[0]) == 1

    def test_combinational_loop_detected(self, lib):
        m = Module("loop")
        a = m.add_net("a")
        b = m.add_net("b")
        m.add_instance("i1", "INV_X1", {"A": a, "Y": b}, library=lib)
        m.add_instance("i2", "INV_X1", {"A": b, "Y": a}, library=lib)
        with pytest.raises(NetlistError, match="loop"):
            topological_instances(m)

    def test_multiplier_orders_all(self, mult_module):
        order, _ = topological_instances(mult_module)
        assert len(order) == len(combinational_instances(mult_module))


class TestLevelize:
    def test_chain_levels(self, lib):
        m = _chain(lib, 4)
        levels = levelize(m)
        assert [levels["inv{}".format(i)] for i in range(4)] == [0, 1, 2, 3]

    def test_multiplier_depth_reasonable(self, mult_module):
        levels = levelize(mult_module)
        depth = max(levels.values())
        # 16x16 array: tens of levels, not hundreds, not single digits.
        assert 20 <= depth <= 60


class TestConesAndNeighbours:
    def test_driver_and_fanout(self, toy_design):
        top = toy_design.top
        n1 = top.net("n1")
        assert driver_instance(n1).name == "g1"
        assert {i.name for i in fanout_instances(n1)} == {"ff"}
        assert driver_instance(top.net("a")) is None  # port driven

    def test_transitive_fanin_stops_at_flops(self, toy_design):
        top = toy_design.top
        cone = transitive_fanin(top, [top.net("y")])
        assert {i.name for i in cone} == {"g2"}  # stops at ff

    def test_transitive_fanin_whole_cone(self, toy_design):
        top = toy_design.top
        cone = transitive_fanin(top, [top.net("n1")])
        assert {i.name for i in cone} == {"g1"}
