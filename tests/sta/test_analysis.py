"""Static timing analysis."""

import pytest

from repro.circuits.builder import new_module
from repro.errors import TimingError
from repro.netlist.core import Module
from repro.sta.analysis import TimingAnalysis
from repro.sta.delay import cell_delay, net_load


class TestNetLoad:
    def test_pin_caps_plus_wire(self, toy_design, lib):
        n1 = toy_design.top.net("n1")  # loads: DFF D pin
        load = net_load(n1, lib)
        expected = lib.cell("DFF_X1").input_capacitance("D") \
            + lib.wire_cap_per_fanout
        assert load == pytest.approx(expected)

    def test_output_port_counts_as_fanout(self, toy_design, lib):
        y = toy_design.top.net("y")
        # y: driven by g2, loaded only by the port.
        assert net_load(y, lib) == pytest.approx(lib.wire_cap_per_fanout)

    def test_cell_delay_scales(self, lib):
        inv = lib.cell("INV_X1")
        assert cell_delay(inv, 1e-15, scale=3.0) == pytest.approx(
            3 * inv.delay(1e-15))


class TestTimingAnalysis:
    def test_toy_eval_delay(self, toy_design, lib):
        res = TimingAnalysis(toy_design.top, lib).run()
        # Critical path: ff clk->q then INV to output port y.
        dff = lib.cell("DFF_X1")
        inv = lib.cell("INV_X1")
        q_load = inv.input_capacitance("A") + lib.wire_cap_per_fanout
        y_load = lib.wire_cap_per_fanout
        expected = dff.delay(q_load) + inv.delay(y_load)
        assert res.eval_delay == pytest.approx(expected)
        assert res.setup == 0.0  # capture is an output port

    def test_chain_depth_scales_delay(self, lib):
        def chain(depth):
            module, b = new_module("c{}".format(depth), lib)
            net = module.add_input("a")
            clk = module.add_input("clk")
            for _ in range(depth):
                net = b.inv(net)
            q = module.add_output("q")
            b.dff(net, clk, q=q)
            return TimingAnalysis(module, lib).run().eval_delay

        assert chain(20) > 2 * chain(8)

    def test_min_period_and_fmax(self, mult_module, lib):
        res = TimingAnalysis(mult_module, lib).run()
        assert res.min_period == pytest.approx(res.eval_delay + res.setup)
        assert res.fmax == pytest.approx(1.0 / res.min_period)
        assert res.setup > 0  # captured by a register
        assert res.hold > 0

    def test_voltage_scaling(self, mult_module, lib):
        nom = TimingAnalysis(mult_module, lib).run()
        low = TimingAnalysis(mult_module, lib).run(vdd=0.4)
        assert low.eval_delay > 2 * nom.eval_delay
        assert low.eval_delay / nom.eval_delay == pytest.approx(
            lib.delay_scale(0.4), rel=1e-6)

    def test_scaled_helper(self, mult_module, lib):
        res = TimingAnalysis(mult_module, lib).run()
        double = res.scaled(2.0)
        assert double.eval_delay == pytest.approx(2 * res.eval_delay)
        assert double.setup == pytest.approx(2 * res.setup)

    def test_critical_path_traceable(self, mult_module, lib):
        res = TimingAnalysis(mult_module, lib).run()
        path = res.critical_path
        assert len(path.points) > 10      # deep array
        arrivals = [p[2] for p in path.points]
        assert arrivals == sorted(arrivals)  # monotone along the path
        assert "D" in path.capture or "port" in path.capture

    def test_no_capture_points_rejected(self, lib):
        m = Module("empty")
        m.add_input("a")
        with pytest.raises(TimingError):
            TimingAnalysis(m, lib).run()

    def test_multiplier_matches_table_regime(self, mult_module, lib):
        """T_eval must put the 50%-duty Fmax in Table I's range."""
        res = TimingAnalysis(mult_module, lib).run()
        fmax_scpg50 = 1.0 / (2 * res.min_period)
        assert 14.3e6 <= fmax_scpg50 <= 25e6

    def test_m0_slower_than_multiplier(self, mult_module, m0_module, lib):
        mult = TimingAnalysis(mult_module, lib).run()
        m0 = TimingAnalysis(m0_module, lib).run()
        assert m0.eval_delay > mult.eval_delay


class TestTimingMemo:
    """``timing_for`` shares one lowering per module and library while
    it is held, and lowers again after a netlist edit."""

    def test_reused_until_the_module_is_edited(self, lib):
        from repro.circuits.registry import build
        from repro.sta.analysis import timing_for

        from .walk import walk_timing

        top = build("counter16", lib)
        before = timing_for(top, lib)
        assert timing_for(top, lib) is before
        net = top.output_ports()[0].net
        top.add_instance("extra_inv", "INV_X1",
                         {"A": net, "Y": top.add_net("extra_y")},
                         library=lib)
        after = timing_for(top, lib)
        assert after is not before
        assert after.run().eval_delay == walk_timing(top, lib).eval_delay
