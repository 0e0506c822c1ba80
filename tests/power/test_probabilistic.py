"""Vectorless activity estimation."""

import pytest

from repro.circuits.builder import new_module
from repro.power.probabilistic import estimate_activity


class TestSignalProbabilities:
    def test_and_gate(self, lib):
        module, b = new_module("m", lib)
        x = module.add_input("x")
        y = module.add_input("y")
        out = module.add_output("out")
        b.cell("AND2_X1", A=x, B=y, Y=out)
        est = estimate_activity(module, input_probs={"x": 0.5, "y": 0.5})
        assert est.net_prob("out") == pytest.approx(0.25)

    def test_xor_gate(self, lib):
        module, b = new_module("m", lib)
        x = module.add_input("x")
        y = module.add_input("y")
        out = module.add_output("out")
        b.cell("XOR2_X1", A=x, B=y, Y=out)
        est = estimate_activity(module, input_probs={"x": 0.3, "y": 0.5})
        assert est.net_prob("out") == pytest.approx(
            0.3 * 0.5 + 0.7 * 0.5)

    def test_inverter_complements(self, lib):
        module, b = new_module("m", lib)
        x = module.add_input("x")
        out = module.add_output("out")
        b.inv(x, y=out)
        est = estimate_activity(module, input_probs={"x": 0.8})
        assert est.net_prob("out") == pytest.approx(0.2)

    def test_constants(self, lib):
        module, b = new_module("m", lib)
        x = module.add_input("x")
        out = module.add_output("out")
        b.cell("AND2_X1", A=x, B=module.const(0), Y=out)
        est = estimate_activity(module)
        assert est.net_prob("out") == pytest.approx(0.0)
        assert est.net_density("out") == pytest.approx(0.0)


class TestTransitionDensity:
    def test_xor_propagates_fully(self, lib):
        """XOR is sensitive to every input: D(out) = D(x) + D(y)."""
        module, b = new_module("m", lib)
        x = module.add_input("x")
        y = module.add_input("y")
        out = module.add_output("out")
        b.cell("XOR2_X1", A=x, B=y, Y=out)
        est = estimate_activity(
            module,
            input_probs={"x": 0.5, "y": 0.5},
            input_densities={"x": 0.3, "y": 0.4},
        )
        assert est.net_density("out") == pytest.approx(0.7)

    def test_and_attenuates(self, lib):
        """AND passes a transition only when the other input is 1."""
        module, b = new_module("m", lib)
        x = module.add_input("x")
        y = module.add_input("y")
        out = module.add_output("out")
        b.cell("AND2_X1", A=x, B=y, Y=out)
        est = estimate_activity(
            module,
            input_probs={"x": 0.5, "y": 0.5},
            input_densities={"x": 0.4, "y": 0.4},
        )
        assert est.net_density("out") == pytest.approx(0.4)  # 2*0.5*0.4

    def test_flop_resamples(self, lib):
        module, b = new_module("m", lib)
        clk = module.add_input("clk")
        d = module.add_input("d")
        q = module.add_output("q")
        b.dff(d, clk, q=q)
        est = estimate_activity(module, input_probs={"d": 0.25})
        assert est.net_prob("q") == pytest.approx(0.25)
        assert est.net_density("q") == pytest.approx(2 * 0.25 * 0.75)

    def test_multiplier_estimate_in_measured_ballpark(self, mult_module,
                                                      lib):
        """The vectorless estimate should land within ~3x of measurement
        (it is used for header pre-sizing only)."""
        import random

        from repro.power.dynamic import dynamic_power
        from repro.sim.compiled import bus_values
        from ..sim.testbench import ClockedTestbench

        est = estimate_activity(mult_module)
        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        rng = random.Random(3)
        for _ in range(60):
            tb.cycle({**bus_values("a", 16, rng.getrandbits(16)),
                      **bus_values("b", 16, rng.getrandbits(16))})
        measured = tb.sim.total_toggles() / tb.cycles
        estimated = sum(est.density.values())
        assert measured / 3.5 < estimated < measured * 3.5

    def test_feedback_converges(self, lib):
        """A counter (Q feeds back through logic) still gets estimates."""
        from repro.circuits.counters import build_counter

        counter = build_counter(lib, width=4)
        est = estimate_activity(counter)
        for i in range(4):
            assert 0.0 <= est.net_prob("q_{}".format(i)) <= 1.0
            assert 0.0 <= est.net_density("q_{}".format(i)) <= 1.0
