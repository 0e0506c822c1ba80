"""Every simulation entry point on netlists read from Verilog files.

A cross-coupled NAND latch has no levelized order: each entry point
raises the lowering's :class:`~repro.errors.NetlistError`, naming the
loop, instead of simulating it some other way.  A gated clock is no such
problem, nor is a ripple counter's state-driven clock: ``Session``
simulates both on the compiled engine, exactly like the event oracle.
"""

import pytest

from repro import Session
from repro.errors import NetlistError
from repro.isa.assembler import assemble
from repro.isa.trace import GateLevelCpu
from repro.netlist.equivalence import check_equivalence
from repro.netlist.verilog import read_verilog
from repro.sim.compiled import compile_schedule
from repro.sim.vcd import dump_simulation

from ..sim.test_compiled import RIPPLE_V
from ..sim.testbench import event_run

LOOP = "combinational loop in module srlatch involving u1, u2"

LATCH_CELLS = """
  NAND2_X1 u1 (.A(s), .B(qb), .Y(q));
  NAND2_X1 u2 (.A(r), .B(q), .Y(qb));
"""

GATED_V = """
module gated (clk, en, d, q);
  input clk;
  input en;
  input d;
  output q;
  wire gck;
  AND2_X1 g (.A(clk), .B(en), .Y(gck));
  DFF_X1 ff (.D(d), .CK(gck), .Q(q));
endmodule
"""


def _module_text(inputs, outputs, body):
    """Structural Verilog of module ``srlatch`` whose outputs all buffer
    the latch output ``q``."""
    ports = list(inputs) + list(outputs)
    lines = ["module srlatch ({});".format(", ".join(ports))]
    lines += ["  input {};".format(p) for p in inputs]
    lines += ["  output {};".format(p) for p in outputs]
    lines += ["  wire q;", "  wire qb;", body]
    lines += ["  BUF_X1 ob{0} (.A(q), .Y({1}));".format(k, p)
              for k, p in enumerate(outputs)]
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _bus(name, width):
    return ["{}_{}".format(name, i) for i in range(width)]


@pytest.fixture()
def latch_v(tmp_path):
    path = tmp_path / "latch.v"
    path.write_text(_module_text(["clk", "s", "r"], ["o"], LATCH_CELLS))
    return path


class TestLatchRaises:
    VECTORS = [{"s": 0, "r": 1}, {"s": 1, "r": 1}]

    def test_session_activity(self, latch_v):
        handle = Session(store=None).design(str(latch_v))
        with pytest.raises(NetlistError, match=LOOP):
            handle.activity(self.VECTORS)

    def test_run_vectors(self, latch_v, lib):
        module = read_verilog(str(latch_v), lib).top
        with pytest.raises(NetlistError, match=LOOP):
            compile_schedule(module).run_vectors(self.VECTORS)

    def test_check_equivalence(self, latch_v, lib):
        golden = read_verilog(str(latch_v), lib).top
        revised = read_verilog(str(latch_v), lib).top
        with pytest.raises(NetlistError, match=LOOP):
            check_equivalence(golden, revised)
        with pytest.raises(NetlistError, match=LOOP):
            check_equivalence(golden, revised, clock="clk")

    def test_dump_simulation(self, latch_v, lib):
        module = read_verilog(str(latch_v), lib).top
        with pytest.raises(NetlistError, match=LOOP):
            dump_simulation(module, self.VECTORS)

    def test_gate_level_cpu_with_m0_ports(self, tmp_path, lib):
        inputs = ["clk", "rstn", "s", "r"] + _bus("idata", 16) \
            + _bus("drdata", 32)
        outputs = _bus("iaddr", 32) + _bus("daddr", 32) \
            + _bus("dwdata", 32) + ["dwrite", "halted"]
        path = tmp_path / "latch_m0.v"
        path.write_text(_module_text(inputs, outputs, LATCH_CELLS))
        module = read_verilog(str(path), lib).top
        with pytest.raises(NetlistError, match=LOOP):
            GateLevelCpu(module, assemble("halt"))


def _session_activity(tmp_path, text, vectors):
    """``Session.activity`` on ``text`` saved as a Verilog file,
    asserted equal to the oracle; returns the run."""
    path = tmp_path / "design.v"
    path.write_text(text)
    handle = Session(store=None).design(str(path))
    run = handle.activity(vectors, group_size=2)
    oracle = event_run(handle.design.top, vectors, group_size=2)
    assert run.toggle_snapshot() == oracle.toggle_snapshot()
    assert run.final_values == oracle.final_values
    assert [(g.cycles, g.toggles) for g in run.trace.groups] \
        == [(g.cycles, g.toggles) for g in oracle.trace.groups]
    return run


class TestGatedClockActivity:
    def test_session_activity_matches_the_oracle(self, tmp_path):
        run = _session_activity(
            tmp_path, GATED_V,
            [{"en": 1, "d": 1}, {"en": 0, "d": 0}, {"en": 1, "d": 0},
             {"en": 1, "d": 1}, {"en": 0, "d": 1}])
        assert run.value("q") == 1

    def test_session_activity_on_a_ripple_counter(self, tmp_path):
        run = _session_activity(tmp_path, RIPPLE_V, [{}] * 5)
        assert (run.value("q1"), run.value("q0")) == (0, 1)
