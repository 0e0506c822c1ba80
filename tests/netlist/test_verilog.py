"""Structural Verilog writer/parser."""

import pytest

from repro.errors import VerilogSyntaxError
from repro.netlist.core import Design, Module
from repro.netlist.verilog import (
    dumps_verilog,
    parse_verilog,
    read_verilog,
    write_verilog,
)
from repro.netlist.stats import module_stats
from repro.netlist.validate import validate_module


class TestWriter:
    def test_toy_output_shape(self, toy_design):
        text = dumps_verilog(toy_design)
        assert "module toy (clk, a, b, y);" in text
        assert "NAND2_X1 g1 (.A(a), .B(b), .Y(n1));" in text
        assert text.strip().endswith("endmodule")

    def test_escaped_identifiers(self, lib):
        m = Module("esc")
        a = m.add_input("a")
        y = m.add_net("weird/name")
        m.add_instance("g/1", "INV_X1", {"A": a, "Y": y}, library=lib)
        text = dumps_verilog(m)
        assert "\\weird/name " in text
        assert "\\g/1 " in text

    def test_constants_emitted(self, lib):
        m = Module("c")
        y = m.add_output("y")
        m.add_instance("g", "OR2_X1", {"A": m.const(1), "B": m.const(0),
                                       "Y": y}, library=lib)
        text = dumps_verilog(m)
        assert "1'b1" in text and "1'b0" in text

    def test_hierarchy_leaves_first(self, toy_design):
        from repro.netlist.transform import split_combinational

        split = split_combinational(toy_design)
        text = dumps_verilog(split.design)
        assert text.index("module toy_comb") < text.index("module toy (")


class TestRoundTrip:
    def test_toy(self, toy_design, lib):
        text = dumps_verilog(toy_design)
        d2 = parse_verilog(text, lib)
        assert validate_module(d2.top).ok
        s1 = module_stats(toy_design.top)
        s2 = module_stats(d2.top)
        assert s1.by_cell == s2.by_cell

    def test_multiplier(self, mult_module, lib):
        text = dumps_verilog(mult_module)
        d2 = parse_verilog(text, lib)
        assert module_stats(d2.top).by_cell == \
            module_stats(mult_module).by_cell
        # And it still multiplies.
        from repro.sim.compiled import bus_values
        from ..sim.testbench import ClockedTestbench, read_bus

        tb = ClockedTestbench(d2.top)
        tb.reset_flops()
        tb.cycle({**bus_values("a", 16, 1234), **bus_values("b", 16, 567)})
        tb.cycle({})
        assert read_bus(tb.sim, "p", 32) == 1234 * 567

    def test_hierarchical(self, toy_design, lib):
        from repro.netlist.transform import split_combinational

        split = split_combinational(toy_design)
        text = dumps_verilog(split.design)
        d2 = parse_verilog(text, lib)
        assert set(d2.modules) == {"toy", "toy_comb"}
        flat = d2.flatten()
        assert validate_module(flat.top).ok

    def test_file_roundtrip(self, toy_design, lib, tmp_path):
        path = tmp_path / "toy.v"
        write_verilog(toy_design, path)
        d2 = read_verilog(path, lib)
        assert d2.top.name == "toy"


class TestParser:
    def test_assign_becomes_buffer(self, lib):
        text = """
        module m (a, y);
          input a; output y;
          assign y = a;
        endmodule
        """
        d = parse_verilog(text, lib)
        insts = d.top.instances()
        assert len(insts) == 1
        assert insts[0].cell.name == "BUF_X1"

    def test_implicit_wires(self, lib):
        text = """
        module m (a, y);
          input a; output y;
          INV_X1 g1 (.A(a), .Y(t));
          INV_X1 g2 (.A(t), .Y(y));
        endmodule
        """
        d = parse_verilog(text, lib)
        assert d.top.has_net("t")

    def test_top_selection(self, lib):
        text = """
        module first (a); input a; endmodule
        module second (b); input b; endmodule
        """
        assert parse_verilog(text, lib).top.name == "second"
        assert parse_verilog(text, lib, top="first").top.name == "first"

    def test_comments(self, lib):
        text = """
        // header comment
        module m (a, y); /* inline */ input a; output y;
          INV_X1 g (.A(a), .Y(y)); // trailing
        endmodule
        """
        assert parse_verilog(text, lib).top.name == "m"

    @pytest.mark.parametrize("bad,msg", [
        ("module m (a); endmodule", "direction"),
        ("module m (a); input a;", "endmodule"),
        ("module m (a); input a; FOO g (.A(a)); endmodule", "unknown cell"),
        ("module m (a); input a; wire w; garbage", "expected"),
        ("", "no modules"),
    ])
    def test_errors(self, lib, bad, msg):
        with pytest.raises(VerilogSyntaxError, match=msg):
            parse_verilog(bad, lib)

    def test_unknown_top_rejected(self, lib):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("module m (a); input a; endmodule", lib,
                          top="nope")
