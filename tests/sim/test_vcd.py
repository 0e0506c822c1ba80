"""VCD writer/parser."""

import io

import pytest

from repro.errors import NetlistError, SimulationError
from repro.netlist.core import Module
from repro.sim.compiled import schedule_for
from repro.sim.logic import X
from repro.sim.vcd import VcdWriter, dump_simulation, parse_vcd


def _rows(module, frames):
    """Settled value rows of a stepper: the start row, then one per
    applied frame."""
    stepper = schedule_for(module).stepper("clk")
    rows = [stepper.state_row()]
    for frame in frames:
        stepper.apply(frame)
        rows.append(stepper.state_row())
    return stepper.soa, rows


class TestWriter:
    def test_header_and_changes(self, toy_design):
        out = io.StringIO()
        soa, rows = _rows(toy_design.top, [{"a": 1, "b": 1}, {"a": 0}])
        names = ["a", "b", "n1"]
        columns = [soa.net_index[n] for n in names]
        writer = VcdWriter(out, names, module_name="toy")
        writer.set_time(0)
        writer.write_changes(rows[0], rows[1], columns)
        writer.set_time(10)
        writer.write_changes(rows[1], rows[2], columns)
        writer.close()
        text = out.getvalue()
        assert "$timescale 1ns $end" in text
        assert "$scope module toy $end" in text
        assert "#0" in text and "#10" in text
        changes, ids = parse_vcd(text)
        by_name = {name: ident for ident, name in ids.items()}
        assert (10, by_name["a"], 0) in changes
        assert (10, by_name["n1"], 1) in changes

    def test_time_must_be_monotonic(self, toy_design):
        writer = VcdWriter(io.StringIO(), ["a"])
        writer.set_time(5)
        with pytest.raises(SimulationError):
            writer.set_time(4)

    def test_unwatched_nets_skipped(self, toy_design):
        out = io.StringIO()
        soa, rows = _rows(toy_design.top, [{"a": 1, "b": 1}])
        writer = VcdWriter(out, ["a"])  # only a
        writer.write_changes(rows[0], rows[1], [soa.net_index["a"]])
        body = out.getvalue().split("$enddefinitions")[1]
        # exactly one change record for 'a' beyond the dumpvars block
        assert body.count("\n1") == 1

    def test_unchanged_rows_write_no_timestamp(self, toy_design):
        out = io.StringIO()
        soa, rows = _rows(toy_design.top, [])
        writer = VcdWriter(out, ["a"])
        writer.set_time(3)
        writer.write_changes(rows[0], rows[0], [soa.net_index["a"]])
        assert "#3" not in out.getvalue()


class TestRoundTrip:
    def test_dump_and_parse(self, lib):
        from repro.circuits.counters import build_counter

        counter = build_counter(lib, width=4)
        text = dump_simulation(counter, [{} for _ in range(6)])
        changes, names = parse_vcd(text)
        assert "q_0" in names.values()
        # q_0 toggles every cycle once flops initialise.
        ident = [i for i, n in names.items() if n == "q_0"][0]
        q0_changes = [c for c in changes if c[1] == ident]
        assert len(q0_changes) >= 5

    def test_parse_times(self):
        text = """$var wire 1 ! a $end
$enddefinitions $end
#0
1!
#10
0!
"""
        changes, names = parse_vcd(text)
        assert changes == [(0, "!", 1), (10, "!", 0)]
        assert names == {"!": "a"}

    def test_clock_argument_is_honoured(self, lib):
        module = Module("ckname")
        ck = module.add_input("ck")
        d = module.add_input("d")
        q = module.add_output("q")
        module.add_instance("ff", "DFF_X1", {"D": d, "CK": ck, "Q": q},
                            library=lib)
        text = dump_simulation(module, [{"d": 1}, {"d": 0}, {"d": 1}],
                               clock="ck")
        changes, names = parse_vcd(text)
        ident = [i for i, n in names.items() if n == "q"][0]
        # $dumpvars opens every net at X; q then follows d per edge.
        assert [(t, v) for t, i, v in changes if i == ident] \
            == [(0, X), (5, 1), (15, 0), (25, 1)]

    def test_combinational_loop_raises(self, lib):
        from .test_compiled import build_latch

        with pytest.raises(NetlistError, match="combinational loop"):
            dump_simulation(build_latch(lib), [{"s": 1, "r": 1}])
