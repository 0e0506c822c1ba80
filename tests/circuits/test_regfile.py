"""Register file: writes, reads, enables."""

import random

import pytest

from repro.circuits.regfile import build_register_file
from repro.errors import NetlistError
from repro.sim.compiled import bus_values

from ..sim.testbench import ClockedTestbench, read_bus


@pytest.fixture()
def rf_tb(lib):
    tb = ClockedTestbench(build_register_file(lib, nregs=8, width=16))
    tb.reset_flops()
    return tb


def _write(tb, addr, value, we=1):
    tb.cycle({
        "we": we,
        **bus_values("waddr", 3, addr),
        **bus_values("wdata", 16, value),
        **bus_values("ra", 3, 0),
        **bus_values("rb", 3, 0),
    })


def _read(tb, port, addr):
    tb.apply(bus_values("ra" if port == "a" else "rb", 3, addr))
    return read_bus(tb.sim, "qa" if port == "a" else "qb", 16)


class TestRegisterFile:
    def test_write_then_read_both_ports(self, rf_tb):
        _write(rf_tb, 3, 0xBEEF)
        assert _read(rf_tb, "a", 3) == 0xBEEF
        assert _read(rf_tb, "b", 3) == 0xBEEF

    def test_write_enable_gates(self, rf_tb):
        _write(rf_tb, 2, 0x1234)
        _write(rf_tb, 2, 0x5678, we=0)
        assert _read(rf_tb, "a", 2) == 0x1234

    def test_write_targets_only_one_register(self, rf_tb):
        for r in range(8):
            _write(rf_tb, r, 0x100 + r)
        _write(rf_tb, 4, 0xAAAA)
        for r in range(8):
            expected = 0xAAAA if r == 4 else 0x100 + r
            assert _read(rf_tb, "a", r) == expected

    def test_random_program_of_writes(self, rf_tb):
        rng = random.Random(9)
        shadow = [0] * 8
        for _ in range(80):
            addr = rng.randrange(8)
            value = rng.getrandbits(16)
            _write(rf_tb, addr, value)
            shadow[addr] = value
        for r in range(8):
            assert _read(rf_tb, "b", r) == shadow[r]

    def test_dual_port_independent_addresses(self, rf_tb):
        _write(rf_tb, 1, 111)
        _write(rf_tb, 5, 555)
        rf_tb.apply({
            **bus_values("ra", 3, 1),
            **bus_values("rb", 3, 5),
        })
        assert read_bus(rf_tb.sim, "qa", 16) == 111
        assert read_bus(rf_tb.sim, "qb", 16) == 555

    def test_bad_nregs_rejected(self, lib):
        from repro.circuits.builder import new_module
        from repro.circuits.regfile import add_register_file

        module, b = new_module("bad", lib)
        clk = module.add_input("clk")
        we = module.add_input("we")
        waddr = b.input_bus("waddr", 2)
        wdata = b.input_bus("wdata", 4)
        ra = b.input_bus("ra", 2)
        with pytest.raises(NetlistError):
            add_register_file(b, clk, waddr, wdata, we, ra, nregs=5)
