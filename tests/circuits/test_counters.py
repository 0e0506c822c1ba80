"""Counter and LFSR generators."""

import pytest

from repro.circuits.counters import build_counter, build_lfsr

from ..sim.testbench import ClockedTestbench, read_bus


class TestCounter:
    def test_counts_up(self, lib):
        tb = ClockedTestbench(build_counter(lib, width=6))
        tb.reset_flops()
        for expected in range(1, 20):
            tb.cycle()
            assert read_bus(tb.sim, "q", 6) == expected % 64

    def test_wraps(self, lib):
        tb = ClockedTestbench(build_counter(lib, width=3))
        tb.reset_flops()
        for _ in range(8):
            tb.cycle()
        assert read_bus(tb.sim, "q", 3) == 0


class TestLfsr:
    def test_escapes_zero_state(self, lib):
        tb = ClockedTestbench(build_lfsr(lib, width=8))
        tb.reset_flops()
        tb.cycle()
        assert read_bus(tb.sim, "q", 8) != 0

    def test_period_is_maximal(self, lib):
        """XNOR-form LFSR visits 2^n - 1 states (all-ones is the lockup)."""
        width = 8
        tb = ClockedTestbench(build_lfsr(lib, width=width))
        tb.reset_flops()
        seen = set()
        for _ in range(2 ** width):
            tb.cycle()
            seen.add(read_bus(tb.sim, "q", width))
        assert len(seen) == 2 ** width - 1

    def test_unsupported_width(self, lib):
        with pytest.raises(ValueError):
            build_lfsr(lib, width=7)
