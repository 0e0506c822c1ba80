"""Implementation flows (Fig. 5)."""

import pytest

from repro.flows.traditional import run_traditional_flow
from repro.netlist.core import Design
from repro.netlist.stats import module_stats
from repro.netlist.validate import validate_module


class TestTraditionalFlow:
    def test_runs_and_reports(self, lib, fresh_mult):
        result = run_traditional_flow(Design(fresh_mult, lib))
        names = [s.name for s in result.steps]
        assert names == ["synthesize", "design-planning",
                         "clock-tree-synthesis", "routing"]
        assert result.metrics["area"] > 0
        assert result.metrics["fmax_hz"] > 1e6
        assert validate_module(result.flat.top).ok

    def test_cts_inserted_buffers(self, lib, fresh_mult):
        before = module_stats(fresh_mult).clock_cells
        result = run_traditional_flow(Design(fresh_mult, lib))
        after = module_stats(result.flat.top).clock_cells
        assert before == 0
        assert after >= 4  # 64 flops at fanout 16

    def test_functionality_preserved(self, lib, fresh_mult):
        import random

        from repro.sim.compiled import bus_values
        from ..sim.testbench import ClockedTestbench, read_bus

        result = run_traditional_flow(Design(fresh_mult, lib))
        tb = ClockedTestbench(result.flat.top)
        tb.reset_flops()
        rng = random.Random(1)
        prev = None
        for _ in range(15):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            tb.cycle({**bus_values("a", 16, a), **bus_values("b", 16, b)})
            p = read_bus(tb.sim, "p", 32)
            if prev is not None:
                assert p == prev[0] * prev[1]
            prev = (a, b)

    def test_summary_renders(self, lib, fresh_mult):
        result = run_traditional_flow(Design(fresh_mult, lib))
        text = result.summary()
        assert "clock-tree-synthesis" in text
        assert result.step("routing") is not None
        assert result.step("nonexistent") is None


class TestScpgFlow:
    def test_full_flow(self, mult_study):
        flow = mult_study.flow
        assert flow.baseline is not None
        step_names = [s.name for s in flow.steps]
        assert "scpg-split-and-isolate" in step_names
        assert "clock-tree-synthesis" in step_names
        assert validate_module(flow.scpg.flat.top).ok

    def test_area_overhead_reported(self, mult_study, m0_study):
        """Overheads in the paper's few-percent class (3.9% / 6.6%)."""
        assert 1.0 < mult_study.flow.area_overhead_pct < 9.0
        assert 1.0 < m0_study.flow.area_overhead_pct < 9.0

    def test_scpg_flat_includes_clock_tree(self, mult_study):
        stats = module_stats(mult_study.scpg.flat.top)
        assert stats.clock_cells >= 4
        assert stats.header_cells > 0
        assert stats.isolation_cells > 0

    def test_congestion_metric_prefers_centred(self, lib):
        from repro.circuits.multiplier import build_mult16
        from repro.techniques import technique

        design = Design(build_mult16(lib), lib)
        centred = technique("scpg").implement(design, lib, centred=True)
        corner = technique("scpg").implement(design, lib, centred=False)
        c_plan = centred.flow.metrics["floorplan"]
        k_plan = corner.flow.metrics["floorplan"]
        # Corner placement halves the shared perimeter: more congestion.
        assert k_plan.congestion > c_plan.congestion
