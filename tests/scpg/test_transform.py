"""The SCPG netlist transform."""

import random

import pytest

from repro.errors import ScpgError
from repro.netlist.core import Design
from repro.netlist.stats import module_stats
from repro.netlist.validate import validate_module
from repro.sim.compiled import bus_values
from repro.tech.library import CellKind
from repro.techniques import technique

from ..sim.testbench import ClockedTestbench, read_bus


_scpg = technique("scpg")


@pytest.fixture(scope="module")
def scpg_mult(lib):
    from repro.circuits.multiplier import build_mult16

    return _scpg.transform(Design(build_mult16(lib), lib))


class TestStructure:
    def test_flat_design_valid(self, scpg_mult):
        assert validate_module(scpg_mult.flat.top).ok

    def test_headers_present(self, scpg_mult):
        stats = module_stats(scpg_mult.flat.top)
        assert stats.header_cells == scpg_mult.headers.count
        assert scpg_mult.headers.cell.drive_strength == 2  # paper: X2

    def test_isolation_on_every_boundary_output(self, scpg_mult):
        stats = module_stats(scpg_mult.flat.top)
        assert stats.isolation_cells == len(scpg_mult.boundary_outputs)
        assert stats.isolation_cells >= 32  # at least the product bits

    def test_controller_and_sense(self, scpg_mult):
        top = scpg_mult.design.top
        assert top.instance("u_isoctl_or").cell.name == "OR2_X1"
        assert scpg_mult.comb_module.instance("u_vddv_tie") is not None

    def test_override_port_added(self, scpg_mult):
        assert scpg_mult.design.top.has_port("override_n")

    def test_no_retention_registers_needed(self, scpg_mult):
        """Every flop stays in the always-on top (the paper's key
        simplification versus traditional power gating)."""
        comb_kinds = {i.cell.kind
                      for i in scpg_mult.comb_module.cell_instances()}
        assert CellKind.SEQUENTIAL not in comb_kinds

    def test_area_overhead_in_paper_class(self, scpg_mult):
        assert 1.0 < scpg_mult.area_overhead_pct < 9.0

    def test_upf_generated(self, scpg_mult):
        assert "create_power_domain PD_COMB" in scpg_mult.upf
        assert "HEADER_X2" in scpg_mult.upf
        assert "set_isolation" in scpg_mult.upf

    def test_domains_described(self, scpg_mult):
        switched = [d for d in scpg_mult.domains if d.switched]
        assert len(switched) == 1
        assert switched[0].name == "PD_COMB"
        assert len(switched[0].switch_cells) == scpg_mult.headers.count

    def test_missing_clock_rejected(self, lib):
        from repro.circuits.multiplier import build_mult16

        comb_only = build_mult16(lib, registered=False)
        with pytest.raises(ScpgError, match="clock"):
            _scpg.transform(Design(comb_only, lib))

    def test_forced_header_size(self, lib):
        from repro.circuits.multiplier import build_mult16

        scpg = _scpg.transform(Design(build_mult16(lib), lib),
                               header_size=8)
        assert scpg.headers.cell.drive_strength == 8


class TestFunctionalEquivalence:
    def _run_products(self, module, override_n, n=25, seed=11):
        tb = ClockedTestbench(module)
        tb.reset_flops()
        tb.apply({"override_n": override_n})
        rng = random.Random(seed)
        results = []
        prev = None
        for _ in range(n):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            tb.cycle({**bus_values("a", 16, a),
                      **bus_values("b", 16, b)})
            results.append(read_bus(tb.sim, "p", 32))
            prev = (a, b)
        return results

    def test_equivalent_with_gating_enabled(self, scpg_mult, lib):
        """SCPG's clamps + always-on registers preserve the pipeline
        contents even while gating toggles every cycle."""
        from repro.circuits.multiplier import build_mult16

        base = build_mult16(lib)
        tb = ClockedTestbench(base)
        tb.reset_flops()
        rng = random.Random(11)
        expected = []
        for _ in range(25):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            tb.cycle({**bus_values("a", 16, a), **bus_values("b", 16, b)})
            expected.append(read_bus(tb.sim, "p", 32))

        gated = self._run_products(scpg_mult.flat.top, override_n=1)
        assert gated == expected

    def test_equivalent_with_override(self, scpg_mult):
        enabled = self._run_products(scpg_mult.flat.top, override_n=1)
        overridden = self._run_products(scpg_mult.flat.top, override_n=0)
        assert enabled == overridden
