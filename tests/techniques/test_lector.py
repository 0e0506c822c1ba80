"""LECTOR: leakage-control transistor insertion."""

import pickle

import pytest

from repro.errors import TechniqueError
from repro.netlist.validate import validate_module
from repro.tech.library import CellKind
from repro.techniques import technique
from repro.techniques.lector import (
    LCT_SUFFIX,
    LectorModel,
    LectorTable,
    lector_library,
)


@pytest.fixture(scope="module")
def transformed(mult_design):
    return technique("lector").transform(mult_design)


@pytest.fixture(scope="module")
def model(mult_handle, transformed):
    return technique("lector").sweep_model(
        transformed, library=mult_handle.session.library,
        e_cycle=mult_handle.switching()[0],
        base_leakage=mult_handle.leakage(),
        base_sta=mult_handle.sta())


class TestVariantLibrary:
    def test_stacking_factor_is_physical(self, session):
        stack = session.library.device_model("svt") \
            .stack_leakage_factor(session.library.vdd_nom)
        # The stacking effect buys roughly an order of magnitude.
        assert 2.0 < stack < 1000.0

    def test_lct_twins_added_for_combinational_cells(self, session):
        lib = session.library
        lib_l = lector_library(lib)
        assert lib_l.name == lib.name + "-lector"
        for cell in lib.cells():
            assert lib_l.has_cell(cell.name)
            twin = cell.name + LCT_SUFFIX
            if cell.kind in (CellKind.COMBINATIONAL, CellKind.BUFFER) \
                    and cell.inputs and cell.outputs:
                assert lib_l.has_cell(twin)
            else:
                assert not lib_l.has_cell(twin)

    def test_twin_tradeoffs(self, session):
        lib_l = lector_library(session.library)
        inv = lib_l.cell("INV_X1")
        twin = lib_l.cell("INV_X1" + LCT_SUFFIX)
        assert twin.leakage < inv.leakage / 2
        assert all(t.power < s.power for t, s in
                   zip(twin.leakage_states, inv.leakage_states))
        assert twin.area > inv.area
        assert twin.intrinsic_delay > inv.intrinsic_delay
        assert twin.c_internal > inv.c_internal
        # Same pin interface: instances swap in place.
        assert [p.name for p in twin.pins] == [p.name for p in inv.pins]

    def test_penalties_amortise_over_gate_width(self, session):
        lib_l = lector_library(session.library)
        inv, inv_t = lib_l.cell("INV_X1"), lib_l.cell("INV_X1_LCT")
        nand, nand_t = lib_l.cell("NAND2_X1"), lib_l.cell("NAND2_X1_LCT")
        inv_penalty = inv_t.intrinsic_delay / inv.intrinsic_delay
        nand_penalty = nand_t.intrinsic_delay / nand.intrinsic_delay
        assert inv_penalty == pytest.approx(1.35)
        assert nand_penalty < inv_penalty


class TestTransform:
    def test_remap_swaps_gates_only(self, transformed, mult_design):
        top = transformed.design.top
        assert validate_module(top).ok
        assert transformed.swapped > 0
        lct = [i for i in top.cell_instances()
               if i.cell.name.endswith(LCT_SUFFIX)]
        assert len(lct) == transformed.swapped
        seq = [i for i in top.cell_instances() if i.cell.is_sequential]
        assert all(not i.cell.name.endswith(LCT_SUFFIX) for i in seq)
        # Net-for-net structural copy: same ports, same instance names.
        assert {p.name for p in top.ports} == \
            {p.name for p in mult_design.top.ports}

    def test_area_overhead_is_substantial(self, transformed):
        # Two extra transistors per gate cost real area (the paper's
        # trade for zero control logic).
        assert 10.0 < transformed.area_overhead_pct < 60.0

    def test_transform_takes_no_options(self, mult_design):
        with pytest.raises(TypeError, match="no options"):
            technique("lector").transform(mult_design, header_size=4)


class TestModel:
    def test_leakage_stacked_down_no_overhead_bucket(self, mult_handle,
                                                     model):
        base = mult_handle.leakage().total
        b = model.breakdown(1e4)
        assert b.p_leak < base / 2
        assert b.p_overhead == 0.0
        # Extra internal capacitance makes switching more expensive.
        assert model.e_cycle > mult_handle.switching()[0]

    def test_slower_than_base_design(self, mult_handle, model):
        assert 0 < model.fmax() < 1.0 / mult_handle.sta().min_period

    def test_infeasible_frequency_raises(self, model):
        with pytest.raises(TechniqueError, match="Fmax"):
            model.breakdown(model.fmax() * 2)

    def test_batch_kernel_matches_point_path(self, model):
        batch = model._power_points([1e4, 1e6])
        assert batch[0].total == model.breakdown(1e4).total
        assert batch[1].total == model.breakdown(1e6).total

    def test_artifact_table_roundtrip(self, mult_handle, transformed,
                                      model):
        table = technique("lector").artifact_table(transformed)
        assert isinstance(table, LectorTable)
        clone = pickle.loads(pickle.dumps(table))
        rebuilt = clone.build_model(mult_handle.session.library,
                                    mult_handle.switching()[0],
                                    mult_handle.leakage())
        assert isinstance(rebuilt, LectorModel)
        assert rebuilt == model
