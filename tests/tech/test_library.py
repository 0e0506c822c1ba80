"""Cell/library object model."""

import pytest

from repro.errors import LibraryError
from repro.tech.library import (
    Cell,
    CellKind,
    LeakageState,
    Library,
    Pin,
    PinDirection,
)
from repro.tech.scl90 import HVT, SVT


def _make_cell(name="G", kind=CellKind.COMBINATIONAL):
    return Cell(
        name=name,
        kind=kind,
        area=2.0,
        pins=[
            Pin("A", PinDirection.INPUT, capacitance=1e-15),
            Pin("Y", PinDirection.OUTPUT, function="!A"),
        ],
        leakage=1e-9,
        leakage_states=[
            LeakageState(power=2e-9, when="A"),
            LeakageState(power=0.5e-9, when="!A"),
        ],
        intrinsic_delay=1e-10,
        drive_resistance=1e4,
        c_internal=2e-15,
    )


class TestCell:
    def test_pin_lookup(self):
        cell = _make_cell()
        assert cell.pin("A").direction is PinDirection.INPUT
        assert cell.has_pin("Y")
        assert not cell.has_pin("Z")
        with pytest.raises(LibraryError):
            cell.pin("Z")

    def test_unknown_pin_names_cell_and_pin(self):
        with pytest.raises(LibraryError, match="cell G has no pin Z"):
            _make_cell().pin("Z")

    def test_pins_frozen_after_construction(self):
        """The pin tables are computed once, so the pins cannot change
        under them."""
        cell = _make_cell()
        assert isinstance(cell.pins, tuple)
        assert isinstance(cell.inputs, tuple)
        assert isinstance(cell.outputs, tuple)
        assert cell.input_names == ("A",)
        assert cell.output_names == ("Y",)
        with pytest.raises(AttributeError):
            cell.pins.append(Pin("B", PinDirection.INPUT))

    def test_duplicate_pins_rejected(self):
        with pytest.raises(LibraryError):
            Cell("BAD", CellKind.COMBINATIONAL, 1.0, pins=[
                Pin("A", PinDirection.INPUT),
                Pin("A", PinDirection.OUTPUT),
            ])

    def test_inputs_outputs(self):
        cell = _make_cell()
        assert [p.name for p in cell.inputs] == ["A"]
        assert [p.name for p in cell.outputs] == ["Y"]

    def test_output_expr_parsed(self):
        cell = _make_cell()
        assert cell.pin("Y").expr.eval({"A": 0}) == 1

    def test_delay_linear_in_load(self):
        cell = _make_cell()
        d0 = cell.delay(0.0)
        d1 = cell.delay(5e-15)
        assert d0 == pytest.approx(1e-10)
        assert d1 == pytest.approx(1e-10 + 1e4 * 5e-15)

    def test_delay_scaling(self):
        cell = _make_cell()
        assert cell.delay(1e-15, scale=2.0) == pytest.approx(
            2 * cell.delay(1e-15))

    def test_switching_energy(self):
        cell = _make_cell()
        e = cell.switching_energy(3e-15, 0.6)
        assert e == pytest.approx(0.5 * 5e-15 * 0.36)

    def test_state_dependent_leakage(self):
        cell = _make_cell()
        assert cell.leakage_for_state({"A": 1}) == pytest.approx(2e-9)
        assert cell.leakage_for_state({"A": 0}) == pytest.approx(0.5e-9)
        # Unknown state falls back to the average.
        assert cell.leakage_for_state({"A": None}) == pytest.approx(1e-9)

    def test_leakage_for_state_memoised(self, monkeypatch):
        """The state scan runs once per distinct pin-value tuple; a
        repeat hit never re-evaluates the match expressions."""
        cell = _make_cell()
        calls = []
        orig = LeakageState.matches

        def counting(self, values):
            calls.append(values)
            return orig(self, values)

        monkeypatch.setattr(LeakageState, "matches", counting)
        first = cell.leakage_for_state({"A": 0})
        scans = len(calls)
        assert scans > 0
        # Same tuple again: answer served from the memo, zero scans.
        assert cell.leakage_for_state({"A": 0}) == first
        assert len(calls) == scans
        # Missing pin and explicit None share a key (the expression
        # evaluator's values.get handling makes them equivalent).
        cell.leakage_for_state({"A": None})
        after_none = len(calls)
        cell.leakage_for_state({})
        assert len(calls) == after_none

    def test_memo_is_per_cell(self):
        a, b = _make_cell(), _make_cell()
        assert a.leakage_for_state({"A": 1}) == pytest.approx(2e-9)
        assert a._state_memo and not b._state_memo

    def test_kind_queries(self):
        comb = _make_cell()
        assert comb.is_combinational and not comb.is_sequential
        ff = Cell("FF", CellKind.SEQUENTIAL, 5.0, pins=[
            Pin("D", PinDirection.INPUT),
            Pin("CK", PinDirection.INPUT, is_clock=True),
            Pin("Q", PinDirection.OUTPUT),
        ])
        assert ff.is_sequential and not ff.is_combinational
        assert ff.clock_pin.name == "CK"
        assert comb.clock_pin is None


class TestLibrary:
    def _lib(self):
        return Library("testlib", 0.6, {"svt": SVT, "hvt": HVT},
                       wire_cap_per_fanout=1e-15)

    def test_requires_device_flavours(self):
        with pytest.raises(LibraryError):
            Library("bad", 0.6, {"svt": SVT})

    def test_add_and_lookup(self):
        lib = self._lib()
        cell = lib.add_cell(_make_cell())
        assert lib.cell("G") is cell
        assert "G" in lib
        assert len(lib) == 1
        with pytest.raises(LibraryError):
            lib.cell("NOPE")

    def test_duplicate_cell_rejected(self):
        lib = self._lib()
        lib.add_cell(_make_cell())
        with pytest.raises(LibraryError):
            lib.add_cell(_make_cell())

    def test_cells_of_kind(self):
        lib = self._lib()
        lib.add_cell(_make_cell("G1"))
        lib.add_cell(_make_cell("G2", kind=CellKind.BUFFER))
        assert [c.name for c in lib.cells_of_kind(CellKind.BUFFER)] == ["G2"]

    def test_device_model_unknown_flavour(self):
        lib = self._lib()
        with pytest.raises(LibraryError):
            lib.device_model("ulp")

    def test_scaling_identities(self):
        lib = self._lib()
        assert lib.delay_scale(0.6) == pytest.approx(1.0)
        assert lib.leakage_scale(0.6) == pytest.approx(1.0)
        assert lib.energy_scale(0.6) == pytest.approx(1.0)

    def test_scaling_directions(self):
        lib = self._lib()
        assert lib.delay_scale(0.4) > 1.0
        assert lib.leakage_scale(0.4) < 1.0
        assert lib.energy_scale(0.3) == pytest.approx((0.3 / 0.6) ** 2)
