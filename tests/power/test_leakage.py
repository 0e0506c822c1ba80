"""Leakage analysis."""

import numpy as np
import pytest

from repro.power.leakage import (
    GATABLE_KINDS,
    leakage_power,
    state_leakage_trace,
)
from repro.tech.library import CellKind

from ..sim.event import Simulator
from .walk import leakage_power_walk


class TestAverageLeakage:
    def test_totals_add_up(self, mult_module, lib):
        report = leakage_power(mult_module, lib)
        assert report.total == pytest.approx(
            sum(report.by_kind.values()))
        assert report.total == pytest.approx(sum(report.by_cell.values()))

    def test_split_properties(self, mult_module, lib):
        report = leakage_power(mult_module, lib)
        assert report.combinational > 0
        assert report.always_on > 0
        assert report.headers == 0.0  # no headers yet
        assert report.total == pytest.approx(
            report.combinational + report.always_on + report.headers)

    def test_gatable_kinds_sane(self):
        assert CellKind.COMBINATIONAL in GATABLE_KINDS
        assert CellKind.SEQUENTIAL not in GATABLE_KINDS
        assert CellKind.ISOLATION not in GATABLE_KINDS

    def test_voltage_scaling(self, mult_module, lib):
        nom = leakage_power(mult_module, lib)
        low = leakage_power(mult_module, lib, vdd=0.4)
        high = leakage_power(mult_module, lib, vdd=0.9)
        assert low.total < nom.total < high.total
        assert low.total / nom.total == pytest.approx(
            lib.leakage_scale(0.4), rel=1e-6)

    def test_temperature_scaling(self, mult_module, lib):
        nom = leakage_power(mult_module, lib)
        hot = leakage_power(mult_module, lib, temp_c=85.0)
        assert hot.total > 2 * nom.total  # leakage is strongly thermal

    def test_str(self, mult_module, lib):
        text = str(leakage_power(mult_module, lib))
        assert "leakage @" in text


class TestStateDependentLeakage:
    def test_state_changes_total(self, mult_module, lib):
        sim = Simulator(mult_module)
        sim.force_flop_state(0)
        from repro.sim.compiled import bus_values

        sim.set_inputs({**bus_values("a", 16, 0), **bus_values("b", 16, 0),
                        "clk": 0})
        low = leakage_power(mult_module, lib,
                            state=sim.state_snapshot())

        sim.set_inputs({**bus_values("a", 16, 0xFFFF),
                        **bus_values("b", 16, 0xFFFF)})
        sim.set_input("clk", 1)
        sim.set_input("clk", 0)
        high = leakage_power(mult_module, lib,
                             state=sim.state_snapshot())

        # All-ones operands turn on far more transistors (stack effect).
        assert high.total > low.total

    def test_state_bounded_by_extremes(self, toy_design, lib):
        avg = leakage_power(toy_design.top, lib)
        sim = Simulator(toy_design.top)
        sim.force_flop_state(0)
        sim.set_inputs({"a": 0, "b": 0, "clk": 0})
        stated = leakage_power(toy_design.top, lib,
                               state=sim.state_snapshot())
        # State-dependent values stay within the library's 0.7..1.3 band.
        assert 0.5 * avg.total < stated.total < 1.5 * avg.total


def _assert_reports_identical(got, ref):
    assert got.vdd == ref.vdd
    assert got.total == ref.total
    assert got.by_kind == ref.by_kind
    assert got.by_cell == ref.by_cell


class TestVectorizedAgainstWalk:
    """``leakage_power`` runs over the ``LeakageSoa`` lowering; the
    per-instance walk is kept as the differential oracle and every
    number must match it bit-for-bit (``==``, never approx)."""

    def test_stateless_identical(self, mult_module, lib):
        for vdd in (None, 0.9, 0.45, 0.25):
            _assert_reports_identical(
                leakage_power(mult_module, lib, vdd=vdd),
                leakage_power_walk(mult_module, lib, vdd=vdd))

    def test_stateful_identical(self, mult_module, lib):
        from repro.sim.compiled import bus_values

        sim = Simulator(mult_module)
        sim.force_flop_state(0)
        for a, b in ((0, 0), (0xFFFF, 0xFFFF), (0x5A5A, 0x1234)):
            sim.set_inputs({**bus_values("a", 16, a),
                            **bus_values("b", 16, b), "clk": 0})
            sim.set_input("clk", 1)
            sim.set_input("clk", 0)
            state = sim.state_snapshot()
            _assert_reports_identical(
                leakage_power(mult_module, lib, state=state),
                leakage_power_walk(mult_module, lib, state=state))

    def test_state_with_x_values_identical(self, mult_module, lib):
        """Unresolved (X) nets fold to the state-independent default on
        both paths."""
        sim = Simulator(mult_module)  # flops left unknown
        from repro.sim.compiled import bus_values

        sim.set_inputs({**bus_values("a", 16, 1), "clk": 0})
        state = sim.state_snapshot()
        _assert_reports_identical(
            leakage_power(mult_module, lib, state=state),
            leakage_power_walk(mult_module, lib, state=state))

    def test_toy_design_identical(self, toy_design, lib):
        sim = Simulator(toy_design.top)
        sim.force_flop_state(0)
        sim.set_inputs({"a": 1, "b": 0, "clk": 0})
        state = sim.state_snapshot()
        _assert_reports_identical(
            leakage_power(toy_design.top, lib, state=state),
            leakage_power_walk(toy_design.top, lib, state=state))


class TestStateLeakageTrace:
    @pytest.fixture(scope="class")
    def cosim_states(self, m0_module):
        from repro.isa.assembler import assemble
        from repro.isa.trace import GateLevelCpu

        cpu = GateLevelCpu(m0_module, assemble("""
            movi r1, #12
            movi r2, #64
        loop:
            str  r1, [r2, #0]
            addi r1, #-1
            bne  loop
            halt
        """), record_states=True)
        cpu.run()
        return cpu.state_trace(), cpu.state_net_names

    def test_matches_per_cycle_walk(self, m0_module, lib, cosim_states):
        states, names = cosim_states
        trace = state_leakage_trace(m0_module, lib, states)
        assert trace.cycles == len(states)
        for c in (0, 1, len(states) // 2, len(states) - 1):
            snap = dict(zip(names, states[c].tolist()))
            ref = leakage_power_walk(m0_module, lib, state=snap)
            assert trace.total[c] == ref.total
            for kind, arr in trace.by_kind.items():
                assert arr[c] == ref.by_kind.get(kind, 0.0)

    def test_dict_snapshots_match_matrix(self, m0_module, lib,
                                         cosim_states):
        states, names = cosim_states
        snaps = [dict(zip(names, row.tolist())) for row in states[:4]]
        via_dicts = state_leakage_trace(m0_module, lib, snaps)
        via_matrix = state_leakage_trace(m0_module, lib, states[:4])
        assert np.array_equal(via_dicts.total, via_matrix.total)

    def test_split_properties(self, m0_module, lib, cosim_states):
        states, _ = cosim_states
        trace = state_leakage_trace(m0_module, lib, states)
        recomposed = trace.combinational + trace.always_on + trace.headers
        assert np.allclose(recomposed, trace.total, rtol=1e-12)
        assert np.all(trace.combinational > 0)
        assert np.all(trace.headers == 0.0)  # untransformed core

    def test_single_row_promoted(self, m0_module, lib, cosim_states):
        states, _ = cosim_states
        trace = state_leakage_trace(m0_module, lib, states[0])
        assert trace.cycles == 1
        assert trace.total[0] == state_leakage_trace(
            m0_module, lib, states[:1]).total[0]

    def test_empty_trace(self, m0_module, lib, cosim_states):
        states, _ = cosim_states
        trace = state_leakage_trace(m0_module, lib, states[:0])
        assert trace.cycles == 0

    def test_vdd_scaling(self, m0_module, lib, cosim_states):
        states, _ = cosim_states
        low = state_leakage_trace(m0_module, lib, states[:3], vdd=0.4)
        nom = state_leakage_trace(m0_module, lib, states[:3])
        assert (low.total < nom.total).all()


class TestMemoAfterEdit:
    """The memoised leakage lowering and compiled schedule follow netlist
    edits: a module's ``generation`` moves, and the memo lowers again."""

    @staticmethod
    def _grow(top, lib):
        """Hang one extra inverter off the first output port's net."""
        net = top.output_ports()[0].net
        top.add_instance("extra_inv", "INV_X1",
                         {"A": net, "Y": top.add_net("extra_y")},
                         library=lib)

    def test_leakage_power_sees_an_added_instance(self, lib):
        from repro.circuits.registry import build

        top = build("counter16", lib)
        before = leakage_power(top, lib)
        self._grow(top, lib)
        after = leakage_power(top, lib)
        ref = leakage_power_walk(top, lib)
        assert after.total == ref.total
        assert after.by_cell == ref.by_cell
        assert after.total > before.total

    def test_schedule_memo_sees_an_added_instance(self, lib):
        from repro.circuits.registry import build
        from repro.sim.compiled import schedule_for

        top = build("counter16", lib)
        before = schedule_for(top)
        assert schedule_for(top) is before
        self._grow(top, lib)
        after = schedule_for(top)
        assert after is not before
        assert len(after.soa.net_names) == len(before.soa.net_names) + 1
