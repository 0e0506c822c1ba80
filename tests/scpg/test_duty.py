"""SCPG-Max duty-cycle optimisation."""

import pytest

from repro.errors import ScpgError
from repro.scpg.clocking import ScpgTimingParams, scpg_feasible
from repro.scpg.duty import (
    DUTY_CYCLE_CAP,
    DUTY_CYCLE_FLOOR,
    clamp_duty,
    duty_sweep,
    optimise_duty,
)
from repro.scpg.power_model import Mode
from repro.sta.constraints import ClockSpec

TIMING = ScpgTimingParams(
    t_eval=30e-9, t_setup=0.5e-9, t_hold=0.15e-9, t_pgstart=1e-9)


class TestOptimiseDuty:
    def test_low_frequency_hits_cap(self):
        assert optimise_duty(1e4, TIMING) == DUTY_CYCLE_CAP

    def test_result_always_feasible(self):
        for freq in (1e4, 1e5, 1e6, 5e6, 1e7, 2e7):
            duty = optimise_duty(freq, TIMING)
            assert scpg_feasible(ClockSpec(freq, duty), TIMING)

    def test_mid_frequency_exact(self):
        freq = 10e6
        duty = optimise_duty(freq, TIMING)
        assert duty == pytest.approx(1.0 - TIMING.low_phase_demand * freq)

    def test_duty_below_50pct_near_fmax(self):
        """When T_clk/2 < demand < T_clk, the optimiser drops below 50%
        (the paper's extension of SCPG's applicability)."""
        freq = 0.7 / TIMING.low_phase_demand  # demand = 0.7 T
        duty = optimise_duty(freq, TIMING)
        assert 0 < duty < 0.5

    def test_impossible_frequency_raises(self):
        with pytest.raises(ScpgError, match="duty"):
            optimise_duty(1.2 / TIMING.low_phase_demand, TIMING)

    def test_invalid_frequency(self):
        with pytest.raises(ScpgError):
            optimise_duty(0, TIMING)


class TestClampDuty:
    """The single owner of the cap/floor arithmetic (ISSUE 7)."""

    def test_cap_applies(self):
        assert clamp_duty(1.5) == DUTY_CYCLE_CAP
        assert clamp_duty(0.5) == 0.5

    def test_floor_snap_absorbs_fp_noise(self):
        assert clamp_duty(DUTY_CYCLE_FLOOR - 1e-7) == DUTY_CYCLE_FLOOR
        assert clamp_duty(DUTY_CYCLE_FLOOR) == DUTY_CYCLE_FLOOR

    def test_below_floor_is_infeasible(self):
        assert clamp_duty(DUTY_CYCLE_FLOOR - 1e-3) is None
        assert clamp_duty(-1.0) is None

    def test_explicit_bounds_override_the_constants(self):
        assert clamp_duty(0.9, cap=0.6) == 0.6
        assert clamp_duty(0.05, floor=0.1) is None
        assert clamp_duty(0.2, cap=0.6, floor=0.1) == 0.2


class TestDutySweep:
    def test_power_monotone_in_duty(self, mult_study):
        model = mult_study.model
        points = duty_sweep(1e6, model.timing, model, steps=10)
        powers = [b.total for _d, b in points]
        assert powers == sorted(powers, reverse=True)

    def test_sweep_covers_feasible_range(self, mult_study):
        model = mult_study.model
        points = duty_sweep(1e6, model.timing, model, steps=10)
        duties = [d for d, _b in points]
        assert duties[0] < 0.1
        assert duties[-1] == pytest.approx(
            optimise_duty(1e6, model.timing))

    def test_single_step_returns_the_optimum(self, mult_study):
        # Regression: steps=1 used to divide by zero.
        model = mult_study.model
        points = duty_sweep(1e6, model.timing, model, steps=1)
        assert len(points) == 1
        assert points[0][0] == pytest.approx(
            optimise_duty(1e6, model.timing))

    def test_zero_steps_rejected(self, mult_study):
        model = mult_study.model
        with pytest.raises(ScpgError, match="step"):
            duty_sweep(1e6, model.timing, model, steps=0)

    def test_cap_and_floor_are_honoured(self, mult_study):
        # Regression: caller-supplied cap/floor were silently ignored.
        model = mult_study.model
        points = duty_sweep(1e4, model.timing, model, steps=5,
                            cap=0.5, floor=0.1)
        duties = [d for d, _b in points]
        assert duties[0] == pytest.approx(0.1)
        assert duties[-1] == pytest.approx(0.5)
        assert all(0.1 <= d <= 0.5 for d in duties)

    def test_cap_recalibration_reaches_both_paths(self, monkeypatch,
                                                  mult_study):
        """`optimise_duty` and `_freq_batch` share one clamp helper.

        Regression (ISSUE 7): the sweep batch path used to re-implement
        the clamp with its own import-time copy of ``DUTY_CYCLE_CAP``,
        so recalibrating the constant moved the optimiser but not the
        sweep and the two silently drifted apart.
        """
        from repro.scpg import duty as duty_mod

        monkeypatch.setattr(duty_mod, "DUTY_CYCLE_CAP", 0.5)
        model = mult_study.model
        freq = 1e4  # low enough that the uncapped solution is ~1.0
        (bd,) = model._freq_batch([freq], Mode.SCPG_MAX)
        assert bd.duty == 0.5
        assert optimise_duty(freq, model.timing) == 0.5
        assert model.power(freq, Mode.SCPG_MAX).duty == 0.5

    def test_scpgmax_equals_best_sweep_point(self, mult_study):
        model = mult_study.model
        best_sweep = min(
            b.total for _d, b in duty_sweep(1e6, model.timing, model,
                                            steps=15))
        scpg_max = model.power(1e6, Mode.SCPG_MAX).total
        assert scpg_max == pytest.approx(best_sweep, rel=1e-6)
