"""Frequency sweeps and convergence finding."""

import pytest

from repro.analysis.sweep import FrequencySweep, find_convergence, sweep
from repro.errors import ScpgError
from repro.scpg.power_model import Mode


class TestSweep:
    def test_shapes(self, mult_study):
        freqs = [1e5, 1e6, 5e6]
        data = sweep(mult_study.model, freqs)
        assert data.freqs == freqs
        for mode in (Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX):
            assert len(data.results[mode]) == 3

    def test_infeasible_points_none(self, mult_study):
        fmax_nopg = mult_study.model.feasible_fmax(Mode.NO_PG)
        data = sweep(mult_study.model, [fmax_nopg])
        assert data.results[Mode.NO_PG][0] is not None
        assert data.results[Mode.SCPG][0] is None
        assert data.totals(Mode.SCPG) == [None]
        assert data.energies(Mode.SCPG) == [None]

    def test_power_monotone_in_frequency(self, mult_study):
        freqs = [0.1e6 * k for k in range(1, 30)]
        data = sweep(mult_study.model, freqs, modes=(Mode.NO_PG,))
        totals = data.totals(Mode.NO_PG)
        assert totals == sorted(totals)


class TestConvergence:
    def test_multiplier_converges_near_paper(self, mult_study):
        """Paper: the three setups converge at approximately 15 MHz."""
        fc = find_convergence(mult_study.model, Mode.SCPG)
        if fc is None:
            # Saving persists across the feasible range; must then still
            # be saving at Fmax.
            fmax = mult_study.model.feasible_fmax(Mode.SCPG)
            nopg = mult_study.model.power(fmax, Mode.NO_PG).total
            scpg = mult_study.model.power(fmax, Mode.SCPG).total
            assert scpg < nopg
        else:
            assert 9e6 < fc < 25e6

    def test_m0_converges_lower(self, mult_study, m0_study):
        """Paper: M0 converges around 5 MHz, well below the multiplier."""
        fc_m0 = find_convergence(m0_study.model, Mode.SCPG)
        assert fc_m0 is not None
        assert 2e6 < fc_m0 < 9e6
        fc_mult = find_convergence(mult_study.model, Mode.SCPG)
        if fc_mult is not None:
            assert fc_m0 < fc_mult

    def test_m0_negative_savings_beyond_convergence(self, m0_study):
        """Table II: -2.7% at 5 MHz, -12% at 10 MHz."""
        model = m0_study.model
        fc = find_convergence(model, Mode.SCPG)
        f = min(fc * 1.5, model.feasible_fmax(Mode.SCPG))
        nopg = model.power(f, Mode.NO_PG)
        scpg = model.power(f, Mode.SCPG)
        assert scpg.saving_vs(nopg) < 0

    def test_no_saving_at_floor_rejected(self, m0_study):
        model = m0_study.model
        fc = find_convergence(model, Mode.SCPG)
        with pytest.raises(ScpgError):
            # Starting the bisection above convergence: no saving there.
            find_convergence(model, Mode.SCPG, f_lo=fc * 1.2)


class TestConvergenceCaching:
    """Regression: the bisection must not re-pay duplicated power calls."""

    @staticmethod
    def _counting(model, monkeypatch):
        calls = []
        real = model.power

        def counting(freq, mode):
            calls.append((freq, mode))
            return real(freq, mode)

        # Not monkeypatch.setattr: its undo would "restore" the saved
        # *bound method* as an instance attribute on this session-scoped
        # model, leaving it non-pristine (sweep's batch kernel refuses
        # overridden models) for every later test.  Patching the instance
        # dict makes the undo *delete* the override instead.
        monkeypatch.setitem(vars(model), "power", counting)
        return calls

    def test_warm_cache_rerun_evaluates_nothing(
            self, m0_study, tmp_path, monkeypatch):
        from repro.runner import Runner, SqliteStore

        model = m0_study.model
        calls = self._counting(model, monkeypatch)

        cold_runner = Runner(cache=SqliteStore(tmp_path / "store.sqlite"))
        fc_cold = find_convergence(model, Mode.SCPG, runner=cold_runner)
        n_cold = len(calls)
        assert n_cold > 0

        del calls[:]
        warm_runner = Runner(cache=SqliteStore(tmp_path / "store.sqlite"))
        fc_warm = find_convergence(model, Mode.SCPG, runner=warm_runner)
        assert calls == []
        assert fc_warm == fc_cold
        assert warm_runner.stats.evaluated == 0
        assert warm_runner.stats.cache_hits == warm_runner.stats.points

    def test_evaluation_count_reduction(
            self, m0_study, tmp_path, monkeypatch):
        """Two searches cost one search's evaluations with a cache."""
        from repro.runner import Runner, SqliteStore

        model = m0_study.model
        calls = self._counting(model, monkeypatch)

        fc_bare = find_convergence(model, Mode.SCPG)
        find_convergence(model, Mode.SCPG)
        n_bare = len(calls)

        del calls[:]
        runner = Runner(cache=SqliteStore(tmp_path / "conv.sqlite"))
        assert find_convergence(model, Mode.SCPG, runner=runner) == fc_bare
        assert find_convergence(model, Mode.SCPG, runner=runner) == fc_bare
        assert 0 < len(calls) == n_bare // 2

    def test_sweep_warms_convergence(self, m0_study, tmp_path, monkeypatch):
        """Sweeps and searches share one cache namespace per model."""
        from repro.runner import Runner, SqliteStore

        model = m0_study.model
        runner = Runner(cache=SqliteStore(tmp_path / "store.sqlite"))
        sweep(model, [1e4], modes=(Mode.NO_PG, Mode.SCPG), runner=runner)

        calls = self._counting(model, monkeypatch)
        find_convergence(model, Mode.SCPG, runner=runner)
        # The f_lo endpoint (1e4 for both modes) came from the sweep's
        # entries; only genuinely new frequencies were evaluated.
        assert (1e4, Mode.NO_PG) not in calls
        assert (1e4, Mode.SCPG) not in calls
        assert len(calls) > 0
