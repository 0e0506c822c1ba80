"""Cross-technique comparison through the Session facade."""

import copy
import types

import pytest

import repro.techniques as techniques_pkg
from repro.errors import RegistryError, ReproError
from repro.runner import evaluate_grid, read_journal
from repro.scpg.power_model import Mode
from repro.techniques import (
    DEFAULT_COMPARE_FREQS,
    EligibilityReport,
    Technique,
    TechniqueBreakdown,
    TechniqueModel,
    format_comparison,
    register_technique,
    run_comparison,
)
from repro.techniques.compare import (
    BaselineModel,
    _breakdown_point,
    compare_cache_key,
)
from repro.techniques.scpg import ScpgTechnique

FREQS = [1e4, 1e5, 1e6]


@pytest.fixture(scope="module")
def comparison(mult_handle):
    return run_comparison(mult_handle, freqs=FREQS)


class TestRunComparison:
    def test_all_registered_techniques_compared(self, comparison):
        assert comparison.design == "mult16"
        assert comparison.techniques == ["cbtstc", "lector", "scpg"]
        assert comparison.freqs == FREQS

    def test_every_technique_saves_leakage_at_low_frequency(
            self, comparison):
        base = comparison.baseline.points[0]
        for entry in comparison.entries:
            b = entry.points[0]
            assert b is not None
            assert b.p_leak < base.p_leak
            assert entry.savings_pct[0] > 0.0

    def test_baseline_column(self, comparison):
        assert comparison.baseline.technique == "baseline"
        assert comparison.baseline.area_overhead_pct == 0.0
        assert comparison.baseline.savings_pct == [0.0] * len(FREQS)

    def test_entries_carry_citation_and_overhead(self, comparison):
        for entry in comparison.entries:
            assert entry.paper
            assert entry.fmax_hz > 0
            assert entry.area_overhead_pct > 0.0

    def test_scpg_bit_identical_to_the_scpg_power_model(self, mult_handle,
                                                        comparison):
        """The plugin adapter must not perturb the paper's numbers."""
        reference = mult_handle.power_model()._freq_batch(
            FREQS, Mode.SCPG_MAX)
        entry = comparison.entry("scpg")
        assert len(entry.points) == len(reference)
        for got, want in zip(entry.points, reference):
            assert got.total == want.total
            assert got.p_dynamic == want.p_dynamic
            assert got.p_overhead == want.p_overhead
            assert got.p_leak == want.leakage

    def test_points_above_fmax_are_none(self, mult_handle):
        cmp = run_comparison(mult_handle, freqs=[1e4, 1e12],
                             techniques=["lector"])
        entry = cmp.entry("lector")
        assert entry.points[0] is not None
        assert entry.points[1] is None
        assert entry.savings_pct == [pytest.approx(entry.savings_pct[0]),
                                     None]

    def test_technique_subset_and_unknown_name(self, mult_handle):
        cmp = run_comparison(mult_handle, freqs=[1e4],
                             techniques=["scpg"])
        assert cmp.techniques == ["scpg"]
        with pytest.raises(RegistryError, match="unknown technique"):
            run_comparison(mult_handle, freqs=[1e4],
                           techniques=["mtcmos"])

    def test_unknown_entry_lookup(self, comparison):
        with pytest.raises(KeyError):
            comparison.entry("mtcmos")

    def test_default_grid(self):
        assert DEFAULT_COMPARE_FREQS == (1e4, 1e5, 1e6, 5e6)


class _PluginModel(TechniqueModel):
    """A technique model defined outside the package: no batch method
    of its own, so ``_power_points`` is the base per-point loop."""

    technique = "plugin-xyz"

    def __init__(self, e_cycle, leak, fmax_hz):
        self.e_cycle, self.leak, self.fmax_hz = e_cycle, leak, fmax_hz

    def fmax(self):
        return self.fmax_hz

    def breakdown(self, freq_hz):
        self._check_freq(freq_hz)
        return TechniqueBreakdown(
            technique=self.technique, freq_hz=freq_hz,
            p_dynamic=self.e_cycle * freq_hz, p_overhead=0.0,
            p_leak=0.5 * self.leak)


class _PluginTechnique(Technique):
    name = "plugin-xyz"
    paper = "a plugin defined by its user"

    def check(self, design, clock_port="clk"):
        return EligibilityReport(self.name)

    def transform(self, design, **options):
        return design

    def sweep_model(self, transformed, *, library, e_cycle, base_leakage,
                    base_sta, vdd=None):
        return _PluginModel(e_cycle, base_leakage.total,
                            1.0 / (base_sta.eval_delay + base_sta.setup))


class TestBatchKernel:
    """``run_comparison`` hands the runner each model's own
    ``_power_points``; overrides of ``breakdown`` must still win."""

    def test_instance_breakdown_override_honoured(self, mult_handle,
                                                  monkeypatch):
        build = ScpgTechnique.sweep_model
        calls = []

        def sweep_model(self, *args, **kwargs):
            model = build(self, *args, **kwargs)

            def breakdown(freq_hz):
                calls.append(freq_hz)
                return TechniqueBreakdown(
                    technique="scpg", freq_hz=freq_hz, p_dynamic=1.0,
                    p_overhead=0.0, p_leak=0.0)

            model.breakdown = breakdown
            return model

        monkeypatch.setattr(ScpgTechnique, "sweep_model", sweep_model)
        cmp = run_comparison(mult_handle, freqs=FREQS,
                             techniques=["scpg"])
        assert calls == FREQS
        assert [b.total for b in cmp.entry("scpg").points] \
            == [1.0] * len(FREQS)

    @pytest.mark.parametrize("override", ["instance", "subclass"])
    def test_inner_model_power_override_honoured(self, override):
        from repro.scpg.power_model import ScpgPowerModel
        from repro.session import Session
        from repro.techniques.scpg import ScpgCompareModel

        s = Session(store=None)
        try:
            plain = s.design("counter16").power_model()
        finally:
            s.close()

        def doubled(self, freq_hz, mode, duty=None):
            return ScpgPowerModel.power(self, 2.0 * freq_hz, mode, duty)

        patched = copy.copy(plain)
        if override == "instance":
            patched.power = types.MethodType(doubled, patched)
        else:
            patched.__class__ = type("Doubled", (ScpgPowerModel,),
                                     {"power": doubled})
        model = ScpgCompareModel(patched)
        points = model._power_points([1e5])
        assert points == [model.breakdown(1e5)]
        assert points != ScpgCompareModel(plain)._power_points([1e5])

    def test_unregistered_model_batch_equals_per_point(self, tmp_path):
        from repro.session import Session

        freqs = [1e4, 1e6, 1e12]
        journal = tmp_path / "journal.jsonl"
        tech = register_technique(_PluginTechnique())
        s = Session(store=None, journal=str(journal))
        try:
            handle = s.design("counter16")
            cmp = run_comparison(handle, freqs=freqs,
                                 techniques=["plugin-xyz"])
            model = tech.sweep_model(
                None, library=s.library, e_cycle=handle.switching()[0],
                base_leakage=handle.leakage(), base_sta=handle.sta())
        finally:
            s.close()
            del techniques_pkg._REGISTRY["plugin-xyz"]
        per_point = evaluate_grid(_breakdown_point, freqs, context=model,
                                  on_error=(ReproError,))
        assert per_point[-1] is None
        assert cmp.entry("plugin-xyz").points == per_point
        batches = [e for e in read_journal(journal)
                   if e["event"] == "batch_started"
                   and e["label"] == "compare:counter16:plugin-xyz"]
        assert len(batches) == 1


class TestSessionFacade:
    def test_compare_techniques_by_name_and_handle(self, session,
                                                   mult_handle,
                                                   comparison):
        via_name = session.compare_techniques("mult16", freqs=FREQS)
        via_handle = session.compare_techniques(mult_handle, freqs=FREQS)
        assert via_name.as_dict() == comparison.as_dict()
        assert via_handle.as_dict() == comparison.as_dict()

    def test_session_lists_techniques(self, session):
        assert session.techniques() == ["cbtstc", "lector", "scpg"]

    def test_runner_labels_journal_the_comparison(self, tmp_path):
        from repro.session import Session

        journal = tmp_path / "journal.jsonl"
        s = Session(store=None, journal=str(journal))
        try:
            s.compare_techniques("mult16", freqs=[1e4],
                                 techniques=["lector"])
        finally:
            s.close()
        text = journal.read_text()
        assert "compare:mult16:baseline" in text
        assert "compare:mult16:lector" in text


class TestCacheAndRendering:
    def test_models_are_fingerprintable(self, mult_handle):
        base_sta = mult_handle.sta()
        model = BaselineModel(
            e_cycle=1e-12, leak_total=1e-6,
            t_eval=base_sta.eval_delay, t_setup=base_sta.setup, vdd=1.2)
        key = compare_cache_key(model)
        assert key is not None
        assert key == compare_cache_key(model)

    def test_format_comparison_renders_every_row(self, comparison):
        text = format_comparison(comparison)
        assert "baseline" in text
        for name in comparison.techniques:
            assert name in text
        assert "10kHz" in text and "1MHz" in text

    def test_comparison_series_for_figures(self, comparison):
        from repro.analysis.figures import comparison_series

        totals = comparison_series(comparison)
        assert [s.label for s in totals] == \
            ["baseline", "cbtstc", "lector", "scpg"]
        assert all(len(s.finite()) == len(FREQS) for s in totals)
        savings = comparison_series(comparison, metric="saving")
        assert [s.label for s in savings] == ["cbtstc", "lector", "scpg"]
        with pytest.raises(ValueError):
            comparison_series(comparison, metric="bogus")
