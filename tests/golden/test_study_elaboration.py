"""A case study elaborates its design once and never edits the memo.

The sizing pre-pass, the SCPG transform and (through a copy) the
baseline flow all read the memoised elaboration, and the numbers they
give stay those of the committed goldens.
"""

from dataclasses import asdict

from repro.analysis.figures import energy_series, power_series, subvt_series
from repro.analysis.tables import TABLE_I_FREQS, build_table
from repro.circuits import generators, registry
from repro.paper import multiplier_study

from .test_paper_outputs import FIG6_FREQS, _series_data


def test_multiplier_study_elaborates_once(monkeypatch, golden_check):
    family = generators.family("multiplier")
    builder = family.builder
    calls = []

    def counting(library, **params):
        calls.append(params)
        return builder(library, **params)

    monkeypatch.setattr(family, "builder", counting)
    multiplier_study.cache_clear()
    try:
        study = multiplier_study(fast=True)
    finally:
        multiplier_study.cache_clear()

    assert calls == [{"n": 16, "registered": True}]
    key = generators.canonical_key(registry.design_key("mult16"))
    assert generators.elaborate(key, study.library) is study.scpg.base.top
    assert not generators.edited_since_elaboration(key, study.library)
    assert study.base.top is not study.scpg.base.top

    golden_check("table1_mult16", [
        asdict(r) for r in build_table(study.model, TABLE_I_FREQS)])
    golden_check("fig6a_power_mult16", _series_data(
        power_series(study.model, FIG6_FREQS)))
    golden_check("fig6b_energy_mult16", _series_data(
        energy_series(study.model, FIG6_FREQS)))
    series = subvt_series(study.subvt, steps=40)
    golden_check("fig9_subvt_mult16",
                 {"label": series.label, "x": series.x, "y": series.y})
