"""Seeded inputs, digests, the paper-agreement metric and BENCHMARK.json."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
from workloads import (ANCHOR_HZ, COMPARE_BAND, COMPARE_POINTS,
                       DESIGN_POOL, EXTRA_FAMILIES, WORKLOADS, canonical,
                       design_space_inputs, digest, saving_err_pts,
                       section)

ROOT = Path(__file__).resolve().parents[2]


def test_design_space_inputs_are_seed_determined():
    first = design_space_inputs(7)
    assert first == design_space_inputs(7)
    assert first != design_space_inputs(8)
    specs = [r.spec for r in first]
    assert len(specs) == len(set(specs)) \
        == len(DESIGN_POOL) + len(EXTRA_FAMILIES)
    pool = {spec for family in DESIGN_POOL.values() for spec in family}
    assert set(specs) <= pool
    for family, members in DESIGN_POOL.items():
        assert any(spec in members for spec in specs), family
    for request in first:
        assert len(request.freqs) == COMPARE_POINTS
        assert list(request.freqs) == sorted(request.freqs)
        assert COMPARE_BAND[0] <= request.freqs[0]
        assert request.freqs[-1] <= COMPARE_BAND[1]
        assert set(request.table_freqs) <= set(request.freqs)


def test_digest_is_float_exact():
    assert digest([0.1, None]) == digest([0.1, None])
    assert digest([0.1]) != digest([0.1 + 2 ** -56])
    with pytest.raises(TypeError):
        canonical(object())


def _paper_rows():
    from repro.tech.calibration import MULTIPLIER_ANCHORS

    return list(MULTIPLIER_ANCHORS.rows)


def test_saving_err_pts_holds_out_the_anchor_rows():
    paper = _paper_rows()
    measured = [replace(row, saving_scpg_pct=row.saving_scpg_pct + 2.0,
                        saving_scpgmax_pct=row.saving_scpgmax_pct - 4.0)
                for row in paper]
    # The 10 kHz row is off by 50 points; it must not count.
    assert paper[0].freq_hz == ANCHOR_HZ
    measured[0] = replace(measured[0], saving_scpg_pct=99.0)
    assert saving_err_pts([(measured, paper)]) == pytest.approx(3.0)


def test_saving_err_pts_rejects_mispaired_or_infeasible_rows():
    paper = _paper_rows()
    with pytest.raises(ValueError):
        saving_err_pts([(paper[1:], paper[:-1])])
    infeasible = [replace(row, saving_scpg_pct=None) for row in paper]
    with pytest.raises(ValueError):
        saving_err_pts([(infeasible, paper)])


def test_saving_err_pts_on_build_table_rows():
    from repro.analysis.tables import TABLE_I_FREQS, build_table
    from repro.paper import multiplier_study

    study = multiplier_study(fast=True)
    rows = build_table(study.model, TABLE_I_FREQS)
    paper = study.anchors.rows
    expected = [abs(r.saving_scpg_pct - p.saving_scpg_pct)
                for r, p in zip(rows, paper) if r.freq_hz > ANCHOR_HZ]
    expected += [abs(r.saving_scpgmax_pct - p.saving_scpgmax_pct)
                 for r, p in zip(rows, paper) if r.freq_hz > ANCHOR_HZ]
    assert len(expected) == 2 * (len(TABLE_I_FREQS) - 1)
    assert saving_err_pts([(rows, paper)]) \
        == pytest.approx(sum(expected) / len(expected))


def test_section_extracts_one_heading_block():
    text = "# T\n\n## A\n1\n\n## B\n2\n"
    assert section(text, "## A") == "## A\n1\n"
    assert section(text, "## B") == "## B\n2\n"
    assert section(text, "## C") is None


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
