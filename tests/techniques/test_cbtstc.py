"""CBTSTC: clustered tunable sleep transistor cells."""

import pickle

import pytest

from repro.errors import TechniqueError
from repro.netlist.stats import module_stats
from repro.netlist.validate import validate_module
from repro.techniques import technique
from repro.techniques.cbtstc import (
    BIAS_STEPS,
    DEFAULT_CLUSTER_SIZE,
    MAX_BIAS_FRACTION,
    CbtstcModel,
    CbtstcTable,
)


@pytest.fixture(scope="module")
def transformed(mult_handle):
    e_cycle, _ = mult_handle.switching()
    return technique("cbtstc").transform(mult_handle.design,
                                         energy_per_cycle=e_cycle)


@pytest.fixture(scope="module")
def model(mult_handle, transformed):
    e_cycle, _ = mult_handle.switching()
    return technique("cbtstc").sweep_model(
        transformed, library=mult_handle.session.library,
        e_cycle=e_cycle, base_leakage=mult_handle.leakage(),
        base_sta=mult_handle.sta())


class TestTransform:
    def test_every_gatable_gate_is_clustered_once(self, transformed,
                                                  mult_design):
        from repro.power.leakage import GATABLE_KINDS

        gatable = {i.name for i in mult_design.top.cell_instances()
                   if i.cell.kind in GATABLE_KINDS}
        seen = []
        for cluster in transformed.clusters:
            assert 1 <= len(cluster.instances) <= DEFAULT_CLUSTER_SIZE
            seen.extend(cluster.instances)
        assert len(seen) == len(set(seen))
        assert set(seen) == gatable

    def test_one_tstc_instance_per_cluster(self, transformed, mult_design):
        stats = module_stats(transformed.design.top)
        assert stats.header_cells == len(transformed.clusters)
        assert module_stats(mult_design.top).header_cells == 0
        assert validate_module(transformed.design.top).ok
        assert transformed.design.top.has_port("tstc_sleep")

    def test_clusters_follow_levelization(self, transformed):
        for cluster in transformed.clusters:
            assert cluster.level_lo <= cluster.level_hi
        starts = [c.level_lo for c in transformed.clusters]
        assert starts == sorted(starts)

    def test_activity_and_bias_tuning(self, transformed):
        for c in transformed.clusters:
            assert 0.0 <= c.p_active <= 1.0
            assert 0 <= c.bias_step <= BIAS_STEPS
            assert 0.0 <= c.bias_v <= \
                MAX_BIAS_FRACTION * transformed.design.library.vdd_nom
            # Deeper bias only for idler clusters.
            if c.bias_step == BIAS_STEPS:
                assert c.p_active <= 0.5
        assert any(c.ir_drop > 0 for c in transformed.clusters)

    def test_area_overhead_is_small_but_real(self, transformed):
        assert 0.0 < transformed.area_overhead_pct < 15.0

    def test_bad_cluster_size_rejected(self, mult_design):
        with pytest.raises(TechniqueError, match="cluster_size"):
            technique("cbtstc").transform(mult_design, cluster_size=0)


class TestModel:
    def test_saves_leakage_vs_ungated_baseline(self, mult_handle, model):
        base = mult_handle.leakage().total
        b = model.breakdown(1e4)
        assert b.p_leak < base
        assert b.p_overhead > 0.0

    def test_ir_drop_costs_fmax(self, mult_handle, model):
        assert 0 < model.fmax() < 1.0 / mult_handle.sta().min_period

    def test_infeasible_frequencies_raise(self, model):
        with pytest.raises(TechniqueError, match="Fmax"):
            model.breakdown(model.fmax() * 2)
        with pytest.raises(TechniqueError, match="positive"):
            model.breakdown(0.0)

    def test_batch_kernel_matches_point_path(self, model):
        freqs = [1e4, 1e6, model.fmax() * 2]
        batch = model._power_points(freqs)
        assert batch[-1] is None
        for f, b in zip(freqs[:2], batch[:2]):
            assert b.total == model.breakdown(f).total

    def test_artifact_table_is_picklable_and_deterministic(
            self, mult_handle, transformed, model):
        table = technique("cbtstc").artifact_table(transformed)
        assert isinstance(table, CbtstcTable)
        clone = pickle.loads(pickle.dumps(table))
        rebuilt = clone.build_model(
            mult_handle.session.library,
            mult_handle.switching()[0], mult_handle.leakage())
        assert isinstance(rebuilt, CbtstcModel)
        assert rebuilt == model
