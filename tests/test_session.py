"""The Session facade: registry round-trips and handle-level analyses."""

import pytest

from repro import Session
from repro.errors import RegistryError, SupplyError
from repro.runner import SqliteStore
from repro.scpg.power_model import Mode, PowerBreakdown


@pytest.fixture(scope="module")
def session(lib):
    return Session(library=lib, store=None)


class TestSession:
    def test_designs_match_registry(self, session):
        from repro.circuits.registry import available_designs

        assert session.designs() == available_designs()

    def test_default_library_lazy(self):
        s = Session(store=None)
        assert s._library is None
        assert s.library.name == "scl90"

    def test_explicit_library_used(self, session, lib):
        assert session.library is lib

    def test_unknown_design(self, session):
        with pytest.raises(RegistryError):
            session.design("mult32").design

    def test_handle_memoises_design(self, session):
        handle = session.design("counter16")
        assert handle.design is handle.design

    def test_handle_memoises_nominal_leakage(self, session, monkeypatch):
        from repro.power import leakage

        calls = []
        walk = leakage.leakage_power

        def counted(*args, **kwargs):
            calls.append(kwargs.get("vdd"))
            return walk(*args, **kwargs)

        monkeypatch.setattr(leakage, "leakage_power", counted)
        handle = session.design("counter16")
        nominal = handle.leakage()
        handle.power_model()
        handle.subvt_model()
        session.compare_techniques(handle, freqs=[1e5],
                                   techniques=["lector"])
        assert handle.leakage() is nominal
        assert calls == [None]
        # An explicit supply is evaluated every time.
        assert handle.leakage(vdd=0.5) is not handle.leakage(vdd=0.5)
        assert calls == [None, 0.5, 0.5]

    def test_families_match_database(self, session):
        from repro.circuits.generators import available_families

        assert session.families() == available_families()

    def test_design_accepts_design_key(self, session):
        from repro.circuits.generators import DesignKey

        handle = session.design(DesignKey("multiplier", n=8))
        assert handle.name == "multiplier(n=8)"
        assert handle.design.top.name == "mult8"

    def test_design_accepts_spec_string(self, session):
        handle = session.design("pipeline(depth=2, width=4)")
        assert handle.design.top.name == "pipe2x4"

    def test_alias_and_key_fingerprints_identical(self, session):
        from repro.circuits.generators import DesignKey

        assert session.design("mult16").fingerprint \
            == session.design(DesignKey("multiplier", n=16)).fingerprint

    def test_expand_family_yields_handles(self, session):
        handles = session.expand_family("multiplier", n=[4, 8])
        assert [h.name for h in handles] \
            == ["multiplier(n=4, registered=True)",
                "multiplier(n=8, registered=True)"]
        assert handles[0].design.top.name == "mult4"

    def test_expand_family_validates_axis(self, session):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            session.expand_family("multiplier", n=[0])

    def test_param_round_trip(self, session):
        handle = session.design("counter16", width=8)
        assert handle.params == {"width": 8}
        assert len(list(handle.design.top.cell_instances())) \
            < len(list(session.design("counter16").design.top
                       .cell_instances()))

    def test_fingerprint_tracks_params(self, session):
        assert session.design("counter16").fingerprint \
            == session.design("counter16").fingerprint
        assert session.design("counter16").fingerprint \
            != session.design("counter16", width=8).fingerprint

    def test_netlist_is_verilog(self, session):
        text = session.design("counter16").netlist()
        assert text.startswith("module counter16")

    def test_cache_settings(self, tmp_path, lib):
        assert Session(library=lib, store=None).runner.cache is None
        explicit = Session(library=lib, store=str(tmp_path / "s.sqlite"))
        assert isinstance(explicit.runner.cache, SqliteStore)
        # "auto" consults REPRO_CACHE_DIR; either way it must construct.
        auto = Session(library=lib).runner.cache
        assert auto is None or isinstance(auto, SqliteStore)

    def test_journal_and_policy_reach_the_runner(self, tmp_path, lib,
                                                 spans_of):
        path = tmp_path / "session.jsonl"
        session = Session(library=lib, trace=path,
                          retry_on=(OSError,), retries=5, backoff=0.01,
                          timeout=30.0)
        assert session.runner.tracer is session.tracer
        assert session.artifacts.tracer is session.tracer
        assert session.runner.retry_on == (OSError,)
        assert session.runner.retries == 5
        assert session.runner.timeout == 30.0

        session.design("counter16").sweep([1e5, 1e6])
        session.close()
        assert [g["label"] for g in spans_of(path, "grid")] \
            == ["sweep:counter16"]
        assert session.stats.to_dict()["points"] > 0


class TestDesignHandleAnalyses:
    """One cheap design exercised end to end through the facade."""

    def test_power_model_and_sweep(self, session):
        handle = session.design("counter16")
        model = handle.power_model()
        breakdown = model.power(1e6, Mode.SCPG)
        assert isinstance(breakdown, PowerBreakdown)

        data = handle.sweep([0.1e6, 1e6])
        assert data.freqs == [0.1e6, 1e6]
        assert session.stats.points >= 6

    def test_table_rows(self, session):
        rows = session.design("counter16").table([0.1e6, 1e6])
        assert [r.freq_hz for r in rows] == [0.1e6, 1e6]
        assert rows[0].saving_scpgmax_pct > 0

    def test_subvt_minimum_energy(self, session):
        mep = session.design("counter16").minimum_energy_point()
        assert 0.15 < mep.vdd < 0.9

    def test_power_report(self, session):
        report = session.design("counter16").power_report(1e6)
        assert report.design == "counter16"
        assert report.total > 0

    def test_results_cached_across_handles(self, tmp_path, lib):
        cached = Session(library=lib, store=str(tmp_path / "s.sqlite"))
        cached.design("counter16").sweep([1e6])
        evaluated_cold = cached.stats.evaluated
        assert evaluated_cold > 0

        rerun = Session(library=lib, store=str(tmp_path / "s.sqlite"))
        rerun.design("counter16").sweep([1e6])
        assert rerun.stats.evaluated == 0
        assert rerun.stats.cache_hits == rerun.stats.points


class TestSupplyChecks:
    """Every handle method taking ``vdd`` reads ``None`` as nominal and
    rejects a non-finite or non-positive supply, naming the value."""

    @pytest.fixture(scope="class")
    def handle(self, session):
        return session.design("mult16")

    def test_leakage_at_zero(self, handle):
        with pytest.raises(SupplyError, match="0.0"):
            handle.leakage(vdd=0.0)

    def test_power_report_at_zero(self, handle):
        with pytest.raises(SupplyError, match="0.0"):
            handle.power_report(1e6, vdd=0.0)

    def test_switching_at_negative(self, handle):
        with pytest.raises(SupplyError, match="-1.0"):
            handle.switching(vdd=-1.0)

    def test_sta_at_zero(self, handle):
        with pytest.raises(SupplyError, match="0.0"):
            handle.sta(vdd=0.0)

    def test_sta_at_nan(self, handle):
        with pytest.raises(SupplyError, match="nan"):
            handle.sta(vdd=float("nan"))

    def test_infinite_and_non_numeric(self, handle):
        with pytest.raises(SupplyError, match="inf"):
            handle.leakage_axis([0.5, float("inf")])
        with pytest.raises(SupplyError, match="'0.6'"):
            handle.state_leakage_trace([], vdd="0.6")

    def test_compare_at_zero(self, session, handle):
        with pytest.raises(SupplyError, match="0.0"):
            session.compare_techniques(handle, vdd=0.0)

    def test_none_is_nominal(self, handle, lib):
        assert handle.sta(vdd=None) is handle.sta()
        assert handle.leakage().vdd == lib.vdd_nom
        assert handle.power_report(1e6).vdd == lib.vdd_nom
        assert handle.switching(vdd=lib.vdd_nom) == handle.switching()


class TestSessionObservability:
    def test_trace_true_collects_spans_in_memory(self, lib):
        session = Session(library=lib, store=None, trace=True)
        session.design("counter16").sweep([1e6])
        lines = session.tracer.sinks[0].lines
        names = {l["name"] for l in lines}
        assert {"grid", "stage"} <= names
        # the whole grid went through the vectorised kernel here
        assert "batch" in names or "point" in names
        grid = [l for l in lines if l["name"] == "grid"][0]
        assert grid["label"] == "sweep:counter16"

    def test_trace_path_owned_and_closed(self, tmp_path, lib):
        import json

        path = tmp_path / "trace.jsonl"
        session = Session(library=lib, store=None, trace=str(path))
        session.design("counter16").sweep([1e6])
        session.close()
        assert session.tracer.sinks[0]._file is None
        spans = [json.loads(l) for l in path.read_text().splitlines()]
        assert spans

    def test_caller_tracer_not_closed_by_session(self, lib):
        from repro.obs import MemorySink, Tracer

        tracer = Tracer(MemorySink())
        session = Session(library=lib, store=None, trace=tracer)
        assert session.tracer is tracer
        session.close()                  # must not touch caller's sinks

    def test_default_is_the_null_tracer(self, session):
        from repro.obs import NULL_TRACER

        assert session.tracer is NULL_TRACER

    def test_metrics_snapshot_subsumes_stats(self, lib):
        session = Session(library=lib, store=None, metrics=True)
        session.design("counter16").sweep([1e6])
        data = session.metrics().to_dict()
        assert data["repro_points_total"] == session.stats.points
        assert data["repro_point_seconds"]["count"] \
            == session.stats.evaluated

    def test_metrics_on_demand_without_registry(self, lib):
        session = Session(library=lib, store=None)
        session.design("counter16").sweep([1e6])
        data = session.metrics().to_dict()
        assert data["repro_points_total"] == session.stats.points

    def test_artifact_build_traced(self, lib):
        session = Session(library=lib, store=None, trace=True)
        session.design("counter16").power_model()
        names = [l["name"] for l in session.tracer.sinks[0].lines]
        assert "artifact_build" in names
