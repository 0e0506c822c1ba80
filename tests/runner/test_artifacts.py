"""Per-circuit artifact bundles: exact results, store semantics, keys.

The bundle stores each analysis module's own compiled form, so every
``assert`` here uses ``==`` on floats, never ``pytest.approx``: the
compiled STA against the netlist-walking oracle, the switched-capacitance
table against a per-net pricing walk, the SCPG model table against
``from_scpg_design``, and a Session's answers against direct
module-level calls.
"""

import io
import os
import pickle
import subprocess
import sys

import pytest

from repro.netlist.core import Instance, Module, Net
from repro.netlist.soa import leakage_soa_for
from repro.power.leakage import LeakageReport, leakage_power
from repro.power.probabilistic import SwitchedCapacitance, \
    estimate_activity, vectorless_switching
from repro.runner import sqlite_store
from repro.runner import (
    ArtifactStore,
    CircuitArtifacts,
    SqliteStore,
    RunStats,
    stable_hash,
)
from repro.scpg.power_model import ScpgModelTable, ScpgPowerModel
from repro.session import Session
from repro.sta.analysis import TimingAnalysis
from repro.sta.delay import net_load

from ..power.walk import leakage_power_walk
from ..sta.walk import walk_timing

VDDS = (None, 0.9, 0.6, 0.45, 0.3, 0.22)


@pytest.fixture(scope="module")
def session(lib):
    s = Session(library=lib, store=None)
    yield s
    s.close()


@pytest.fixture(scope="module")
def counter(session):
    return session.design("counter16")


def _netlist_objects(obj):
    """Types of the netlist objects ``pickle`` would reach from ``obj``."""
    found = set()

    class Probe(pickle.Pickler):
        def persistent_id(self, o):
            if isinstance(o, (Net, Instance, Module)):
                found.add(type(o).__name__)
            return None

    Probe(io.BytesIO()).dump(obj)
    return found


# -- each compiled form against its oracle ------------------------------------

class TestTimingTable:
    """:class:`TimingAnalysis` (the lowered STA the bundle stores)
    against the netlist walk of ``tests/sta/walk.py``."""

    def test_matches_analysis_at_every_vdd(self, toy_design, lib):
        analysis = TimingAnalysis(toy_design.top, lib)
        for vdd in VDDS:
            ref = walk_timing(toy_design.top, lib, vdd)
            got = analysis.run() if vdd is None else analysis.run(vdd)
            assert got.eval_delay == ref.eval_delay
            assert got.setup == ref.setup
            assert got.hold == ref.hold
            assert got.min_path_delay == ref.min_path_delay
            assert got.vdd == ref.vdd
            assert str(got.critical_path) == str(ref.critical_path)

    def test_matches_on_generated_design(self, counter, lib):
        analysis = TimingAnalysis(counter.design.top, lib)
        for vdd in (0.6, 0.35):
            ref = walk_timing(counter.design.top, lib, vdd)
            got = analysis.run(vdd)
            assert got.min_period == ref.min_period
            assert got.min_path_delay == ref.min_path_delay
            assert str(got.critical_path) == str(ref.critical_path)

    def test_pickle_roundtrip(self, toy_design, lib):
        analysis = TimingAnalysis(toy_design.top, lib)
        assert _netlist_objects(analysis) == set()
        restored = pickle.loads(pickle.dumps(analysis))
        for vdd in VDDS:
            ref = walk_timing(toy_design.top, lib, vdd)
            got = restored.run(vdd)
            assert got.eval_delay == ref.eval_delay
            assert str(got.critical_path) == str(ref.critical_path)


class TestLeakageTable:
    """The leakage lowering (what the SCPG model table stores) against
    the per-instance walk."""

    def test_matches_leakage_power(self, counter, lib):
        for vdd in VDDS:
            ref = leakage_power_walk(counter.design.top, lib, vdd=vdd)
            got = leakage_power(counter.design.top, lib, vdd=vdd)
            assert got.vdd == ref.vdd
            assert got.total == ref.total
            assert got.by_kind == ref.by_kind
            assert got.by_cell == ref.by_cell
            assert got.combinational == ref.combinational
            assert got.always_on == ref.always_on
            assert got.headers == ref.headers

    def test_pickle_roundtrip(self, counter, lib):
        lk = pickle.loads(pickle.dumps(leakage_soa_for(counter.design.top)))
        for vdd in (None, 0.5):
            ref = leakage_power_walk(counter.design.top, lib, vdd=vdd)
            got = LeakageReport.from_soa(lk, lib, vdd)
            assert got.total == ref.total
            assert got.by_cell == ref.by_cell


def _priced_walk(module, lib, vdd):
    """``(e_cycle, by_net)`` priced net by net straight off the netlist."""
    est = estimate_activity(module)
    by_net = {}
    e_cycle = 0.0
    for net in module.nets():
        density = est.density.get(net.name, 0.0)
        if net.is_const or density <= 0:
            continue
        cap = net_load(net, lib)
        if isinstance(net.driver, tuple) and net.driver[0].is_cell:
            cap += net.driver[0].cell.c_internal
        by_net[net.name] = 0.5 * vdd * vdd * cap * density
        e_cycle += by_net[net.name]
    return e_cycle, by_net


class TestSwitchedCapTable:
    def test_matches_vectorless_switching(self, counter, lib):
        top = counter.design.top
        table = pickle.loads(pickle.dumps(
            SwitchedCapacitance.compile(top, lib)))
        for vdd in VDDS:
            ref = _priced_walk(top, lib, lib.vdd_nom if vdd is None else vdd)
            got = table.evaluate(lib) if vdd is None \
                else table.evaluate(lib, vdd)
            assert got == ref
            assert vectorless_switching(top, lib, vdd) == ref


class TestScpgModelTable:
    def test_model_fingerprint_and_numbers_match(self, counter, lib):
        from repro.scpg.power_model import Mode

        scpg = counter.scpg()
        e_cycle, _ = counter.switching()
        ref = ScpgPowerModel.from_scpg_design(scpg, e_cycle)
        table = pickle.loads(pickle.dumps(ScpgModelTable.compile(scpg)))
        assert _netlist_objects(table) == set()
        got = table.build_model(lib, e_cycle)
        # Identical fingerprints => identical result-cache keys, so a
        # bundle loaded from disk shares cached points with a model built
        # from the live transform.
        assert stable_hash("m", got) == stable_hash("m", ref)
        for freq in (1e4, 1e6, 1e7):
            for mode in Mode:
                a, b = got.power(freq, mode), ref.power(freq, mode)
                if a is None or b is None:
                    assert a is None and b is None
                else:
                    assert a.total == b.total
                    assert a.energy_per_op == b.energy_per_op


# -- the store ----------------------------------------------------------------

def _bundle(fp="fp-1"):
    return CircuitArtifacts(fingerprint=fp, design_name="toy")


class TestArtifactStore:
    def test_memo_hit_counts(self, tmp_path):
        stats = RunStats()
        store = ArtifactStore(stats=stats)
        calls = []

        def build():
            calls.append(1)
            return _bundle()

        a = store.get("fp-1", build)
        b = store.get("fp-1", build)
        assert a is b
        assert calls == [1]
        assert stats.artifact_misses == 1
        assert stats.artifact_hits == 1

    def test_disk_reuse_across_stores(self, tmp_path):
        cache = SqliteStore(tmp_path / "art" / "store.sqlite")
        ArtifactStore(cache=cache).get("fp-1", _bundle)
        # A fresh store (fresh process, same directory) must not rebuild.
        stats = RunStats()
        fresh = ArtifactStore(cache=SqliteStore(tmp_path / "art" / "store.sqlite"),
                              stats=stats)

        def explode():
            raise AssertionError("rebuilt despite disk entry")

        bundle = fresh.get("fp-1", explode)
        assert bundle.fingerprint == "fp-1"
        assert stats.artifact_hits == 1 and stats.artifact_misses == 0

    def test_corrupt_disk_entry_degrades_to_rebuild(self, tmp_path):
        cache = SqliteStore(tmp_path / "art" / "store.sqlite")
        store = ArtifactStore(cache=cache)
        cache.put(store.key_for("fp-1"), {"not": "a bundle"})
        assert store.get("fp-1", _bundle).fingerprint == "fp-1"
        # Wrong fingerprint inside an otherwise valid bundle: also rebuilt.
        cache.put(store.key_for("fp-2"), _bundle("other"))
        assert ArtifactStore(cache=cache).get(
            "fp-2", lambda: _bundle("fp-2")).fingerprint == "fp-2"

    def test_journal_events(self, tmp_path, trace):
        store = ArtifactStore(cache=SqliteStore(tmp_path / "art" / "store.sqlite"),
                              tracer=trace.tracer)
        store.get("fp-1", _bundle)
        store.get("fp-1", _bundle)
        assert [line["name"] for line in trace.lines] \
            == ["artifact_build", "artifact_hit"]
        (hit,) = trace.spans("artifact_hit")
        assert (hit["elapsed"], hit["source"]) == (0.0, "memory")
        assert trace.spans("artifact_build")[0]["fingerprint"] == "fp-1"

    def test_no_cache_is_memo_only(self):
        store = ArtifactStore()
        assert store.key_for("fp-1") is None
        store.get("fp-1", _bundle)
        assert ArtifactStore().get("fp-1", _bundle) is not None


# -- fingerprint invalidation -------------------------------------------------

class TestInvalidation:
    def test_circuit_change_changes_the_key(self, session, lib, tmp_path):
        fp_counter = session.design("counter16").fingerprint
        fp_lfsr = session.design("lfsr16").fingerprint
        assert fp_counter != fp_lfsr
        store = ArtifactStore(cache=SqliteStore(tmp_path / "s.sqlite"))
        assert store.key_for(fp_counter) != store.key_for(fp_lfsr)
        store.cache.close()

    def test_netlist_edit_changes_the_key(self, toy_design, lib):
        from repro.runner import module_fingerprint

        before = stable_hash("design-v1",
                             module_fingerprint(toy_design.top), lib)
        inv = toy_design.top  # add one buffer on the output cone
        q = next(n for n in inv.nets() if n.name == "q")
        net = inv.add_net("extra")
        inv.add_instance("gx", "INV_X1", {"A": q, "Y": net}, library=lib)
        after = stable_hash("design-v1",
                            module_fingerprint(toy_design.top), lib)
        assert before != after

    def test_library_change_changes_the_key(self, lib):
        from repro.tech.scl90 import Scl90Tuning, build_scl90

        retuned = build_scl90(Scl90Tuning(wire_cap_per_fanout=3e-15))
        s1 = Session(library=lib, store=None)
        s2 = Session(library=retuned, store=None)
        try:
            assert s1.design("counter16").fingerprint \
                != s2.design("counter16").fingerprint
        finally:
            s1.close()
            s2.close()


# -- session integration ------------------------------------------------------

class TestSessionArtifacts:
    def test_results_identical_with_and_without(self, lib):
        """The handle's answers equal direct module-level calls."""
        s = Session(library=lib, store=None)
        try:
            h = s.design("counter16")
            top = h.design.top
            for vdd in (None, 0.5):
                a = h.sta(vdd=vdd)
                b = TimingAnalysis(top, lib).run(vdd)
                assert a.eval_delay == b.eval_delay
                assert a.setup == b.setup
                assert str(a.critical_path) == str(b.critical_path)
                assert h.switching(vdd=vdd) \
                    == vectorless_switching(top, lib, vdd)
                la = h.leakage(vdd=vdd)
                lb = leakage_power(top, lib, vdd=vdd)
                assert la.total == lb.total and la.by_cell == lb.by_cell
            e_cycle, _ = vectorless_switching(top, lib)
            ref = ScpgPowerModel.from_scpg_design(h.scpg(), e_cycle)
            base = leakage_power(top, lib)
            ref.leak_comb_base = base.combinational
            ref.leak_alwayson_base = base.always_on
            assert stable_hash("m", h.power_model()) == stable_hash("m", ref)
            assert s.stats.artifact_misses == 1
        finally:
            s.close()

    def test_artifact_dir_reused_by_second_session(self, lib, tmp_path):
        store = str(tmp_path / "store.sqlite")
        cold = Session(library=lib, store=store)
        cold.design("counter16").sta()
        cold.close()
        warm = Session(library=lib, store=store)
        try:
            warm.design("counter16").sta()
            assert warm.stats.artifact_hits == 1
            assert warm.stats.artifact_misses == 0
        finally:
            warm.close()

    def test_handle_memoises_one_bundle(self, lib):
        s = Session(library=lib, store=None)
        try:
            h = s.design("counter16")
            h.sta()
            h.leakage()
            h.switching()
            h.power_model()
            # One build, then the handle serves its memoised bundle --
            # the store is only consulted once.
            assert s.stats.artifact_misses == 1
            assert s.stats.artifact_hits == 0
        finally:
            s.close()

    def test_store_less_session_keeps_bundles_in_memory(self, lib):
        s = Session(library=lib, store=None)
        try:
            assert s.artifacts.cache is None
            bundle = s.design("counter16").artifacts()
            assert isinstance(bundle, CircuitArtifacts)
            assert s.design("counter16").artifacts() is bundle
            assert s.stats.artifact_hits == 1
        finally:
            s.close()

    def test_bundle_under_another_code_digest_is_not_read(
            self, lib, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        with monkeypatch.context() as m:
            m.setattr(sqlite_store, "code_digest", lambda: "0" * 64)
            old = Session(library=lib, store=str(path))
            try:
                old_bundle = old.design("counter16").artifacts()
            finally:
                old.close()
        s = Session(library=lib, store=str(path))
        try:
            bundle = s.design("counter16").artifacts()
            assert bundle is not old_bundle
            assert s.stats.artifact_misses == 1
            assert s.stats.artifact_hits == 0
            # Both bundles stay on file, each under its own code's key.
            assert len(s.runner.cache) == 2
        finally:
            s.close()

    def test_cross_process_reuse(self, lib, tmp_path):
        """A bundle built in another *process* is reused from disk."""
        store = str(tmp_path / "store.sqlite")
        script = (
            "from repro.session import Session\n"
            "s = Session(store={!r})\n"
            "s.design('counter16').sta()\n"
            "assert s.stats.artifact_misses == 1\n"
            "s.close()\n".format(store)
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=env)
        s = Session(library=lib, store=store)
        try:
            s.design("counter16").sta()
            assert s.stats.artifact_hits == 1
            assert s.stats.artifact_misses == 0
        finally:
            s.close()
