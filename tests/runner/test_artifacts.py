"""Per-circuit artifact bundles: exact results, store semantics, keys.

The artifact layer's contract is *bit-identical* evaluation -- every
``assert`` here uses ``==`` on floats, never ``pytest.approx``.  A table
that drifts by one ULP from the module it shadows breaks the result
cache's key-sharing between the artifact and netlist-walking paths.
"""

import os
import subprocess
import sys

import pytest

from repro.power.leakage import leakage_power
from repro.power.probabilistic import vectorless_switching
from repro.runner import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    CircuitArtifacts,
    SqliteStore,
    RunJournal,
    RunStats,
    read_journal,
    stable_hash,
)
from repro.runner.artifacts import (
    DomainPartition,
    LeakageTable,
    ScpgModelTable,
    SwitchedCapTable,
    TimingTable,
)
from repro.session import Session
from repro.sta.analysis import TimingAnalysis

VDDS = (None, 0.9, 0.6, 0.45, 0.3, 0.22)


@pytest.fixture(scope="module")
def session(lib):
    s = Session(library=lib, store=None)
    yield s
    s.close()


@pytest.fixture(scope="module")
def counter(session):
    return session.design("counter16")


# -- table-level bit-identicality ---------------------------------------------

class TestTimingTable:
    def test_matches_analysis_at_every_vdd(self, toy_design, lib):
        table = TimingTable.compile(toy_design.top, lib)
        for vdd in VDDS:
            ref = TimingAnalysis(toy_design.top, lib).run(vdd=vdd) \
                if vdd is not None \
                else TimingAnalysis(toy_design.top, lib).run()
            got = table.evaluate(lib, vdd=vdd)
            assert got.eval_delay == ref.eval_delay
            assert got.setup == ref.setup
            assert got.hold == ref.hold
            assert got.min_path_delay == ref.min_path_delay
            assert got.vdd == ref.vdd
            assert str(got.critical_path) == str(ref.critical_path)

    def test_matches_on_generated_design(self, counter, lib):
        table = TimingTable.compile(counter.design.top, lib)
        for vdd in (0.6, 0.35):
            ref = TimingAnalysis(counter.design.top, lib).run(vdd=vdd)
            got = table.evaluate(lib, vdd=vdd)
            assert got.min_period == ref.min_period
            assert str(got.critical_path) == str(ref.critical_path)

    def test_pickle_roundtrip(self, toy_design, lib):
        import pickle

        table = pickle.loads(pickle.dumps(
            TimingTable.compile(toy_design.top, lib)))
        ref = TimingAnalysis(toy_design.top, lib).run(vdd=0.5)
        assert table.evaluate(lib, vdd=0.5).eval_delay == ref.eval_delay


class TestLeakageTable:
    def test_matches_leakage_power(self, counter, lib):
        table = LeakageTable.compile(counter.design.top)
        for vdd in VDDS:
            ref = leakage_power(counter.design.top, lib, vdd=vdd)
            got = table.evaluate(lib, vdd=vdd)
            assert got.total == ref.total
            assert got.by_kind == ref.by_kind
            assert got.by_cell == ref.by_cell
            assert got.combinational == ref.combinational
            assert got.always_on == ref.always_on
            assert got.headers == ref.headers

    def test_axis_matches_scalar_evaluations(self, counter, lib):
        """One vectorized pass over the whole VDD axis returns the same
        reports as point-at-a-time evaluate calls."""
        table = LeakageTable.compile(counter.design.top)
        reports = table.evaluate_axis(lib, list(VDDS))
        assert len(reports) == len(VDDS)
        for vdd, got in zip(VDDS, reports):
            ref = table.evaluate(lib, vdd=vdd)
            assert got.vdd == ref.vdd
            assert got.total == ref.total
            assert got.by_kind == ref.by_kind
            assert got.by_cell == ref.by_cell

    def test_axis_temp_and_empty(self, counter, lib):
        table = LeakageTable.compile(counter.design.top)
        hot = table.evaluate_axis(lib, [0.6], temp_c=85.0)[0]
        assert hot.total == table.evaluate(lib, vdd=0.6,
                                           temp_c=85.0).total
        assert table.evaluate_axis(lib, []) == []
        empty = LeakageTable()  # ScpgModelTable default-constructs one
        report = empty.evaluate(lib, vdd=0.5)
        assert report.total == 0.0 and report.by_kind == {}

    def test_kernel_registered(self, counter, lib):
        """The vdd axis batches through the kernel registry."""
        from repro.errors import RunnerError
        from repro.runner import compile_kernel, kernel_for

        table = LeakageTable.compile(counter.design.top)
        kernel = kernel_for(table)
        assert kernel is not None and kernel.name == "leakage-axis"
        compiled = compile_kernel(table, library=lib)
        points = [None, 0.6, 0.3]
        for vdd, got in zip(points, compiled(points)):
            ref = table.evaluate(lib, vdd=vdd)
            assert (got.vdd, got.total) == (ref.vdd, ref.total)
            assert got.by_cell == ref.by_cell
        with pytest.raises(RunnerError, match="library"):
            compile_kernel(table)([0.6])

    def test_pickle_roundtrip(self, counter, lib):
        import pickle

        table = pickle.loads(pickle.dumps(
            LeakageTable.compile(counter.design.top)))
        ref = leakage_power(counter.design.top, lib, vdd=0.5)
        assert table.evaluate(lib, vdd=0.5).total == ref.total


class TestSwitchedCapTable:
    def test_matches_vectorless_switching(self, counter, lib):
        table = SwitchedCapTable.compile(counter.design.top, lib)
        for vdd in VDDS:
            if vdd is None:
                ref = vectorless_switching(counter.design.top, lib)
                got = table.evaluate(lib)
            else:
                ref = vectorless_switching(counter.design.top, lib, vdd)
                got = table.evaluate(lib, vdd=vdd)
            assert got[0] == ref[0]
            assert got[1] == ref[1]


class TestScpgModelTable:
    def test_model_fingerprint_and_numbers_match(self, counter, lib):
        from repro.scpg.power_model import Mode, ScpgPowerModel

        scpg = counter.scpg()
        e_cycle, _ = counter.switching()
        ref = ScpgPowerModel.from_scpg_design(scpg, e_cycle)
        got = ScpgModelTable.compile(scpg).build_model(lib, e_cycle)
        # Identical fingerprints => identical result-cache keys, so
        # artifact-path sweeps share cached points with legacy sweeps.
        assert stable_hash("m", got) == stable_hash("m", ref)
        for freq in (1e4, 1e6, 1e7):
            for mode in Mode:
                a, b = got.power(freq, mode), ref.power(freq, mode)
                if a is None or b is None:
                    assert a is None and b is None
                else:
                    assert a.total == b.total
                    assert a.energy_per_op == b.energy_per_op

    def test_partition_snapshot(self, counter):
        scpg = counter.scpg()
        part = DomainPartition.compile(scpg)
        assert part.header_count == scpg.headers.count
        assert part.area_overhead_pct == scpg.area_overhead_pct
        assert len(part.isolation_cells) == len(scpg.iso_instances)


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

    def test_journal_events(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        store = ArtifactStore(cache=SqliteStore(tmp_path / "art" / "store.sqlite"),
                              journal=journal)
        store.get("fp-1", _bundle)
        store.get("fp-1", _bundle)
        journal.close()
        events = [e["event"] for e in read_journal(path)]
        assert events == ["artifact_miss", "artifact_built",
                          "artifact_hit"]

    def test_no_cache_is_memo_only(self):
        store = ArtifactStore()
        assert store.key_for("fp-1") is None
        store.get("fp-1", _bundle)
        assert ArtifactStore().get("fp-1", _bundle) is not None


# -- fingerprint invalidation -------------------------------------------------

class TestInvalidation:
    def test_circuit_change_changes_the_key(self, session, lib):
        fp_counter = session.design("counter16").fingerprint
        fp_lfsr = session.design("lfsr16").fingerprint
        assert fp_counter != fp_lfsr
        assert stable_hash(ARTIFACT_SCHEMA, fp_counter) \
            != stable_hash(ARTIFACT_SCHEMA, fp_lfsr)

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
        on = Session(library=lib, store=None)
        off = Session(library=lib, store=None, artifacts=False)
        try:
            h_on, h_off = on.design("counter16"), off.design("counter16")
            for vdd in (None, 0.5):
                a, b = h_on.sta(vdd=vdd), h_off.sta(vdd=vdd)
                assert a.eval_delay == b.eval_delay
                assert a.setup == b.setup
                assert str(a.critical_path) == str(b.critical_path)
                assert h_on.switching(vdd=vdd) == h_off.switching(vdd=vdd)
                la, lb = h_on.leakage(vdd=vdd), h_off.leakage(vdd=vdd)
                assert la.total == lb.total and la.by_cell == lb.by_cell
            assert stable_hash("m", h_on.power_model()) \
                == stable_hash("m", h_off.power_model())
            assert stable_hash("s", h_on.subvt_model()) \
                == stable_hash("s", h_off.subvt_model())
            assert on.stats.artifact_misses == 1
            assert off.stats.artifact_misses == 0
        finally:
            on.close()
            off.close()

    def test_artifact_dir_reused_by_second_session(self, lib, tmp_path):
        art = str(tmp_path / "artifacts.sqlite")
        cold = Session(library=lib, store=None, artifacts=art)
        cold.design("counter16").sta()
        cold.close()
        warm = Session(library=lib, store=None, artifacts=art)
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

    def test_artifacts_off_has_no_store(self, lib):
        s = Session(library=lib, store=None, artifacts=False)
        try:
            assert s.artifacts is None
            assert s.design("counter16").artifacts() is None
        finally:
            s.close()

    def test_cross_process_reuse(self, lib, tmp_path):
        """A bundle built in another *process* is reused from disk."""
        art = str(tmp_path / "artifacts.sqlite")
        script = (
            "from repro.session import Session\n"
            "s = Session(store=None, artifacts={!r})\n"
            "s.design('counter16').sta()\n"
            "assert s.stats.artifact_misses == 1\n"
            "s.close()\n".format(art)
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=env)
        s = Session(library=lib, store=None, artifacts=art)
        try:
            s.design("counter16").sta()
            assert s.stats.artifact_hits == 1
            assert s.stats.artifact_misses == 0
        finally:
            s.close()
