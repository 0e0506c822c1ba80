"""The stored technique column of a comparison: its key, its record and
what a repeated comparison skips."""

import dataclasses
import sqlite3
from types import SimpleNamespace

import pytest

from repro.netlist.verilog import write_verilog
from repro.runner import open_store, sqlite_store
from repro.session import Session
from repro.tech.scl90 import build_scl90
from repro.techniques import technique
from repro.techniques.cbtstc import CbtstcTechnique
from repro.techniques.compare import (
    ColumnRecord,
    _column_digest,
    _column_inputs,
    _module_source,
)
from repro.techniques.lector import LectorTechnique
from repro.techniques.scpg import ScpgTechnique

DESIGN = "counter16"
FREQS = [1e4, 1e5, 1e6]
TECHNIQUES = (CbtstcTechnique, LectorTechnique, ScpgTechnique)


def _hex(comparison):
    """The comparison's JSON form with every float as ``float.hex``."""
    return _hex_floats(comparison.as_dict())


def _hex_floats(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hex_floats(v) for v in value]
    return value


@pytest.fixture
def built(monkeypatch):
    """``(technique, hook)`` for every column-building hook called:
    the eligibility check, the transform, the compare input and the
    model build."""
    calls = []
    for cls in TECHNIQUES:
        for hook in ("check", "transform", "compare_input", "sweep_model"):
            original = getattr(cls, hook)

            def wrapper(self, *args, _original=original, _hook=hook,
                        **kwargs):
                calls.append((self.name, _hook))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, hook, wrapper)
    return calls


def _compare(store, freqs=FREQS):
    s = Session(store=store)
    try:
        comparison = s.compare_techniques(DESIGN, freqs=freqs)
        return comparison, s.stats
    finally:
        s.close()


@pytest.fixture(scope="module")
def cold():
    """The comparison built with no store at all."""
    return _hex(_compare(None)[0])


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.sqlite")


def _column_keys(store_path):
    """Store key of each built-in technique's column of :data:`DESIGN`."""
    s = Session(store=None)
    try:
        h = s.design(DESIGN)
        inputs = _column_inputs(h, h.switching()[0], h.leakage(), h.sta(),
                                None)
    finally:
        s.close()
    store = open_store(store_path)
    try:
        return {cls.name: store.key_for(_column_digest(cls(), inputs))
                for cls in TECHNIQUES}
    finally:
        store.close()


class TestColumnKey:
    @pytest.fixture(scope="class")
    def base(self):
        s = Session(store=None)
        h = s.design(DESIGN)
        yield SimpleNamespace(handle=h, e_cycle=h.switching()[0],
                              leakage=h.leakage(), sta=h.sta())
        s.close()

    @staticmethod
    def digest(base, tech=None, handle=None, e_cycle=None, leakage=None,
               sta=None, vdd=None):
        return _column_digest(
            tech or technique("scpg"),
            _column_inputs(handle or base.handle, e_cycle or base.e_cycle,
                           leakage or base.leakage, sta or base.sta, vdd))

    def test_each_key_part_changes_the_key(self, base, tmp_path):
        class Renamed(ScpgTechnique):
            pass

        sta = base.sta

        # A netlist edit, on a private copy of the design.
        path = tmp_path / "counter.v"
        write_verilog(base.handle.design, str(path))
        s = Session(library=base.handle.session.library, store=None)
        edited = s.design(str(path))
        before = self.digest(base, handle=edited)
        top = edited.design.top
        top.add_instance("u_extra", "INV_X1",
                         {"A": top.port("clk").net, "Y": top.add_net()},
                         library=edited.design.library)
        after = self.digest(base, handle=edited)
        s.close()

        # Another library: the same cells plus one.
        lib = build_scl90()
        lib.add_cell(dataclasses.replace(lib.cell("INV_X1"),
                                         name="INV_X1_SPARE"))
        other = Session(library=lib, store=None)
        other_lib = self.digest(base, handle=other.design(DESIGN))
        other.close()

        keys = {
            "base": self.digest(base),
            "netlist edit": after,
            "library": other_lib,
            "technique": self.digest(base, tech=Renamed()),
            "vdd": self.digest(base, vdd=0.5),
            "e_cycle": self.digest(base, e_cycle=base.e_cycle * 1.5),
            "leakage": self.digest(base, leakage=dataclasses.replace(
                base.leakage, total=2.0 * base.leakage.total)),
            "eval_delay": self.digest(base, sta=SimpleNamespace(
                eval_delay=2.0 * sta.eval_delay, setup=sta.setup)),
            "setup": self.digest(base, sta=SimpleNamespace(
                eval_delay=sta.eval_delay, setup=2.0 * sta.setup)),
        }
        assert after != before
        assert len(set(keys.values())) == len(keys)

    def test_key_is_deterministic(self, base):
        assert self.digest(base) == self.digest(base, tech=ScpgTechnique())

    def test_no_store_means_no_key(self, base):
        assert _column_digest(technique("scpg"), None) is None


class TestRepeatedComparison:
    def test_second_session_builds_nothing(self, store_path, cold, built):
        first, _ = _compare(store_path)
        assert {name for name, _ in built} == {"scpg", "cbtstc", "lector"}
        del built[:]
        second, stats = _compare(store_path)
        assert built == []
        assert stats.evaluated == 0
        assert _hex(first) == _hex(second) == cold

    def test_new_grid_hits_the_columns(self, store_path, cold, built):
        _compare(store_path)
        del built[:]
        freqs = FREQS[:2] + [3e5, 2e6]
        warm, stats = _compare(store_path, freqs=freqs)
        assert built == []
        # Two new points in each of four columns (baseline included).
        assert stats.evaluated == 2 * 4
        assert _hex(warm) == _hex(_compare(None, freqs=freqs)[0])

    def test_foreign_record_rebuilds(self, store_path, cold, built):
        _compare(store_path)
        keys = _column_keys(store_path)
        store = open_store(store_path)
        lector = store.get(keys["lector"])
        store.put(keys["scpg"], ColumnRecord(
            column="0" * 64, model=lector.model, area_overhead_pct=99.0))
        store.put(keys["cbtstc"], "not a column record")
        store.close()
        del built[:]
        again, _ = _compare(store_path)
        assert {name for name, hook in built
                if hook == "sweep_model"} == {"scpg", "cbtstc"}
        assert _hex(again) == cold

    def test_corrupt_record_rebuilds(self, store_path, cold, built):
        _compare(store_path)
        key = _column_keys(store_path)["cbtstc"]
        with sqlite3.connect(store_path) as conn:
            conn.execute("UPDATE entries SET value=? WHERE key=?",
                         (b"\x80junk", key))
        del built[:]
        again, _ = _compare(store_path)
        assert [name for name, hook in built
                if hook == "sweep_model"] == ["cbtstc"]
        assert _hex(again) == cold

    def test_code_edit_recomputes_everything(self, store_path, cold, built,
                                             monkeypatch):
        """A stored result never outlives the code that computed it: the
        table's points, the bundle and the columns are all recomputed
        under another code digest, and read back under the same one."""
        def ask():
            s = Session(store=store_path)
            try:
                h = s.design(DESIGN)
                table = [dataclasses.asdict(row) for row in h.table(FREQS)]
                answer = (_hex(s.compare_techniques(h, freqs=FREQS)),
                          _hex_floats(table))
                return answer, s.stats
            finally:
                s.close()

        first, stats = ask()
        points = stats.points
        del built[:]
        same, stats = ask()
        assert built == []
        assert (stats.evaluated, stats.cache_hits) == (0, points)
        assert stats.artifact_misses == 0
        assert same == first
        assert first[0] == cold

        monkeypatch.setattr(sqlite_store, "code_digest", lambda: "1" * 64)
        edited, stats = ask()
        assert (stats.evaluated, stats.cache_hits) == (points, 0)
        assert stats.artifact_misses == 1
        assert {name for name, hook in built
                if hook == "sweep_model"} == {"scpg", "cbtstc", "lector"}
        assert edited == first

        # The first digest's rows are unreachable now: a prune drops
        # exactly them, and the edited code's answers stay readable.
        store = open_store(store_path)
        total = len(store)
        assert 0 < store.prune() < total
        assert len(store) == total // 2
        store.close()
        del built[:]
        again, stats = ask()
        assert (stats.evaluated, stats.cache_hits) == (0, points)
        assert stats.artifact_misses == 0
        assert built == []
        assert again == first

    def test_storeless_session_builds_every_time(self, cold, built):
        assert _hex(_compare(None)[0]) == cold
        assert _hex(_compare(None)[0]) == cold
        assert [hook for name, hook in built
                if name == "scpg"].count("sweep_model") == 2


class TestCodeDigest:
    """The package source reaches every column through the store's key
    (``tests/runner/test_fingerprint.py``); a technique defined outside
    the package adds its own module's source."""

    def test_technique_outside_the_package(self, base_inputs):
        class Outside(ScpgTechnique):
            pass

        assert Outside.__module__ == __name__
        assert _module_source("repro.techniques.scpg") == ""
        assert len(_module_source(__name__)) == 64
        assert _column_digest(Outside(), base_inputs) is not None
        # No readable source: nothing is stored.
        Outside.__module__ = "module_with_no_source"
        assert _module_source(Outside.__module__) is None
        assert _column_digest(Outside(), base_inputs) is None

    @pytest.fixture
    def base_inputs(self):
        s = Session(store=None)
        try:
            h = s.design(DESIGN)
            return _column_inputs(h, h.switching()[0], h.leakage(),
                                  h.sta(), None)
        finally:
            s.close()
