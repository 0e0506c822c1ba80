"""The stored technique column of a comparison: its key, its record and
what a repeated comparison skips."""

import dataclasses
import shutil
import sqlite3
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.netlist.verilog import write_verilog
from repro.runner import open_store
from repro.session import Session
from repro.tech.scl90 import build_scl90
from repro.techniques import technique
from repro.techniques.cbtstc import CbtstcTechnique
from repro.techniques import compare
from repro.techniques.compare import (
    ColumnRecord,
    _code_digest,
    _column_digest,
    _column_inputs,
    _source_digest,
)
from repro.techniques.lector import LectorTechnique
from repro.techniques.scpg import ScpgTechnique

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DESIGN = "counter16"
FREQS = [1e4, 1e5, 1e6]
TECHNIQUES = (CbtstcTechnique, LectorTechnique, ScpgTechnique)

#: Modules outside the technique adapters whose code reaches a stored
#: column: header and cluster sizing, activity, rail model, device and
#: library scaling, area overhead, leakage, and the transforms.
ENGINES = (
    "power/headers.py", "power/probabilistic.py", "power/rails.py",
    "power/leakage.py", "tech/transistor.py", "tech/library.py",
    "netlist/stats.py", "scpg/transform.py", "scpg/power_model.py",
    "techniques/cbtstc.py", "techniques/lector.py",
)


def _hex(comparison):
    """The comparison's JSON form with every float as ``float.hex``."""
    def conv(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: conv(v) for k, v in value.items()}
        if isinstance(value, list):
            return [conv(v) for v in value]
        return value
    return conv(comparison.as_dict())


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

    def test_each_key_part_changes_the_key(self, base, tmp_path,
                                           monkeypatch):
        class Renamed(ScpgTechnique):
            pass

        bumped = ScpgTechnique()
        bumped.version = "scpg-column-v999"
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

        with monkeypatch.context() as m:
            m.setattr(compare, "_code_digest", lambda module: "0" * 64)
            code = self.digest(base)
        with monkeypatch.context() as m:
            m.setattr(compare, "ARTIFACT_SCHEMA", "circuit-artifacts-v0")
            schema = self.digest(base)

        keys = {
            "base": self.digest(base),
            "code": code,
            "artifact schema": schema,
            "netlist edit": after,
            "library": other_lib,
            "technique": self.digest(base, tech=Renamed()),
            "version": self.digest(base, tech=bumped),
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

    def test_no_version_or_no_store_means_no_key(self, base):
        class Unversioned(ScpgTechnique):
            version = None

        inputs = _column_inputs(base.handle, base.e_cycle, base.leakage,
                                base.sta, None)
        assert _column_digest(Unversioned(), inputs) is None
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

    def test_storeless_session_builds_every_time(self, cold, built):
        assert _hex(_compare(None)[0]) == cold
        assert _hex(_compare(None)[0]) == cold
        assert [hook for name, hook in built
                if name == "scpg"].count("sweep_model") == 2


class TestCodeDigest:
    @pytest.fixture
    def package(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(SRC, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    def test_every_engine_edit_changes_the_digest(self, package):
        digests = [_source_digest(package)]
        for path in ENGINES:
            with open(package / path, "a") as fh:
                fh.write("# edited\n")
            digests.append(_source_digest(package))
        (package / "power" / "new_engine.py").write_text("X = 1\n")
        digests.append(_source_digest(package))
        assert len(set(digests)) == len(ENGINES) + 2

    def test_package_digest_matches_the_source(self, package):
        assert _code_digest("repro.techniques.scpg") \
            == _code_digest("repro.techniques.lector") \
            == _source_digest(package) == _source_digest(SRC)

    def test_technique_outside_the_package(self, base_inputs):
        class Outside(ScpgTechnique):
            pass

        assert Outside.__module__ == __name__
        here = _code_digest(__name__)
        assert here is not None
        assert here != _code_digest("repro.techniques.scpg")
        # No readable source: nothing is stored.
        Outside.__module__ = "module_with_no_source"
        assert _code_digest(Outside.__module__) is None
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
