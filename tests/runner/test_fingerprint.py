"""Content fingerprints: the identity layer under the result cache."""

import dataclasses
import enum
import pickle
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.circuits.registry import build
from repro.errors import RunnerError
from repro.runner import (
    ArtifactStore,
    SqliteStore,
    fingerprint,
    module_fingerprint,
    sqlite_store,
    stable_hash,
    stable_hash_or_none,
)
from repro.runner.fingerprint import _canon, code_digest, source_digest
from repro.scpg.power_model import Mode
from repro.tech.scl90 import build_scl90

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules whose code reaches a stored value without being the caller's
#: own: header and cluster sizing, activity, rail model, device and
#: library scaling, area overhead, leakage, and the transforms.
ENGINES = (
    "power/headers.py", "power/probabilistic.py", "power/rails.py",
    "power/leakage.py", "tech/transistor.py", "tech/library.py",
    "netlist/stats.py", "scpg/transform.py", "scpg/power_model.py",
    "techniques/cbtstc.py", "techniques/lector.py",
)


@dataclass
class _Point:
    freq: float
    mode: Mode


class TestFingerprint:
    def test_deterministic(self):
        value = (1.5, "x", Mode.SCPG, {"b": 2, "a": 1})
        assert fingerprint(value) == fingerprint(value)

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert fingerprint(0.1) != fingerprint(0.2)
        assert fingerprint(Mode.SCPG) != fingerprint(Mode.NO_PG)
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_float_exactness(self):
        # float.hex canonicalisation: nearby but unequal floats differ.
        assert fingerprint(1e6) != fingerprint(1e6 + 1e-6)

    def test_dataclass_by_fields(self):
        assert fingerprint(_Point(1e6, Mode.SCPG)) \
            == fingerprint(_Point(1e6, Mode.SCPG))
        assert fingerprint(_Point(1e6, Mode.SCPG)) \
            != fingerprint(_Point(1e6, Mode.SCPG_MAX))

    def test_fingerprint_hook(self):
        class Model:
            def __init__(self, tag):
                self.tag = tag
                self.junk = object()   # not canonicalisable

            def __fingerprint__(self):
                return ("model-v1", self.tag)

        assert fingerprint(Model("a")) == fingerprint(Model("a"))
        assert fingerprint(Model("a")) != fingerprint(Model("b"))
        assert stable_hash_or_none(Model("a")) is not None

    def test_unfingerprintable_raises(self):
        with pytest.raises(RunnerError):
            fingerprint(object())
        assert stable_hash_or_none(object()) is None
        assert stable_hash_or_none("ns", lambda x: x) is None

    def test_stable_hash_mixes_parts(self):
        assert stable_hash("ns", 1) == stable_hash("ns", 1)
        assert stable_hash("ns", 1) != stable_hash("ns", 2)
        assert stable_hash("ns", 1) != stable_hash("other", 1)
        assert stable_hash_or_none("ns", 1) == stable_hash("ns", 1)


class TestModuleFingerprint:
    def test_stable_across_rebuilds(self, lib):
        a = build("counter16", lib)
        b = build("counter16", lib)
        assert module_fingerprint(a) == module_fingerprint(b)

    def test_parameter_changes_fingerprint(self, lib):
        assert module_fingerprint(build("counter16", lib)) \
            != module_fingerprint(build("counter16", lib, width=8))

    def test_edit_changes_fingerprint(self, toy_design):
        before = module_fingerprint(toy_design.top)
        inst = next(iter(toy_design.top.cell_instances()))
        net = toy_design.top.add_net("extra")
        toy_design.top.add_instance(
            "spy", "INV_X1", {"A": inst.connections["Y"], "Y": net},
            library=toy_design.library)
        assert module_fingerprint(toy_design.top) != before

    def test_enum_identity_not_by_value(self):
        class A(enum.Enum):
            X = 1

        class B(enum.Enum):
            X = 1

        assert fingerprint(A.X) != fingerprint(B.X)


class TestLibraryFingerprint:
    @staticmethod
    def unmemoised(lib):
        """The library's canonical text as built without the memo."""
        names = sorted(lib._cells)
        return "o:Library({})".format(_canon((
            "library-v1", lib.name, lib.vdd_nom, lib.temp_c,
            lib.wire_cap_per_fanout, lib.devices, lib.ref_devices, names,
            [lib.cell(name) for name in names])))

    def test_memo_is_byte_identical(self):
        lib = build_scl90()
        assert _canon(lib) == self.unmemoised(lib)
        assert _canon(lib) == self.unmemoised(lib)   # from the memo

    def test_add_cell_changes_memoised_fingerprint(self):
        lib = build_scl90()
        before = fingerprint(lib)
        lib.add_cell(dataclasses.replace(lib.cell("INV_X1"),
                                         name="INV_X1_SPARE"))
        assert fingerprint(lib) != before
        assert _canon(lib) == self.unmemoised(lib)

    def test_pickle_drops_the_memo(self):
        lib = build_scl90()
        digest = fingerprint(lib)
        copy = pickle.loads(pickle.dumps(lib))
        assert copy._cells_canon is None
        assert fingerprint(copy) == digest


class TestCodeDigest:
    @pytest.fixture
    def package(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(SRC, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    def test_every_engine_edit_changes_the_digest(self, package):
        digests = [source_digest(package)]
        for path in ENGINES:
            with open(package / path, "a") as fh:
                fh.write("# edited\n")
            digests.append(source_digest(package))
        (package / "power" / "new_engine.py").write_text("X = 1\n")
        digests.append(source_digest(package))
        assert len(set(digests)) == len(ENGINES) + 2

    def test_package_digest_matches_the_source(self, package):
        assert code_digest() == source_digest(package) \
            == source_digest(SRC)

    def test_code_digest_changes_every_store_key(self, tmp_path,
                                                 monkeypatch):
        """Point results, artifact bundles and technique columns (every
        key the store derives) move to new keys when the code does."""
        path = tmp_path / "s.sqlite"

        def keys():
            store = SqliteStore(path)
            try:
                return (store.key_for("sweep", fingerprint(1e5)),
                        ArtifactStore(cache=store).key_for("fp"),
                        store.key_for("0" * 64))
            finally:
                store.close()

        before = keys()
        assert keys() == before
        monkeypatch.setattr(sqlite_store, "code_digest", lambda: "1" * 64)
        after = keys()
        assert all(a != b for a, b in zip(before, after))

    @pytest.fixture
    def fresh_digest(self):
        code_digest.cache_clear()
        yield
        code_digest.cache_clear()

    @pytest.mark.parametrize("fault", ["empty", "unreadable"])
    def test_unreadable_source_refuses_every_key(
            self, fault, tmp_path, monkeypatch, fresh_digest):
        # ``repro.runner.fingerprint`` is the function of that name.
        module = sys.modules["repro.runner.fingerprint"]
        monkeypatch.setattr(module, "PACKAGE_ROOT", tmp_path)
        if fault == "unreadable":
            (tmp_path / "engine.py").write_text("X = 1\n")

            def refuse(self):
                raise PermissionError(13, "Permission denied", str(self))

            monkeypatch.setattr(Path, "read_bytes", refuse)
        store = SqliteStore(tmp_path / "s.sqlite")
        try:
            with pytest.raises(RunnerError, match=str(tmp_path)):
                store.key_for("k")
        finally:
            store.close()
