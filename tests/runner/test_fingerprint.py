"""Content fingerprints: the identity layer under the result cache."""

import dataclasses
import enum
import pickle
from dataclasses import dataclass

import pytest

from repro.circuits.registry import build
from repro.errors import RunnerError
from repro.runner import (
    fingerprint,
    module_fingerprint,
    stable_hash,
    stable_hash_or_none,
)
from repro.runner.fingerprint import _canon
from repro.scpg.power_model import Mode
from repro.tech.scl90 import build_scl90


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
