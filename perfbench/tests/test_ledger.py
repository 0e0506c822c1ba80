"""The layer ledger: self-time arithmetic and binding coverage."""

import sys
import types

import pytest

from ledger import (EXACT, LAYER_SOURCES, ROOT_SPAN, Ledger, Target,
                    layer_metrics, layer_self_times, self_times)


def _line(span_id, parent, name, elapsed):
    return {"id": span_id, "parent": parent, "name": name,
            "elapsed": elapsed}


def test_self_times_of_a_nested_tree():
    # root(10) -> a(4) -> b(1);  root -> c(3) -> a(2)
    lines = [
        _line(3, 2, "b", 1.0),
        _line(2, 1, "a", 4.0),
        _line(5, 4, "a", 2.0),
        _line(4, 1, "c", 3.0),
        _line(1, None, "root", 10.0),
    ]
    got = self_times(lines)
    assert got == {"root": 3.0, "a": 5.0, "b": 1.0, "c": 1.0}
    assert sum(got.values()) == 10.0


def test_layer_self_times_group_by_layer():
    summary = {"self_s": {"power.leakage": 1.0, "power.dynamic": 0.5,
                          "sta.run": 2.0, ROOT_SPAN: 0.25}}
    assert layer_self_times(summary) == {
        "power": 1.5, "sta": 2.0, ROOT_SPAN: 0.25}


@pytest.fixture()
def fake_layer():
    """A throwaway module ``_fake_layer`` plus an importer binding its
    functions by name (``from _fake_layer import outer, inner``)."""
    layer = types.ModuleType("_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return layer.inner(x) * 2

    class Box:
        @classmethod
        def make(cls, x):
            return layer.outer(x)

    layer.inner, layer.outer, layer.Box = inner, outer, Box
    importer = types.ModuleType("_fake_importer")
    importer.outer, importer.inner = outer, inner
    sys.modules["_fake_layer"] = layer
    sys.modules["_fake_importer"] = importer
    yield layer, importer
    del sys.modules["_fake_layer"], sys.modules["_fake_importer"]


def _targets():
    return (Target("fake.work", "_fake_layer", "outer"),
            Target("fake.work", "_fake_layer", "inner"),
            Target("fake.box", "_fake_layer:Box", "make"),
            Target("fake.gone", "_fake_layer", "missing"),
            Target("fake.gone", "_no_such_module", "f"))


def test_wrappers_cover_importers_and_classmethods(fake_layer):
    layer, importer = fake_layer
    originals = (layer.outer, layer.inner, layer.Box.__dict__["make"])
    ledger = Ledger(_targets())
    with ledger.installed():
        with ledger.root():
            assert importer.outer(1) == 4     # bound by name elsewhere
            assert importer.inner(1) == 2
            assert layer.Box.make(1) == 4     # classmethod on the class
    summary = ledger.summary()
    # outer -> inner is one entry into "fake.work": the nested call is
    # neither a second span nor a second count.
    assert summary["calls"] == {"fake.work": 3, "fake.box": 1}
    assert summary["spans"] == 1 + 3 + 1
    assert summary["roots"] == [ROOT_SPAN]
    assert sorted(summary["absent"]) == ["_fake_layer.missing",
                                         "_no_such_module.f"]
    assert abs(sum(summary["self_s"].values()) - summary["wall_s"]) < 1e-9
    # Uninstall restores every binding.
    assert (layer.outer, layer.inner, layer.Box.__dict__["make"]) \
        == originals
    assert importer.outer is originals[0]


def test_tally_and_layer_metrics(fake_layer):
    layer, _ = fake_layer
    ledger = Ledger((Target("isa.cosim", "_fake_layer", "inner",
                            tally=("isa.cosim_cycles", int)),))
    with ledger.installed():
        with ledger.root():
            layer.inner(4)
            layer.inner(9)
    stats = {"points": 6, "cache_hits": 1, "cache_misses": 3,
             "artifact_hits": 0}
    metrics = layer_metrics(ledger.summary(), stats)
    assert metrics["isa.cosim_cycles"] == 5 + 10
    assert metrics["runner.points"] == 6
    assert metrics["runner.hit_ratio"] == 0.25
    assert metrics["isa.cycles_per_s"] > 0
    assert set(EXACT) <= set(metrics)
    assert set(LAYER_SOURCES) <= set(metrics)
