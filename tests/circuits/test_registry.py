"""The design registry: names -> builders, plus Verilog-path fallback."""

import pytest

from repro.circuits import registry
from repro.errors import RegistryError
from repro.netlist.core import Design

BUILTINS = ["counter16", "lfsr16", "m0lite", "mult16"]


class TestRegistry:
    def test_builtins_registered(self):
        assert registry.available_designs() == BUILTINS
        for name in BUILTINS:
            assert registry.is_registered(name)

    def test_build_default_params(self, lib):
        top = registry.build("counter16", lib)
        assert top.name == "counter16"

    def test_build_param_override(self, lib):
        wide = registry.build("counter16", lib, width=24)
        narrow = registry.build("counter16", lib, width=8)
        assert len(list(wide.cell_instances())) \
            > len(list(narrow.cell_instances()))

    def test_entry_metadata(self):
        e = registry.entry("mult16")
        assert e.name == "mult16"
        # Legacy names are database aliases: defaults carry the family
        # spelling (``n``), and the entry knows its canonical key.
        assert e.defaults == {"n": 16}
        assert str(e.key) == "multiplier(n=16, registered=True)"
        assert e.doc

    def test_alias_matches_family_key(self, lib):
        from repro.circuits.generators import DesignKey
        from repro.runner.fingerprint import module_fingerprint

        via_alias = registry.resolve("mult16", lib)
        via_key = registry.resolve(DesignKey("multiplier", n=16), lib)
        assert module_fingerprint(via_alias.top) \
            == module_fingerprint(via_key.top)

    def test_alias_legacy_keyword_still_works(self, lib):
        # Historical API: registry.build("mult16", lib, width=8).
        top = registry.build("mult16", lib, width=8)
        assert top.name == "mult8"

    def test_unknown_name_lists_available(self, lib):
        with pytest.raises(RegistryError) as err:
            registry.resolve("mult32", lib)
        message = str(err.value)
        assert "mult32" in message
        for name in BUILTINS:
            assert name in message

    def test_entry_unknown_name(self):
        with pytest.raises(RegistryError):
            registry.entry("nope")

    def test_resolve_registered(self, lib):
        design = registry.resolve("mult16", lib)
        assert isinstance(design, Design)
        assert design.top.name == "mult16"

    def test_resolve_verilog_path(self, lib, tmp_path, toy_design):
        from repro.netlist.verilog import dumps_verilog

        path = tmp_path / "toy.v"
        path.write_text(dumps_verilog(toy_design))
        design = registry.resolve(str(path), lib)
        assert design.top.name == toy_design.top.name

    def test_resolve_missing_file(self, lib):
        with pytest.raises(FileNotFoundError):
            registry.resolve("missing/file.v", lib)

    def test_params_rejected_for_paths(self, lib):
        with pytest.raises(RegistryError):
            registry.resolve("some/file.v", lib, width=8)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            registry.register_design("mult16")(lambda library: None)

    def test_duplicate_registration_names_both_sites(self):
        def first(library):
            raise AssertionError("never built")

        def second(library):
            raise AssertionError("never built")

        registry.register_design("dup_probe")(first)
        try:
            with pytest.raises(RegistryError) as err:
                registry.register_design("dup_probe")(second)
            message = str(err.value)
            assert "dup_probe" in message
            # Both the original and the clashing registration sites are
            # named so the developer can find the offender.
            assert message.count("test_registry.py:") == 2
        finally:
            registry.unregister_design("dup_probe")

    def test_identical_reregistration_is_noop(self):
        def probe(library):
            raise AssertionError("never built")

        registry.register_design("noop_probe")(probe)
        try:
            registry.register_design("noop_probe")(probe)
            assert registry.is_registered("noop_probe")
        finally:
            registry.unregister_design("noop_probe")
