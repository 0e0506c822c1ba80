"""The design database: keys, parameter spaces, memoised elaboration."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits import generators
from repro.circuits.generators import DesignKey, GeneratorError, \
    canonical_key, elaborate, expand_family, family, looks_like_key
from repro.errors import RegistryError, ReproError
from repro.runner.fingerprint import module_fingerprint

FAMILIES = ["adder", "counter", "fir", "lfsr", "m0lite", "multiplier",
            "pipeline", "regfile_alu"]

#: Per family: one out-of-range value and one wrong-typed value for a
#: declared parameter (m0lite has no parameters; covered separately).
BAD_PARAMS = {
    "adder": ({"width": 1}, {"width": "wide"}),
    "counter": ({"width": 0}, {"width": 8.5}),
    "fir": ({"taps": 0}, {"taps": None}),
    "lfsr": ({"width": 5}, {"width": "16"}),
    "multiplier": ({"n": 0}, {"n": True}),
    "pipeline": ({"depth": 33}, {"depth": 4.0}),
    "regfile_alu": ({"nregs": 3}, {"nregs": "8"}),
}


class TestDesignKey:
    def test_equality_and_hash(self):
        a = DesignKey("multiplier", n=16, registered=True)
        b = DesignKey("multiplier", registered=True, n=16)
        assert a == b
        assert hash(a) == hash(b)
        assert a != DesignKey("multiplier", n=8, registered=True)
        assert a != DesignKey("adder", n=16, registered=True)

    def test_immutable(self):
        key = DesignKey("multiplier", n=16)
        with pytest.raises(AttributeError):
            key.n = 8

    def test_str_round_trips_through_parse(self):
        key = DesignKey("adder", width=32, kind="select",
                        registered=True)
        assert DesignKey.parse(str(key)) == key

    def test_parse_value_types(self):
        key = DesignKey.parse(
            "fam(i=3, f=1.5, t=true, s=ripple, q='x y')")
        params = key.params
        assert params == {"i": 3, "f": 1.5, "t": True, "s": "ripple",
                          "q": "x y"}

    def test_parse_rejects_malformed(self):
        for text in ("", "a b", "fam(", "fam(x)", "fam(x=1", "1fam",
                     "multiplier(n=8,n=9)"):
            with pytest.raises(GeneratorError):
                DesignKey.parse(text)
        with pytest.raises(GeneratorError, match="parameter 'n' is given"):
            DesignKey.parse("multiplier(n=8,n=9)")

    def test_looks_like_key(self):
        assert looks_like_key("multiplier(n=8)")
        assert looks_like_key("plainword")
        assert not looks_like_key("some/path.v")
        assert not looks_like_key("fam(x=)")

    def test_with_params(self):
        key = DesignKey("multiplier", n=16, registered=True)
        assert key.with_params(n=8) \
            == DesignKey("multiplier", n=8, registered=True)

    def test_generator_error_is_repro_error(self):
        assert issubclass(GeneratorError, RegistryError)
        assert issubclass(GeneratorError, ReproError)


class TestParameterSpaces:
    def test_builtin_families_present(self):
        assert generators.available_families() == FAMILIES

    @pytest.mark.parametrize("name", sorted(BAD_PARAMS))
    def test_out_of_range_rejected(self, name):
        out_of_range, _ = BAD_PARAMS[name]
        with pytest.raises(GeneratorError) as err:
            family(name).key(**out_of_range)
        # The error names family.param so the offender is findable.
        pname = next(iter(out_of_range))
        assert "{}.{}".format(name, pname) in str(err.value)

    @pytest.mark.parametrize("name", sorted(BAD_PARAMS))
    def test_wrong_type_rejected(self, name):
        _, wrong_type = BAD_PARAMS[name]
        with pytest.raises(GeneratorError):
            family(name).key(**wrong_type)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_unknown_parameter_rejected(self, name):
        with pytest.raises(GeneratorError) as err:
            family(name).key(bogus_param=1)
        assert "bogus_param" in str(err.value)

    def test_unknown_family_lists_available(self):
        with pytest.raises(GeneratorError) as err:
            family("nonesuch")
        message = str(err.value)
        assert "nonesuch" in message
        assert "multiplier" in message

    def test_bool_is_not_int(self):
        with pytest.raises(GeneratorError):
            family("multiplier").key(n=True)

    def test_choices_enforced(self):
        with pytest.raises(GeneratorError) as err:
            family("adder").key(kind="sklansky")
        assert "ripple" in str(err.value)

    def test_canonical_key_fills_defaults(self):
        key = canonical_key(DesignKey("multiplier", n=8))
        assert key.params == {"n": 8, "registered": True}
        assert canonical_key("multiplier(n=8)") == key


class TestElaboration:
    def test_memoised_per_library(self, lib):
        key = DesignKey("counter", width=12)
        assert elaborate(key, lib) is elaborate(key, lib)

    def test_fresh_escape_hatch(self, lib):
        key = DesignKey("counter", width=12)
        assert elaborate(key, lib, fresh=True) \
            is not elaborate(key, lib, fresh=True)

    def test_non_canonical_key_shares_memo(self, lib):
        explicit = DesignKey("multiplier", n=16, registered=True)
        defaulted = DesignKey("multiplier", n=16)
        assert elaborate(explicit, lib) is elaborate(defaulted, lib)

    def test_expand_family_orders_axes(self):
        keys = expand_family("pipeline", depth=[2, 4], width=[8, 16])
        assert [(k.params["depth"], k.params["width"]) for k in keys] \
            == [(2, 8), (2, 16), (4, 8), (4, 16)]

    def test_expand_family_scalar_axis(self):
        keys = expand_family("multiplier", n=8)
        assert len(keys) == 1
        assert keys[0].params["n"] == 8

    def test_expand_family_unknown_axis(self):
        with pytest.raises(GeneratorError):
            expand_family("multiplier", nn=[4, 8])

    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_family_elaborates(self, name, lib):
        module = elaborate(family(name).key(), lib)
        assert module.name
        assert list(module.cell_instances())

    @given(n=st.integers(min_value=2, max_value=10),
           registered=st.booleans())
    def test_same_key_fingerprint_identical(self, n, registered, lib):
        # Two *fresh* elaborations of one key are structurally identical
        # down to the content fingerprint (no hidden global state).
        key = DesignKey("multiplier", n=n, registered=registered)
        first = elaborate(key, lib, fresh=True)
        second = elaborate(key, lib, fresh=True)
        assert first is not second
        assert module_fingerprint(first) == module_fingerprint(second)


class TestRegistration:
    def test_duplicate_family_names_both_sites(self):
        @generators.register_family("probe_family")
        def build_probe(library):
            """Probe family (never elaborated)."""
            raise AssertionError("never built")

        try:
            with pytest.raises(RegistryError) as err:
                @generators.register_family("probe_family")
                def build_probe_again(library):
                    """Clashing probe family."""
                    raise AssertionError("never built")
            assert str(err.value).count("test_generators.py:") == 2
        finally:
            generators.unregister_family("probe_family")
        assert not generators.has_family("probe_family")
