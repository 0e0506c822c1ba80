"""What a stored answer is keyed on: the question asked, not the built
netlist.

A :class:`~repro.session.DesignHandle` is identified by its canonical
design key (or its Verilog source) plus the library, so a warm handle
answers without elaborating.  These tests pin that every input of an
answer still reaches its key: each design-key parameter, an alias's
parameters, the library, a Verilog file's content, each power-model
field and each technique option -- and that a netlist edited after
elaboration is keyed on its netlist again.
"""

import copy
import dataclasses

import pytest

from repro.circuits.generators import DesignKey, available_families, \
    elaborate, family
from repro.netlist.core import Module
from repro.netlist.verilog import write_verilog
from repro.runner import module_fingerprint, stable_hash
from repro.analysis.sweep import power_cache_key
from repro.scpg.power_model import Mode
from repro.session import Session
from repro.subvt.energy import _model_cache_key
from repro.tech.scl90 import build_scl90
from repro.techniques import technique
from repro.techniques.compare import BaselineModel, compare_cache_key
from repro.techniques.scpg import ScpgCompareModel


@pytest.fixture
def session(lib):
    s = Session(library=lib, store=None)
    yield s
    s.close()


@pytest.fixture
def built(monkeypatch):
    """Names of the modules constructed while the fixture is active."""
    names = []
    real = Module.__init__

    def counted(self, name):
        names.append(name)
        real(self, name)

    monkeypatch.setattr(Module, "__init__", counted)
    return names


def _other_value(param):
    """A valid value of ``param`` other than its default."""
    if param.choices is not None:
        return next(c for c in param.choices if c != param.default)
    if param.type is bool:
        return not param.default
    step = param.type(1)
    if param.maximum is not None and param.default + step > param.maximum:
        return param.default - step
    return param.default + step


class TestDesignIdentity:
    def test_every_key_parameter_changes_the_key(self, session, built):
        seen = {}
        for name in available_families():
            fam = family(name)
            base = session.design(DesignKey(name)).fingerprint
            seen[base] = name
            for param in fam.params:
                alt = DesignKey(name, **{param.name: _other_value(param)})
                fp = session.design(alt).fingerprint
                assert fp not in seen, (alt, seen.get(fp))
                seen[fp] = str(alt)
        # Keyed on the question: nothing was elaborated to key them.
        assert built == []

    def test_spellings_of_one_design_share_a_key(self, session):
        fp = session.design("multiplier(n=8)").fingerprint
        assert session.design("mult16", width=8).fingerprint == fp
        assert session.design(DesignKey("multiplier", n=8)).fingerprint \
            == fp
        assert session.design("multiplier", n=8).fingerprint == fp

    def test_alias_params_change_the_key(self, session):
        plain = session.design("counter16").fingerprint
        narrow = session.design("counter16", width=8).fingerprint
        assert narrow != plain
        assert narrow == session.design("counter(width=8)").fingerprint

    def test_library_changes_the_key(self, lib):
        other = build_scl90()
        other.add_cell(dataclasses.replace(other.cell("INV_X1"),
                                           name="INV_X1_SPARE"))
        keys = set()
        for library in (lib, build_scl90(), other):
            s = Session(library=library, store=None)
            keys.add(s.design("counter16").fingerprint)
            s.close()
        # Equal libraries share a key; another library does not.
        assert len(keys) == 2

    def test_verilog_content_is_the_key(self, session, lib, tmp_path,
                                        built):
        a, b, a_again = (tmp_path / n for n in ("a.v", "b.v", "c.v"))
        write_verilog(session.design("counter(width=4)").design, str(a))
        write_verilog(session.design("counter(width=5)").design, str(b))
        a_again.write_bytes(a.read_bytes())
        del built[:]
        fps = [session.design(str(p)).fingerprint for p in (a, b, a_again)]
        assert fps[0] != fps[1]
        assert fps[0] == fps[2]
        assert built == []
        a.write_bytes(a.read_bytes() + b"\n// edited\n")
        assert session.design(str(a)).fingerprint != fps[0]

    def test_edited_module_keys_on_its_netlist(self, lib):
        s = Session(library=lib, store=None)
        try:
            spec = "counter(width=6)"
            before = s.design(spec).fingerprint
            handle = s.design(spec)
            top = handle.design.top
            assert handle.fingerprint == before
            top.add_instance("u_extra", "INV_X1",
                             {"A": top.port("clk").net,
                              "Y": top.add_net()}, library=lib)
            edited = stable_hash("design-v2", module_fingerprint(top), lib)
            assert handle.fingerprint == edited != before
            # The edit reached the shared elaboration, so a new handle
            # for the same key is keyed on the netlist too.
            assert s.design(spec).fingerprint == edited
        finally:
            # Leave no edited module in the shared elaboration memo.
            from repro.circuits import generators

            generators._ELABORATED.get(lib, {}).pop(
                DesignKey("counter", width=6), None)
            s.close()

    def test_ad_hoc_builder_keys_on_its_netlist(self, session, lib):
        from repro.circuits.registry import register_design, \
            unregister_design

        @register_design("identity_probe", width=4)
        def build(library, width):
            return elaborate(DesignKey("counter", width=width), library,
                             fresh=True)

        try:
            handle = session.design("identity_probe")
            assert handle.fingerprint == stable_hash(
                "design-v2", module_fingerprint(handle.design.top), lib)
        finally:
            unregister_design("identity_probe")


def _variants(obj):
    """``(field, copy of obj with that one field changed)`` for every
    float field of ``obj`` and, one level down, of its dataclass-valued
    fields."""
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) \
        else None
    names = [f.name for f in fields] if fields is not None else list(vars(obj))
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, float):
            yield name, _with(obj, name, value * 1.5 + 1e-30)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for sub, changed in _variants(value):
                yield "{}.{}".format(name, sub), _with(obj, name, changed)


def _with(obj, name, value):
    out = copy.copy(obj)
    object.__setattr__(out, name, value)
    return out


def _assert_every_field_moves_the_key(model, key_of):
    base = key_of(model)
    keys = {"": base}
    for name, changed in _variants(model):
        keys[name] = key_of(changed)
    assert len(keys) > 2
    assert len(set(keys.values())) == len(keys), keys


class TestModelKeys:
    def test_scpg_power_model(self, session):
        model = session.design("counter16").power_model()
        _assert_every_field_moves_the_key(model, power_cache_key)

    def test_subvt_model(self, session):
        model = session.design("counter16").subvt_model()
        _assert_every_field_moves_the_key(model, _model_cache_key)

    def test_technique_models_and_options(self, session, lib):
        handle = session.design("counter16")
        e_cycle, _ = handle.switching()
        leakage, sta = handle.leakage(), handle.sta()
        models = [BaselineModel(e_cycle=e_cycle, leak_total=leakage.total,
                                t_eval=sta.eval_delay, t_setup=sta.setup,
                                vdd=lib.vdd_nom)]
        for name in ("cbtstc", "lector"):
            tech = technique(name)
            models.append(tech.sweep_model(
                tech.compare_input(handle, e_cycle), library=lib,
                e_cycle=e_cycle, base_leakage=leakage, base_sta=sta,
                vdd=None))
        for model in models:
            _assert_every_field_moves_the_key(model, compare_cache_key)
        # SCPG's option is the mode its column evaluates; its inner
        # model's fields are covered above.
        power = handle.power_model()
        keys = {compare_cache_key(ScpgCompareModel(power, mode))
                for mode in Mode}
        assert len(keys) == len(Mode)
        assert compare_cache_key(ScpgCompareModel(power)) \
            != compare_cache_key(ScpgCompareModel(
                _with(power, "vdd", power.vdd * 0.5)))


class TestWarmSession:
    def test_warm_answers_build_no_module(self, tmp_path, built):
        store = str(tmp_path / "store.sqlite")
        spec, freqs = "multiplier(n=8)", [1e4, 1e5, 1e6]

        def ask():
            # A new library object each time: nothing elaborated for an
            # earlier session can be reused in process.
            s = Session(library=build_scl90(), store=store)
            try:
                h = s.design(spec)
                answer = (repr(h.table(freqs)), repr(h.convergence()),
                          repr(h.minimum_energy_point()),
                          repr(s.compare_techniques(h, freqs=freqs)
                               .as_dict()))
                return answer, s.stats
            finally:
                s.close()

        cold, _ = ask()
        assert built
        del built[:]
        warm, stats = ask()
        assert warm == cold
        assert built == []
        assert (stats.evaluated, stats.artifact_hits) == (0, 1)
