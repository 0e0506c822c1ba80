"""The bulk netlist copier against its pin-by-pin oracles (``walk.py``).

``Module.copy``, ``Design.flatten``, ``split_combinational`` and
``remap_cells`` build their result through one copier that writes
connections, drivers and loads directly.  Each must give exactly the
netlist its oracle builds -- a copy's oracle is its source -- down to net,
port and instance order, per-net load order, constant nets and the
auto-naming counter, so every lowered form and analysis digests the same.
"""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import generators
from repro.errors import NetlistError
from repro.flows.synthesis import synthesize
from repro.netlist.core import Design, Module
from repro.netlist.soa import lower_leakage, lower_soa
from repro.netlist.transform import remap_cells, split_combinational
from repro.netlist.traverse import connectivity_for, levels_for
from repro.power.probabilistic import estimate_activity
from repro.sta.analysis import TimingAnalysis
from repro.tech.library import Cell
from repro.techniques.lector import LCT_SUFFIX, lector_library

from .test_random_properties import CLOCKINGS, COMMON, build_random_circuit
from .walk import flatten_by_pin, remap_by_connect, split_by_connect

#: Supplies of the STA digest: nominal (0.6 V), near- and sub-threshold.
SUPPLIES = (None, 0.45, 0.3)


# -- structural equality ------------------------------------------------------

def _end(end):
    """A driver or load by name: ``(instance, pin)`` or a port."""
    if type(end) is tuple:
        return ("pin", end[0].name, end[1])
    if end is None:
        return None
    return ("port", end.name)


def assert_same_netlist(got, want):
    """``got`` is ``want`` rebuilt: same order of everything, same
    drivers and load order, same constants and auto-naming counter, and
    every object of ``got`` belongs to ``got``."""
    assert got is not want
    assert got.name == want.name
    assert got._uid == want._uid
    assert [(p.name, p.direction, p.net.name) for p in got.ports] == \
        [(p.name, p.direction, p.net.name) for p in want.ports]
    assert list(got._port_index) == list(want._port_index)
    assert [(n.name, n.const_value, _end(n.driver),
             [_end(l) for l in n.loads]) for n in got.nets()] == \
        [(n.name, n.const_value, _end(n.driver),
          [_end(l) for l in n.loads]) for n in want.nets()]
    assert {v: n.name for v, n in got._const_nets.items()} == \
        {v: n.name for v, n in want._const_nets.items()}
    assert [(i.name, i.cell, i.ref_name,
             [(pin, net.name) for pin, net in i.connections.items()])
            for i in got.instances()] == \
        [(i.name, i.cell, i.ref_name,
          [(pin, net.name) for pin, net in i.connections.items()])
         for i in want.instances()]
    for net in got.nets():
        assert net.module is got and got.net(net.name) is net
        for end in [net.driver] + net.loads:
            if type(end) is tuple:
                assert got.instance(end[0].name) is end[0]
            elif end is not None:
                assert got.port(end.name) is end
    for inst in got.instances():
        assert inst.module is got
        for net in inst.connections.values():
            assert got.net(net.name) is net
    for port in got.ports:
        assert port.module is got and got.net(port.name) is port.net
    for value, net in got._const_nets.items():
        assert got.net(net.name) is net


# -- lowered forms, digest for digest ------------------------------------------

def _canon(obj, out):
    if isinstance(obj, np.ndarray):
        out.append("a{}{}".format(obj.dtype.str, obj.shape))
        out.append(np.ascontiguousarray(obj).tobytes().hex())
    elif isinstance(obj, float):
        out.append("f" + obj.hex())
    elif obj is None or isinstance(obj, (bool, int, str, enum.Enum)):
        out.append(repr(obj))
    elif isinstance(obj, Cell):
        out.append("cell " + obj.name)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for key, value in obj.items():
            _canon(key, out)
            _canon(value, out)
        out.append("}")
    elif dataclasses.is_dataclass(obj) or hasattr(obj, "__dict__"):
        out.append(type(obj).__qualname__)
        _canon(obj.__getstate__(), out)
    else:
        out.append(repr(obj))


def digest(obj):
    """Order-sensitive, float-exact content digest."""
    out = []
    _canon(obj, out)
    return hashlib.sha256("|".join(out).encode()).hexdigest()


def _outcome(analysis, *args):
    try:
        return digest(analysis(*args))
    except Exception as exc:  # both sides must fail alike
        return "raises {}: {}".format(type(exc).__name__, exc)


def lowered(module, library):
    """Digests of the struct-of-arrays and leakage lowerings, the STA at
    :data:`SUPPLIES` and the activity estimate of a flat ``module``."""
    sta = TimingAnalysis(module, library)
    return {
        "soa": _outcome(lower_soa, module),
        "leakage": _outcome(lower_leakage, module),
        "sta": [_outcome(sta.run, vdd) for vdd in SUPPLIES],
        "activity": _outcome(estimate_activity, module),
    }


def assert_same_lowered(got, want, library):
    assert lowered(got, library) == lowered(want, library)


# -- the four users of the copier ------------------------------------------------

def lct_map(library):
    """LECTOR's cell map: every combinational cell to its ``_LCT`` twin."""
    lib_l = lector_library(library)
    return {cell.name: lib_l.cell(cell.name + LCT_SUFFIX)
            for cell in library.cells()
            if lib_l.has_cell(cell.name + LCT_SUFFIX)}, lib_l


def check_every_copier(module, library):
    """Copy, flatten, split and remap ``module`` (flat; left unedited)
    and compare each with its oracle."""
    generation = module.generation
    design = Design(module, library)

    copy = module.copy()
    assert_same_netlist(copy, module)
    assert_same_lowered(copy, module, library)

    flat, want = design.flatten(), flatten_by_pin(design)
    assert_same_netlist(flat.top, want.top)
    assert_same_lowered(flat.top, want.top, library)

    split, want = split_combinational(design), split_by_connect(design)
    assert_same_netlist(split.top, want.top)
    assert_same_netlist(split.comb, want.comb)
    assert split.comb_instance.name == want.comb_instance.name
    assert (split.boundary_inputs, split.boundary_outputs) == \
        (want.boundary_inputs, want.boundary_outputs)
    assert_same_lowered(split.comb, want.comb, library)
    flat, want_flat = split.design.flatten(), flatten_by_pin(want.design)
    assert_same_netlist(flat.top, want_flat.top)
    assert_same_lowered(flat.top, want_flat.top, library)

    cell_map, lib_l = lct_map(library)
    for mapping, lib in (({}, library), (cell_map, lib_l)):
        got = remap_cells(module, mapping, name="remapped")
        want = remap_by_connect(module, mapping, name="remapped")
        assert_same_netlist(got, want)
        assert_same_lowered(got, want, lib)

    assert module.generation == generation


class TestSameNetlist:
    @pytest.mark.parametrize("name", generators.available_families())
    def test_every_family(self, lib, name):
        module = generators.elaborate(generators.family(name).key(), lib)
        check_every_copier(module, lib)

    @pytest.mark.parametrize("clocking", CLOCKINGS)
    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_random_circuits(self, lib, clocking, seed):
        check_every_copier(
            build_random_circuit(lib, seed, n_gates=40, clocked=True,
                                 clocking=clocking), lib)

    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_reconnected_module(self, lib, seed):
        """After fan-out repair and a moved pin, load order is no longer
        instance order: the copy keeps the edited order, and the
        oracles' instance-order rebuild is matched too."""
        module = build_random_circuit(lib, seed, n_gates=40, clocked=True,
                                      clocking="mixed")
        synthesize(module, lib, max_fanout=2)
        # Move the earliest gate's pin of a net that loads two gates off
        # it and back: it rejoins behind a later gate.
        order = {i.name: k for k, i in enumerate(module.instances())}
        net = next(n for n in module.nets()
                   if len({l[0].name for l in n.loads
                           if type(l) is tuple}) >= 2)
        inst, pin = min((l for l in net.loads if type(l) is tuple),
                        key=lambda l: order[l[0].name])
        module.reconnect(inst, pin, module.add_net("detour"))
        module.reconnect(inst, pin, net)
        ranks = [order[l[0].name] for l in net.loads if type(l) is tuple]
        assert ranks != sorted(ranks)
        check_every_copier(module, lib)

    def test_auto_named_nets_continue(self, lib):
        module = Module("m")
        module.add_net()
        module.add_net()
        copy = module.copy()
        assert copy.add_net().name == module.add_net().name == "n2"

    def test_hierarchical_copy_shares_submodules(self, lib):
        split = split_combinational(Design(
            build_random_circuit(lib, 3, clocked=True), lib))
        copy = split.design.copy()
        assert_same_netlist(copy.top, split.top)
        assert copy.modules[split.comb.name] is split.comb
        assert copy.top.instance("u_comb").submodule is split.comb


class TestCopyIsPrivate:
    def test_editing_a_copy_leaves_the_source_alone(self, lib):
        source = build_random_circuit(lib, 11, n_gates=40, clocked=True)
        levels = levels_for(source)
        conn = connectivity_for(source)
        generation = source.generation
        cache = dict(source._derived[1])
        loads = {n.name: list(n.loads) for n in source.nets()}

        copy = source.copy()
        synthesize(copy, lib, max_fanout=2)
        copy.add_instance("extra", "INV_X1",
                          {"A": copy.net("i0"), "Y": copy.add_net()},
                          library=lib)
        copy.remove_instance("u0")
        assert levels_for(copy) is not levels

        assert source.generation == generation
        assert source._derived == (generation, cache)
        assert levels_for(source) is levels
        assert connectivity_for(source) is conn
        assert {n.name: list(n.loads) for n in source.nets()} == loads
        assert not source.has_net("n0") and "extra" not in source._instances

    def test_design_copy_is_private(self, lib):
        design = Design(build_random_circuit(lib, 5, clocked=True), lib)
        copy = design.copy()
        assert copy.top is not design.top and copy.library is design.library
        copy.top.add_input("extra")
        assert not design.top.has_port("extra")


class TestErrors:
    @staticmethod
    def _child(lib):
        child = Module("child")
        child.add_instance("inv", "INV_X1", {"A": child.add_input("a"),
                                             "Y": child.add_output("y")},
                           library=lib)
        return child

    def test_two_drivers_across_hierarchy(self, lib):
        """A child's output bound to a net a parent gate drives.  The
        per-pin checks reject this while the hierarchy is built, so the
        binding is written straight into the instance, as a hand-edited
        netlist would carry it; flattening must still refuse it."""
        top = Module("top")
        a = top.add_input("a")
        n = top.add_output("y")
        top.add_instance("drv", "INV_X1", {"A": a, "Y": n}, library=lib)
        child = top.add_instance("u", self._child(lib), {"a": a})
        child.connections["y"] = n
        design = Design(top, lib)
        for flatten in (Design.flatten, flatten_by_pin):
            with pytest.raises(NetlistError, match="multiple drivers"):
                flatten(design)

    def test_duplicate_flattened_name(self, lib):
        top = Module("top")
        a = top.add_input("a")
        top.add_instance("u/inv", "INV_X1",
                         {"A": a, "Y": top.add_output("z")}, library=lib)
        top.add_instance("u", self._child(lib), {"a": a,
                                                 "y": top.add_output("y")})
        with pytest.raises(NetlistError, match="u/inv"):
            Design(top, lib).flatten()


class TestRemapInterface:
    @staticmethod
    def _module(lib):
        m = Module("m")
        m.add_instance("g", "NAND2_X1", {"A": m.add_input("a"),
                                         "B": m.add_input("b"),
                                         "Y": m.add_output("y")},
                       library=lib)
        return m

    def test_missing_pin(self, lib):
        """NAND2 -> INV: pin B has nowhere to go."""
        with pytest.raises(NetlistError) as info:
            remap_cells(self._module(lib), {"NAND2_X1": lib.cell("INV_X1")})
        assert "INV_X1" in str(info.value)
        assert "NAND2_X1" in str(info.value)

    def test_flipped_direction(self, lib):
        """Same pin names, but Y an input and A an output: rejected
        rather than silently rewiring the driver."""
        nand = lib.cell("NAND2_X1")
        pins = [dataclasses.replace(
            p, direction=nand.pin("Y").direction if p.name == "A"
            else nand.pin("A").direction if p.name == "Y" else p.direction)
            for p in nand.pins]
        flipped = dataclasses.replace(nand, name="NAND2_FLIP", pins=pins)
        assert sorted(flipped.input_names + flipped.output_names) == \
            sorted(nand.input_names + nand.output_names)
        with pytest.raises(NetlistError) as info:
            remap_cells(self._module(lib), {"NAND2_X1": flipped})
        assert "NAND2_FLIP" in str(info.value)
        assert "NAND2_X1" in str(info.value)

    def test_same_interface_accepted(self, lib):
        cell_map, _ = lct_map(lib)
        out = remap_cells(self._module(lib), cell_map)
        assert out.instance("g").cell is cell_map["NAND2_X1"]
