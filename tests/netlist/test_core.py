"""Netlist object model: modules, nets, ports, instances, hierarchy."""

import pickle

import pytest

from repro.circuits.registry import build
from repro.errors import LibraryError, NetlistError
from repro.netlist.core import Design, Module, PortDirection
from repro.netlist.traverse import levels_for, topological_instances
from repro.netlist.validate import validate_module
from repro.power.leakage import leakage_power
from repro.power.probabilistic import activity_for
from repro.sim.compiled import compile_schedule, schedule_for
from repro.sta.analysis import timing_for
from repro.sta.delay import net_caps, net_load

from ..power.walk import leakage_power_walk, walk_activity
from ..sta.walk import walk_timing


class TestNetsAndPorts:
    def test_input_port_drives_its_net(self, lib):
        m = Module("m")
        net = m.add_input("a")
        assert net.is_driven
        assert m.port("a").direction is PortDirection.INPUT

    def test_output_port_loads_its_net(self, lib):
        m = Module("m")
        net = m.add_output("y")
        assert not net.is_driven
        assert net.fanout() == 1  # the port itself

    def test_duplicate_port_rejected(self):
        m = Module("m")
        m.add_input("a")
        with pytest.raises(NetlistError):
            m.add_port("a", PortDirection.OUTPUT)

    def test_duplicate_net_rejected(self):
        m = Module("m")
        m.add_net("n")
        with pytest.raises(NetlistError):
            m.add_net("n")

    def test_auto_net_names_unique(self):
        m = Module("m")
        names = {m.add_net().name for _ in range(50)}
        assert len(names) == 50

    def test_const_nets_shared(self):
        m = Module("m")
        assert m.const(0) is m.const(0)
        assert m.const(1) is not m.const(0)
        assert m.const(1).const_value == 1
        assert m.const(0).is_driven

    def test_const_range(self):
        m = Module("m")
        with pytest.raises(NetlistError):
            m.const(2)

    def test_unknown_lookups_raise(self):
        m = Module("m")
        with pytest.raises(NetlistError):
            m.net("ghost")
        with pytest.raises(NetlistError):
            m.port("ghost")
        with pytest.raises(NetlistError):
            m.instance("ghost")


class TestInstances:
    def test_connectivity_bookkeeping(self, lib):
        m = Module("m")
        a, b = m.add_input("a"), m.add_input("b")
        y = m.add_net("y")
        inst = m.add_instance("g", "NAND2_X1", {"A": a, "B": b, "Y": y},
                              library=lib)
        assert y.driver == (inst, "Y")
        assert (inst, "A") in a.loads
        assert inst.net("A") is a
        assert inst.net("Z") is None
        assert inst.ref_name == "NAND2_X1"

    def test_multiple_drivers_rejected(self, lib):
        m = Module("m")
        a = m.add_input("a")
        y = m.add_net("y")
        m.add_instance("g1", "INV_X1", {"A": a, "Y": y}, library=lib)
        with pytest.raises(NetlistError):
            m.add_instance("g2", "INV_X1", {"A": a, "Y": y}, library=lib)

    def test_second_driver_named(self, lib):
        m = Module("m")
        a = m.add_input("a")
        y = m.add_net("y")
        m.add_instance("g1", "INV_X1", {"A": a, "Y": y}, library=lib)
        g2 = m.add_instance("g2", "INV_X1", {"A": a}, library=lib)
        with pytest.raises(NetlistError, match="net y has multiple drivers"):
            m.connect(g2, "Y", y)

    def test_connect_unknown_pin_names_cell_and_pin(self, lib):
        m = Module("m")
        g = m.add_instance("g", "INV_X1", {}, library=lib)
        with pytest.raises(LibraryError, match="cell INV_X1 has no pin Q"):
            m.connect(g, "Q", m.add_net("n"))
        assert g.connections == {}

    def test_driving_const_rejected(self, lib):
        m = Module("m")
        a = m.add_input("a")
        with pytest.raises(NetlistError):
            m.add_instance("g", "INV_X1", {"A": a, "Y": m.const(0)},
                           library=lib)

    def test_duplicate_instance_rejected(self, lib):
        m = Module("m")
        a = m.add_input("a")
        m.add_instance("g", "INV_X1", {"A": a, "Y": m.add_net()},
                       library=lib)
        with pytest.raises(NetlistError):
            m.add_instance("g", "INV_X1", {"A": a, "Y": m.add_net()},
                           library=lib)

    def test_cell_name_requires_library(self):
        m = Module("m")
        with pytest.raises(NetlistError):
            m.add_instance("g", "INV_X1", {})

    def test_foreign_net_rejected(self, lib):
        m1, m2 = Module("m1"), Module("m2")
        a = m1.add_input("a")
        with pytest.raises(NetlistError):
            m2.add_instance("g", "INV_X1", {"A": a, "Y": m2.add_net()},
                            library=lib)

    def test_remove_instance_detaches(self, lib):
        m = Module("m")
        a = m.add_input("a")
        y = m.add_net("y")
        inst = m.add_instance("g", "INV_X1", {"A": a, "Y": y}, library=lib)
        m.remove_instance("g")
        assert y.driver is None
        assert (inst, "A") not in a.loads
        assert not any(i.name == "g" for i in m.instances())

    def test_generation_counts_every_edit(self, lib):
        m = Module("m")
        seen = [m.generation]

        def moved():
            seen.append(m.generation)
            return seen[-1] > seen[-2]

        a = m.add_input("a")
        assert moved()
        y = m.add_net("y")
        assert moved()
        m.const(1)
        assert moved()
        m.const(1)  # the shared net already exists: no edit
        assert not moved()
        inst = m.add_instance("g", "INV_X1", {"A": a}, library=lib)
        assert moved()
        m.connect(inst, "Y", y)
        assert moved()
        m.remove_instance("g")
        assert moved()
        m.add_port("z", PortDirection.OUTPUT)
        assert moved()


class TestHierarchyAndFlatten:
    def _hier(self, lib):
        child = Module("child")
        ca = child.add_input("a")
        cy = child.add_output("y")
        child.add_instance("inv", "INV_X1", {"A": ca, "Y": cy}, library=lib)

        top = Module("top")
        a = top.add_input("a")
        y = top.add_output("y")
        mid = top.add_net("mid")
        top.add_instance("u0", child, {"a": a, "y": mid})
        top.add_instance("u1", child, {"a": mid, "y": y})
        return Design(top, lib)

    def test_design_registers_modules(self, lib):
        d = self._hier(lib)
        assert set(d.modules) == {"top", "child"}

    def test_flatten_structure(self, lib):
        flat = self._hier(lib).flatten()
        names = sorted(i.name for i in flat.top.instances())
        assert names == ["u0/inv", "u1/inv"]
        assert all(i.is_cell for i in flat.top.instances())

    def test_flatten_preserves_function(self, lib):
        from ..sim.event import Simulator

        flat = self._hier(lib).flatten()
        sim = Simulator(flat.top)
        sim.set_input("a", 1)
        assert sim.value("y") == 1  # double inversion
        sim.set_input("a", 0)
        assert sim.value("y") == 0

    def test_flatten_maps_constants(self, lib):
        child = Module("c")
        cy = child.add_output("y")
        child.add_instance("g", "OR2_X1",
                           {"A": child.const(1), "B": child.const(0),
                            "Y": cy}, library=lib)
        top = Module("t")
        y = top.add_output("y")
        top.add_instance("u", child, {"y": y})
        flat = Design(top, lib).flatten()
        g = flat.top.instance("u/g")
        assert g.net("A").const_value == 1
        assert g.net("B").const_value == 0

    def test_flattened_name_clash_rejected(self, lib):
        """A top-level cell named like a flattened path must not silently
        replace (or be replaced by) the submodule's instance."""
        child = Module("child")
        child.add_instance("u1", "INV_X1", {"A": child.add_input("a"),
                                            "Y": child.add_output("y")},
                           library=lib)
        top = Module("top")
        a = top.add_input("a")
        top.add_instance("u_comb/u1", "INV_X1",
                         {"A": a, "Y": top.add_output("z")}, library=lib)
        top.add_instance("u_comb", child, {"a": a, "y": top.add_output("y")})
        with pytest.raises(NetlistError, match="u_comb/u1"):
            Design(top, lib).flatten()

    def test_flattened_name_clash_from_verilog_rejected(self, lib):
        from repro.netlist.verilog import parse_verilog

        text = "\n".join([
            "module child (a, y);",
            "  input a;",
            "  output y;",
            "  INV_X1 u1 (.A(a), .Y(y));",
            "endmodule",
            "module top (a, y, z);",
            "  input a;",
            "  output y;",
            "  output z;",
            "  child u_comb (.a(a), .y(y));",
            "  INV_X1 \\u_comb/u1  (.A(a), .Y(z));",
            "endmodule",
        ])
        design = parse_verilog(text, lib, top="top")
        assert len(list(design.top.instances())) == 2
        with pytest.raises(NetlistError, match="u_comb/u1"):
            design.flatten()

    def test_two_modules_same_name_rejected(self, lib):
        m1 = Module("dup")
        m2 = Module("dup")
        top = Module("top")
        top.add_instance("u0", m1, {})
        top.add_instance("u1", m2, {})
        with pytest.raises(NetlistError):
            Design(top, lib)


def _levels_walk(module, lib):
    """The walk's order, levelled again by longest path over it."""
    order = topological_instances(module)[0]
    level_of = {}
    for inst in order:
        level_of[inst.name] = max(
            (level_of[net.driver[0].name] + 1
             for net in inst.connections.values()
             if isinstance(net.driver, tuple)
             and net.driver[0].name in level_of), default=0)
    return order, level_of


def _caps_walk(module, lib):
    return [0.0 if net.is_const else net_load(net, lib)
            + (net.driver[0].cell.c_internal
               if isinstance(net.driver, tuple) else 0.0)
            for net in module.nets()]


def _schedule_summary(schedule):
    vectors = [{}] * 3
    return (schedule.soa.net_names,
            schedule.run_vectors(vectors).toggle_snapshot())


#: (cached accessor, uncached reference, comparable summary) per analysis.
DERIVED = {
    "levels": (lambda m, lib: levels_for(m), _levels_walk,
               lambda v: ([i.name for i in v[0]], dict(v[1]))),
    "activity": (lambda m, lib: activity_for(m),
                 lambda m, lib: walk_activity(m),
                 lambda v: (v.prob, v.density)),
    "net_caps": (net_caps, _caps_walk, list),
    "timing": (lambda m, lib: timing_for(m, lib).run(), walk_timing,
               lambda v: (v.eval_delay, str(v.critical_path))),
    "leakage": (leakage_power, leakage_power_walk,
                lambda v: (v.total, v.by_cell)),
    "schedule": (lambda m, lib: schedule_for(m),
                 lambda m, lib: compile_schedule(m), _schedule_summary),
}


class TestDerivedCache:
    """Every analysis cached on a module is rebuilt after an edit, and
    the cache neither survives a pickle nor hides a new loop."""

    @pytest.mark.parametrize("analysis", sorted(DERIVED))
    def test_rederived_after_edit(self, lib, analysis):
        cached, fresh, summary = DERIVED[analysis]
        module = build("counter16", lib)
        before = summary(cached(module, lib))

        timing_for(module, lib)
        clone = pickle.loads(pickle.dumps(module))
        assert clone._derived[1] == {}
        assert summary(cached(clone, lib)) == before

        net = module.output_ports()[0].net
        module.add_instance("extra_inv", "INV_X1",
                            {"A": net, "Y": module.add_net("extra_y")},
                            library=lib)
        after = summary(cached(module, lib))
        assert after == summary(fresh(module, lib))
        assert after != before

        a, b = module.add_net("loop_a"), module.add_net("loop_b")
        module.add_instance("loop_0", "INV_X1", {"A": a, "Y": b},
                            library=lib)
        module.add_instance("loop_1", "INV_X1", {"A": b, "Y": a},
                            library=lib)
        assert any("combinational loop" in e
                   for e in validate_module(module).errors)
        ok, why = schedule_for(module).vector_ready()
        assert not ok and "combinational loop" in why

