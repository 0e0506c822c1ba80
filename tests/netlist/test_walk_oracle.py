"""The levelization against its object-graph oracle (``walk.py``).

:func:`~repro.netlist.traverse.topological_instances` sweeps the
integer connectivity index level by level; the oracle is the FIFO Kahn
walk over ``Net`` / ``Instance`` objects it replaced.  Both must give
the same order, the same levels and the same loop error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import generators
from repro.errors import NetlistError
from repro.netlist.core import Module
from repro.netlist.traverse import topological_instances
from repro.netlist.verilog import read_verilog

from ..integration.test_simulation_errors import LATCH_CELLS, LOOP, \
    _module_text
from .test_random_properties import CLOCKINGS, COMMON, build_random_circuit
from .walk import walk_levels


def _same_walk(module):
    order, level_of = topological_instances(module)
    want_order, want_levels = walk_levels(module)
    assert [i.name for i in order] == [i.name for i in want_order]
    assert list(level_of.items()) == list(want_levels.items())


def _loop_error(walk, module):
    with pytest.raises(NetlistError) as info:
        walk(module)
    return str(info.value)


class TestSameOrder:
    @pytest.mark.parametrize("clocking", CLOCKINGS)
    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_random_circuits(self, lib, clocking, seed):
        _same_walk(build_random_circuit(lib, seed, n_gates=40, clocked=True,
                                        clocking=clocking))

    @pytest.mark.parametrize("name", generators.available_families())
    def test_every_family(self, lib, name):
        _same_walk(generators.elaborate(generators.family(name).key(), lib))

    def test_empty_module(self):
        assert topological_instances(Module("empty")) == ([], {})


class TestSameLoopError:
    def test_srlatch(self, tmp_path, lib):
        path = tmp_path / "latch.v"
        path.write_text(_module_text(["clk", "s", "r"], ["o"], LATCH_CELLS))
        module = read_verilog(str(path), lib).top
        message = _loop_error(topological_instances, module)
        assert message == _loop_error(walk_levels, module)
        assert message.startswith(LOOP)

    def test_names_the_first_eight_stuck(self, lib):
        """A ring of twelve inverters, fed and read by other gates: the
        error names the first eight stuck gates in instance order."""
        m = Module("ring")
        a = m.add_input("a")
        y = m.add_output("y")
        ring = [m.add_net("r{}".format(k)) for k in range(12)]
        m.add_instance("head", "NAND2_X1",
                       {"A": a, "B": ring[-1], "Y": ring[0]}, library=lib)
        for k in range(1, 12):
            m.add_instance("inv{}".format(k), "INV_X1",
                           {"A": ring[k - 1], "Y": ring[k]}, library=lib)
        m.add_instance("tail", "BUF_X1", {"A": ring[5], "Y": y}, library=lib)
        message = _loop_error(topological_instances, m)
        assert message == _loop_error(walk_levels, m)
        assert message.endswith("head, inv1, inv2, inv3, inv4, inv5, "
                                "inv6, inv7")
