"""The level-swept activity estimate against the per-gate walk
(``walk.py``), compared with ``float.hex``: every product and sum is the
same IEEE operation sequence, so the two agree to the bit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import generators
from repro.netlist.core import Design, Module
from repro.power.probabilistic import estimate_activity
from repro.techniques import technique

from ..netlist.test_random_properties import CLOCKINGS, COMMON, \
    build_random_circuit
from .walk import walk_activity


def _hexed(estimate):
    return ([(name, float.hex(v)) for name, v in estimate.prob.items()],
            [(name, float.hex(v)) for name, v in estimate.density.items()])


def _same_estimate(module, **kwargs):
    assert _hexed(estimate_activity(module, **kwargs)) \
        == _hexed(walk_activity(module, **kwargs))


@pytest.mark.parametrize("name", generators.available_families())
def test_every_family(lib, name):
    _same_estimate(generators.elaborate(generators.family(name).key(), lib))


@pytest.mark.parametrize("clocking", CLOCKINGS)
@settings(**COMMON)
@given(st.integers(0, 10_000), st.floats(0.05, 0.95), st.floats(0.0, 1.0))
def test_random_circuits(lib, clocking, seed, prob, density):
    module = build_random_circuit(lib, seed, n_gates=40, clocked=True,
                                  clocking=clocking)
    inputs = [port.name for port in module.input_ports()]
    _same_estimate(module, input_probs={inputs[0]: prob},
                   input_densities={inputs[-1]: density},
                   default_prob=1 - prob, default_density=density)


def test_scpg_design_with_tie_cells(lib):
    """The flattened SCPG multiplier: isolation cells, a TIEHI rail
    sense, headers and the gating controller."""
    design = generators.elaborate(
        generators.family("multiplier").key(n=4), lib)
    flat = technique("scpg").transform(Design(design, lib)).flat.top
    assert any(i.cell.name.startswith("TIE") for i in flat.cell_instances())
    _same_estimate(flat)


def test_shift_register_reads_the_value_just_sampled(lib):
    """Flops whose D is another flop's Q (in either instance order) and a
    flop with a floating D: the sequential update reads each Q as the
    per-flop loop leaves it."""
    m = Module("shift")
    clk = m.add_input("clk")
    d = m.add_input("d")
    q = [m.add_net("q{}".format(k)) for k in range(4)]
    m.add_instance("inv", "INV_X1", {"A": d, "Y": m.add_net("nd")},
                   library=lib)
    m.add_instance("f0", "DFF_X1", {"D": m.net("nd"), "CK": clk, "Q": q[0]},
                   library=lib)
    m.add_instance("f1", "DFF_X1", {"D": q[0], "CK": clk, "Q": q[1]},
                   library=lib)
    m.add_instance("f3", "DFF_X1", {"D": q[2], "CK": clk, "Q": q[3]},
                   library=lib)
    m.add_instance("f2", "DFF_X1", {"D": q[1], "CK": clk, "Q": q[2]},
                   library=lib)
    m.add_instance("f4", "DFF_X1", {"CK": clk, "Q": m.add_net("qf")},
                   library=lib)
    y = m.add_output("y")
    m.add_instance("and", "AND2_X1", {"A": q[3], "B": m.net("qf"), "Y": y},
                   library=lib)
    _same_estimate(m, input_probs={"d": 0.3}, default_prob=0.7)
