"""SAIF-lite activity interchange."""

import random

import pytest

from repro.errors import SimulationError
from repro.power.dynamic import dynamic_power
from repro.sim.saif import (
    dumps_saif,
    parse_saif,
    probabilities_from_saif,
    read_saif,
    toggles_from_saif,
    write_saif,
)
from repro.sim.compiled import bus_values

from .testbench import ClockedTestbench


@pytest.fixture(scope="module")
def recorded(mult_module):
    tb = ClockedTestbench(mult_module)
    tb.reset_flops()
    rng = random.Random(4)
    ones = {name: 0 for name in tb.sim.toggle_snapshot()}
    for _ in range(30):
        tb.cycle({**bus_values("a", 16, rng.getrandbits(16)),
                  **bus_values("b", 16, rng.getrandbits(16))})
        for name, value in tb.sim.state_snapshot().items():
            if value == 1:
                ones[name] += 1
    probs = {name: count / tb.cycles for name, count in ones.items()}
    return tb, probs


class TestWriter:
    def test_structure(self, mult_module, recorded):
        tb, probs = recorded
        text = dumps_saif(mult_module, tb.cycles,
                          tb.sim.toggle_snapshot(), probs)
        assert text.startswith("(SAIFILE")
        assert "(DURATION 30)" in text
        assert "(INSTANCE mult16" in text
        assert "(TC " in text

    def test_t0_t1_sum_to_duration(self, mult_module, recorded):
        tb, probs = recorded
        text = dumps_saif(mult_module, tb.cycles,
                          tb.sim.toggle_snapshot(), probs)
        duration, nets = parse_saif(text)
        for name, (t0, t1, _tc) in nets.items():
            assert t0 + t1 == duration, name

    def test_bad_duration(self, mult_module):
        with pytest.raises(SimulationError):
            dumps_saif(mult_module, 0, {})


class TestRoundTrip:
    def test_through_file(self, mult_module, recorded, tmp_path):
        tb, probs = recorded
        path = tmp_path / "act.saif"
        write_saif(str(path), mult_module, tb.cycles,
                   tb.sim.toggle_snapshot(), probs)
        duration, nets = read_saif(str(path))
        assert duration == tb.cycles
        original = tb.sim.toggle_snapshot()
        recovered = toggles_from_saif(nets)
        for name, count in recovered.items():
            assert count == original.get(name, 0)

    def test_probabilities_recovered(self, mult_module, recorded):
        tb, probs = recorded
        text = dumps_saif(mult_module, tb.cycles,
                          tb.sim.toggle_snapshot(), probs)
        duration, nets = parse_saif(text)
        back = probabilities_from_saif(nets, duration)
        for name, p in list(probs.items())[:50]:
            assert back[name] == pytest.approx(p, abs=0.5 / duration + 1e-9)

    def test_power_from_saif_matches_direct(self, mult_module, lib,
                                            recorded):
        """The full loop: simulate -> SAIF -> power equals direct power."""
        tb, probs = recorded
        text = dumps_saif(mult_module, tb.cycles,
                          tb.sim.toggle_snapshot(), probs)
        duration, nets = parse_saif(text)
        via_saif = dynamic_power(mult_module, lib,
                                 toggles_from_saif(nets), duration)
        direct = dynamic_power(mult_module, lib,
                               tb.sim.toggle_snapshot(), tb.cycles)
        assert via_saif.energy_per_cycle == pytest.approx(
            direct.energy_per_cycle)


class TestParserErrors:
    def test_no_duration(self):
        with pytest.raises(SimulationError):
            parse_saif("(SAIFILE)")

    def test_no_nets(self):
        with pytest.raises(SimulationError):
            parse_saif("(SAIFILE (DURATION 5))")
