"""Differential tests: :meth:`SoaNetlist.settle` vs the event oracle.

``settle`` is the one gate evaluator of the compiled engine: every
level of a net-major ``(nets, columns)`` matrix as one fused gather.
Here each column holds random source values -- input ports and flop
outputs, X included -- and every settled net must equal what the
event-driven oracle (:mod:`tests.sim.event`) propagates from the same
sources with its flops held.  Covered: random circuits under every
clock structure of the generator, every design family's default key,
batch widths 1 (a row as ``row[:, None]``), 2 and 128, the ``int32``
key path, and fan-out cones settling from a settled state.
"""

import dataclasses
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import generators
from repro.netlist.soa import Level, lower_soa
from repro.sim.logic import X

from ..netlist.test_random_properties import CLOCKINGS, COMMON, \
    build_random_circuit
from .event import Simulator, _CombRecord

WIDTHS = (1, 2, 128)


class HeldOracle:
    """The event oracle with every flop held: driving the sources
    propagates event by event to the combinational fixed point."""

    def __init__(self, module, soa):
        self.sim = Simulator(module, record_toggles=False)
        self.sim._loads = [[rec for rec in loads
                            if isinstance(rec, _CombRecord)]
                           for loads in self.sim._loads]
        assert [net.name for net in self.sim._nets] == soa.net_names

    def settle(self, sources):
        """Net values after driving ``{net index: value}``."""
        queue = deque()
        for idx, value in sources.items():
            self.sim._set_net(idx, value, queue)
        self.sim._drain(queue)
        return np.asarray(self.sim.values, dtype=np.int8)


def source_nets(soa):
    nets = set(soa.input_ports.values()) | set(soa.seq_q[soa.seq_q >= 0])
    return np.asarray(sorted(nets), dtype=np.int64)


def random_sources(soa, width, seed):
    """``(sources, values)``: the source nets and a ``(sources, width)``
    matrix of 0/1/X draws."""
    nets = source_nets(soa)
    rng = np.random.default_rng(seed)
    return nets, rng.choice(np.asarray([0, 1, X], dtype=np.int8),
                            size=(len(nets), width))


def settled(soa, nets, draws, program=None):
    """``draws`` driven onto the power-up values and settled; a single
    column goes through the documented ``row[:, None]`` form."""
    width = draws.shape[1]
    if width == 1:
        row = soa.initial_values()
        row[nets] = draws[:, 0]
        soa.settle(row[:, None], program)
        return row[:, None]
    values = np.repeat(soa.initial_values()[:, None], width, axis=1)
    values[nets] = draws
    soa.settle(values, program)
    return values


def assert_matches_oracle(module, soa, width, seed):
    nets, draws = random_sources(soa, width, seed)
    values = settled(soa, nets, draws)
    oracle = HeldOracle(module, soa)
    for col in range(width):
        expected = oracle.settle(dict(zip(nets.tolist(),
                                          draws[:, col].tolist())))
        assert np.array_equal(values[:, col], expected), (seed, col)


def widened(soa):
    """``soa`` with ``2**15`` unused entries ahead of its truth tables,
    so every key needs ``int32``."""
    pad = 2 ** 15
    return dataclasses.replace(
        soa,
        tables=np.concatenate([np.full(pad, X, dtype=np.int8), soa.tables]),
        levels=[Level(level.cols, level.base + pad, level.out)
                for level in soa.levels])


class TestRandomCircuits:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("clocking", CLOCKINGS)
    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_matches_oracle(self, lib, clocking, width, seed):
        module = build_random_circuit(lib, seed, n_gates=40, clocked=True,
                                      clocking=clocking)
        assert_matches_oracle(module, lower_soa(module), width, seed)

    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_cone_settles_a_change(self, lib, seed):
        """From a settled matrix, settling only the cone of the changed
        sources reaches the full pass's fixed point."""
        module = build_random_circuit(lib, seed, n_gates=40, clocked=True)
        soa = lower_soa(module)
        nets, draws = random_sources(soa, 16, seed)
        values = settled(soa, nets, draws)
        rng = random.Random(seed)
        changed = sorted(rng.sample(range(len(nets)),
                                    rng.randint(1, len(nets))))
        draws[changed] = np.random.default_rng(seed + 1).choice(
            np.asarray([0, 1, X], dtype=np.int8), size=(len(changed), 16))
        values[nets] = draws
        soa.settle(values, soa.cone(nets[changed]))
        assert np.array_equal(values, settled(soa, nets, draws))


class TestFamilies:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("name", generators.available_families())
    def test_default_key_matches_oracle(self, lib, name, width):
        module = generators.elaborate(generators.family(name).key(), lib)
        assert_matches_oracle(module, lower_soa(module), width, seed=width)


class TestKeyWidths:
    def test_small_tables_use_int16(self, mult_module):
        assert lower_soa(mult_module).key_dtype == np.int16

    @pytest.mark.parametrize("width", WIDTHS)
    def test_int32_keys_match_oracle(self, lib, width):
        module = build_random_circuit(lib, 11, n_gates=40, clocked=True,
                                      clocking="mixed")
        soa = widened(lower_soa(module))
        assert soa.tables.size > 2 ** 15 and soa.key_dtype == np.int32
        assert_matches_oracle(module, soa, width, seed=width)

    def test_int32_keys_on_a_family(self, lib):
        module = generators.elaborate(
            generators.family("multiplier").key(), lib)
        assert_matches_oracle(module, widened(lower_soa(module)), 2, seed=3)
