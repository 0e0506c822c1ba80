"""Activity recording and the Fig. 7 vector-grouping pipeline."""

import random

import pytest

from repro.sim.activity import group_activity
from repro.sim.compiled import bus_values

from .testbench import ClockedTestbench, GroupRecorder


def _mult_vectors(rng, n, magnitude=0xFFFF):
    return [
        {**bus_values("a", 16, rng.getrandbits(16) & magnitude),
         **bus_values("b", 16, rng.getrandbits(16) & magnitude)}
        for _ in range(n)
    ]


class TestGrouping:
    def test_group_sizes(self, mult_module):
        rng = random.Random(1)
        trace = group_activity(mult_module, _mult_vectors(rng, 35),
                               group_size=10)
        assert [g.cycles for g in trace.groups] == [10, 10, 10, 5]
        assert [g.index for g in trace.groups] == [0, 1, 2, 3]

    def test_switching_probability_range(self, mult_module):
        rng = random.Random(2)
        trace = group_activity(mult_module, _mult_vectors(rng, 30))
        for g in trace.groups:
            assert 0.0 < g.switching_probability < 1.5

    def test_quiet_vs_busy_groups(self, mult_module):
        """Low-magnitude operands must produce visibly less switching."""
        rng = random.Random(3)
        vectors = _mult_vectors(rng, 10, magnitude=0x0003) \
            + _mult_vectors(rng, 10, magnitude=0xFFFF)
        trace = group_activity(mult_module, vectors, group_size=10)
        quiet, busy = trace.groups
        assert busy.switching_probability > 2 * quiet.switching_probability

    def test_representative_selection(self, mult_module):
        rng = random.Random(4)
        vectors = _mult_vectors(rng, 10, 0x0003) \
            + _mult_vectors(rng, 10, 0x00FF) \
            + _mult_vectors(rng, 10, 0xFFFF)
        trace = group_activity(mult_module, vectors, group_size=10)
        reps = trace.representative_groups()
        assert reps["max"].switching_probability >= \
            reps["avg"].switching_probability >= \
            reps["min"].switching_probability
        assert reps["max"].index == 2
        assert reps["min"].index == 0

    def test_empty_trace_rejected(self, mult_module):
        trace = group_activity(mult_module, [])
        with pytest.raises(ValueError):
            trace.representative_groups()

    def test_average_weighted_by_cycles(self, mult_module):
        rng = random.Random(5)
        trace = group_activity(mult_module, _mult_vectors(rng, 25))
        avg = trace.average_switching_probability()
        assert min(trace.series) <= avg <= max(trace.series)

    def test_toggle_deltas_per_group(self, mult_module):
        """Group toggle dicts are deltas, not cumulative counts."""
        rng = random.Random(6)
        trace = group_activity(mult_module, _mult_vectors(rng, 20))
        total = sum(g.total_toggles for g in trace.groups)
        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        rng = random.Random(6)
        for vec in _mult_vectors(rng, 20):
            tb.cycle(vec)
        assert total == tb.sim.total_toggles()


class TestRecorder:
    def test_flush_idempotent(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        rec = GroupRecorder(tb.sim, group_size=10)
        tb.cycle(bus_values("a", 16, 5))
        rec.after_cycle()
        rec.flush()
        rec.flush()
        assert len(rec.trace.groups) == 1
