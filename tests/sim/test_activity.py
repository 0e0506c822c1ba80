"""Activity recording and the Fig. 7 vector-grouping pipeline."""

import pickle
import random

import numpy as np
import pytest

from repro.isa.programs import (
    crc32_program,
    dhrystone_memory,
    dhrystone_program,
)
from repro.isa.trace import GateLevelCpu
from repro.sim.activity import ActivityTrace, GroupActivity, group_activity
from repro.sim.compiled import bus_values

from .testbench import ClockedTestbench, EventCpu, GroupRecorder, event_run


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


def _fields(group):
    return (group.index, group.cycles, group.total_toggles, group.nets,
            group.switching_probability)


@pytest.fixture(scope="module")
def cosim_traces(m0_module):
    """``(compiled, oracle)`` traces of one CRC-32 co-simulation."""
    program, memory = crc32_program(1), dhrystone_memory()
    gate = GateLevelCpu(m0_module, program, memory)
    gate.run()
    oracle = EventCpu(m0_module, program, memory)
    oracle.run()
    return gate.activity_trace(), oracle.activity_trace()


class TestLazyToggles:
    """Recorded groups keep one dense count array and build ``toggles`` on the
    first read; nothing a reader sees differs from the oracle's dicts."""

    def test_cosim_groups_equal_oracle(self, cosim_traces):
        trace, oracle = cosim_traces
        assert len(trace.groups) == len(oracle.groups) > 10
        for got, want in zip(trace.groups, oracle.groups):
            names, counts = got._dense
            assert counts.dtype == np.uint8 and len(counts) == len(names)
            assert _fields(got) == _fields(want)
            assert got.toggles == want.toggles
            assert dict(got.toggles) == want.toggles
            assert got == want

    def test_vector_groups_equal_oracle(self, mult_module):
        vectors = _mult_vectors(random.Random(8), 25)
        trace = group_activity(mult_module, vectors, group_size=10)
        oracle = event_run(mult_module, vectors, group_size=10).trace
        assert [(_fields(g), dict(g.toggles)) for g in trace.groups] == \
            [(_fields(g), g.toggles) for g in oracle.groups]

    def test_mapping_built_once(self, mult_module):
        trace = group_activity(mult_module,
                               _mult_vectors(random.Random(9), 10))
        group = trace.groups[0]
        assert group._toggles is None
        assert group.toggles is group.toggles
        assert sum(group.toggles.values()) == group.total_toggles

    @pytest.mark.parametrize("read_first", [False, True])
    def test_trace_pickles(self, cosim_traces, read_first):
        trace, oracle = cosim_traces
        if read_first:
            for group in trace.groups:
                group.toggles
        restored = pickle.loads(pickle.dumps(trace))
        assert all(g._toggles is None for g in restored.groups)
        assert restored.groups == oracle.groups
        assert restored.series == oracle.series

    def test_representatives_and_series_unchanged(self, cosim_traces):
        trace, oracle = cosim_traces
        assert trace.series == oracle.series
        assert trace.average_switching_probability() == \
            oracle.average_switching_probability()
        got, want = trace.representative_groups(), \
            oracle.representative_groups()
        assert {k: g.index for k, g in got.items()} == \
            {k: g.index for k, g in want.items()}
        assert {k: g.toggles for k, g in got.items()} == \
            {k: g.toggles for k, g in want.items()}

    def test_dict_constructor(self, mult_module):
        """The oracle's recorder still builds groups from a dict."""
        tb = ClockedTestbench(mult_module)
        tb.reset_flops()
        rec = GroupRecorder(tb.sim, group_size=2)
        for value in (5, 9):
            tb.cycle(bus_values("a", 16, value))
            rec.after_cycle()
        group = rec.trace.groups[0]
        assert group.toggles and sum(group.toggles.values()) == \
            group.total_toggles
        plain = GroupActivity(index=0, cycles=1, total_toggles=3, nets=4,
                              toggles={"n1": 3})
        assert plain.toggles == {"n1": 3}
        assert GroupActivity(0, 1, 0, 4).toggles == {}
        copy = pickle.loads(pickle.dumps(ActivityTrace(groups=[plain])))
        assert copy.groups == [plain]


def _sparse_twin(index, cycles, nets, names, counts):
    """The group as the int32 sparse form recorded it: the nonzero net
    indices and their counts, read back into a mapping."""
    hit = np.flatnonzero(counts).astype(np.int32)
    toggles = dict(zip([names[i] for i in hit.tolist()],
                       counts[hit].astype(np.int32).tolist()))
    return GroupActivity(index, cycles, int(counts.sum()), nets, toggles)


@pytest.fixture
def sparse_twins(monkeypatch):
    """Every group recorded through ``from_counts``, also built in the
    sparse form."""
    twins = []
    real = GroupActivity.from_counts.__func__

    def record(cls, *args):
        twins.append(_sparse_twin(*args))
        return real(cls, *args)

    monkeypatch.setattr(GroupActivity, "from_counts", classmethod(record))
    return twins


class TestDenseGroups:
    """A dense group reads exactly like the int32 sparse form."""

    @staticmethod
    def _check(groups, twins):
        assert len(groups) == len(twins) > 1
        for got, want in zip(groups, twins):
            assert got._dense[1].dtype == np.uint8
            assert got.toggles == want.toggles
            assert got.total_toggles == want.total_toggles
            assert got.switching_probability == want.switching_probability
            assert got == want
        restored = pickle.loads(pickle.dumps(ActivityTrace(groups=groups)))
        assert restored.groups == twins
        assert [g.switching_probability for g in restored.groups] == \
            [g.switching_probability for g in twins]

    def test_m0_dhrystone_trace(self, m0_module, sparse_twins):
        gate = GateLevelCpu(m0_module, dhrystone_program(4),
                            dhrystone_memory())
        gate.run()
        self._check(gate.activity_trace().groups, sparse_twins)

    def test_mult16_vector_trace(self, mult_module, sparse_twins):
        trace = group_activity(mult_module,
                               _mult_vectors(random.Random(10), 45))
        self._check(trace.groups, sparse_twins)

    def test_wide_counts_round_trip(self):
        names = ["a", "b", "c", "d"]
        counts = np.array([0, 300, 7, 70000], dtype=np.int64)
        group = GroupActivity.from_counts(0, 40000, 4, names, counts)
        assert group._dense[1].dtype == np.uint32
        want = {"b": 300, "c": 7, "d": 70000}
        assert group.toggles == want and group.total_toggles == 70307
        restored = pickle.loads(pickle.dumps(group))
        assert restored._dense[1].dtype == np.uint32
        assert restored._toggles is None and restored.toggles == want
        assert restored == group
        narrow = GroupActivity.from_counts(1, 2, 4, names, counts // 200)
        assert narrow._dense[1].dtype == np.uint16
