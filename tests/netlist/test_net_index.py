"""``net_index`` of the lowered netlists: derived from ``net_names`` on
first use and kept out of the pickle, with the same indices as the
netlist's connectivity for every reader."""

import pickle

import pytest

from repro.circuits.generators import elaborate
from repro.isa.assembler import assemble
from repro.isa.trace import GateLevelCpu
from repro.netlist.core import Design
from repro.netlist.equivalence import check_equivalence
from repro.netlist.soa import lower_leakage
from repro.netlist.traverse import connectivity_for
from repro.runner.artifacts import CircuitArtifacts
from repro.sim.compiled import compile_schedule, schedule_for
from repro.sim.vcd import dump_simulation

COUNTER = "counter(width=8)"


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _fresh(spec, lib, through_pickle):
    """A private elaboration of ``spec``; with ``through_pickle`` its
    cached schedule is one that went through pickle, so every reader
    below runs on a re-derived ``net_index``."""
    top = elaborate(spec, lib, fresh=True)
    if through_pickle:
        schedule = _roundtrip(compile_schedule(top))
        assert "net_index" not in vars(schedule.soa)
        assert top.derived("schedule", lambda _: schedule) is schedule
    return top


class TestPickle:
    def test_pickles_carry_no_net_index(self, lib):
        top = elaborate(COUNTER, lib, fresh=True)
        schedule = schedule_for(top)
        leakage = lower_leakage(top)
        # Built before pickling, and still left out.
        assert schedule.soa.net_index and leakage.net_index
        bundle = CircuitArtifacts.build(Design(top, lib))
        for obj in (schedule, leakage, bundle):
            assert b"net_index" not in pickle.dumps(obj)

    def test_index_is_rederived_from_the_names(self, lib):
        top = elaborate(COUNTER, lib, fresh=True)
        conn = connectivity_for(top)
        for obj in (schedule_for(top).soa, lower_leakage(top)):
            back = _roundtrip(obj)
            assert back.net_index == obj.net_index == conn.net_index
            assert back.net_names == conn.net_names


class TestReaders:
    """Each reader of ``net_index`` answers the same on a schedule that
    went through pickle as on the one compiled in process."""

    @pytest.mark.parametrize("through_pickle", [False, True])
    def test_cosim_indices(self, lib, through_pickle):
        top = _fresh("m0lite", lib, through_pickle)
        net_index = connectivity_for(top).net_index
        gate = GateLevelCpu(top, assemble("movi r1, #9\nhalt"))
        assert gate._dwrite_idx == net_index["dwrite"]
        assert gate._halted_idx == net_index["halted"]
        gate.run()
        assert gate.halted and gate.register(1) == 9

    def test_stepper_bus_and_values(self, lib):
        runs = []
        for through_pickle in (False, True):
            top = _fresh(COUNTER, lib, through_pickle)
            stepper = schedule_for(top).stepper("clk")
            stepper.force_flops(0)
            for _ in range(5):
                stepper.cycle({})
            names = connectivity_for(top).net_names
            runs.append(([stepper.value(name) for name in names],
                         list(stepper.output_bus("q", 8)._idx)))
        assert runs[0] == runs[1]

    def test_vcd_dump(self, lib):
        texts = [dump_simulation(_fresh(COUNTER, lib, through_pickle),
                                 [{} for _ in range(6)])
                 for through_pickle in (False, True)]
        assert texts[0] == texts[1]

    def test_equivalence(self, lib):
        golden = _fresh(COUNTER, lib, False)
        revised = _fresh(COUNTER, lib, True)
        assert check_equivalence(golden, revised, vectors=16,
                                 clock="clk").equivalent
