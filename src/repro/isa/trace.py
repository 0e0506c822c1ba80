"""Lock-step co-simulation of the gate-level M0-lite against the ISS.

:class:`GateLevelCpu` wraps the flat core netlist with the external memory
protocol it expects (combinational instruction/data memories, stores
committed at the clock edge) and exposes per-cycle stepping plus
switching-activity grouping.  :func:`cosimulate` runs a program on both the
ISS and the netlist and verifies architectural equivalence, which is the
evidence that the substituted processor is a faithful workload vehicle for
the power study.

The netlist steps through a
:class:`~repro.sim.compiled.ClosedLoopStepper` -- settled single-row
phases over the SoA arrays, with precomputed integer-indexed
:class:`~repro.sim.compiled.BusView` accessors for the memory buses.
Any flat module with the M0-lite memory interface qualifies, the
SCPG-transformed core included.  ``tests/integration/test_cosim_random.py``
checks cycle counts, architectural state and the grouped toggle trace
bit for bit against the event-driven oracle in ``tests/sim/``.

:meth:`GateLevelCpu.run` does not step at all while the pipeline model
(:mod:`repro.isa.pipeline`) predicts the core correctly: it settles whole
windows of predicted cycles at once and keeps the prefix the netlist
confirms, handing any cycle it cannot confirm to the stepper (see
:meth:`GateLevelCpu._run_window`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import IsaError, SimulationError
from ..sim.activity import ActivityTrace, GroupActivity
from ..sim.compiled import schedule_for
from ..sim.logic import X
from .cpu import M0LiteCpu
from .encoding import MASK32, NOP_WORD
from .pipeline import FlopLayout, PipelineModel

#: Cycles per batched co-simulation window (see :meth:`GateLevelCpu.run`).
WINDOW = 128


def _missing_interface(soa):
    """Why ``soa`` cannot host the M0-lite memory protocol (``""`` when
    it can): address/store nets readable, memory-data input ports
    drivable, and the architectural register flops present."""
    if "rstn" not in soa.input_ports:
        return "no input port rstn"
    for name, width in (("idata", 16), ("drdata", 32)):
        for i in range(width):
            if "{}_{}".format(name, i) not in soa.input_ports:
                return "no input port {}_{}".format(name, i)
    for name, width in (("iaddr", 32), ("daddr", 32), ("dwdata", 32)):
        for i in range(width):
            if "{}_{}".format(name, i) not in soa.net_index:
                return "no net {}_{}".format(name, i)
    for name in ("dwrite", "halted"):
        if name not in soa.net_index:
            return "no net {}".format(name)
    seq = {n: r for r, n in enumerate(soa.seq_names)}
    for r in range(16):
        for b in range(32):
            row = seq.get("rf{}_{}".format(r, b))
            if row is None or soa.seq_q[row] < 0:
                return "no register flop rf{}_{}".format(r, b)
    return ""


class GateLevelCpu:
    """Drive a flat M0-lite netlist with instruction and data memories.

    Parameters
    ----------
    module:
        Flat module from :func:`repro.circuits.m0lite.build_m0lite` (or an
        SCPG-transformed flat equivalent with the same ports).  A netlist
        without a levelized schedule raises its
        :class:`~repro.errors.NetlistError`; one without the memory
        interface raises :class:`~repro.errors.SimulationError`.
    program:
        16-bit instruction words (word 0 at address 0).
    memory:
        Initial data memory dict (byte address -> 32-bit word).
    group_size:
        Activity vector-group size (10 in the paper).
    record_states:
        Keep a per-cycle snapshot of every settled net value; see
        :meth:`state_trace` (feeds
        :func:`repro.power.leakage.state_leakage_trace`).
    """

    def __init__(self, module, program, memory=None, group_size=10,
                 record_toggles=True, record_states=False):
        self.module = module
        self.program = list(program)
        self.memory = dict(memory or {})
        self.cycles = 0
        self.group_size = group_size
        self._record_states = record_states
        self._states = []
        self._batched = 0

        stepper = schedule_for(module).stepper(
            "clk", record_toggles=record_toggles)
        soa = stepper.soa
        why = _missing_interface(soa)
        if why:
            raise SimulationError(
                "co-simulation unavailable for {}: {}".format(
                    module.name, why))
        self._stepper = stepper
        self._iaddr = stepper.output_bus("iaddr", 32)
        self._daddr = stepper.output_bus("daddr", 32)
        self._dwdata = stepper.output_bus("dwdata", 32)
        self._idata = stepper.input_bus("idata", 16)
        self._drdata = stepper.input_bus("drdata", 32)
        self._dwrite_idx = soa.net_index["dwrite"]
        self._halted_idx = soa.net_index["halted"]
        rf = np.empty((16, 32), dtype=np.int64)
        for r in range(16):
            for b in range(32):
                row = stepper._seq_rows["rf{}_{}".format(r, b)]
                rf[r, b] = soa.seq_q[row]
        self._rf_q = rf
        self._rf_pow2 = np.int64(1) << np.arange(32, dtype=np.int64)
        self._trace = ActivityTrace()
        self._group_base = np.zeros(soa.n_nets, dtype=np.int64)
        self._cycles_in_group = 0
        self._names_arr = np.asarray(soa.net_names, dtype=object)
        self._layout = FlopLayout.for_soa(soa)
        self._program_words = np.asarray(self.program, dtype=np.int64)
        self._reset()

    #: Extra input pins held at fixed values from reset on (e.g. an
    #: SCPG ``override_n``); subclasses override.
    _extra_reset_inputs = {}

    def _reset(self):
        st = self._stepper
        st.force_flops(0)
        st.apply({"clk": 0, "rstn": 0, **self._extra_reset_inputs})
        self._feed_memories()
        # One reset cycle.
        st.posedge()
        st.negedge()
        st.apply({"rstn": 1})
        self._feed_memories()
        st.reset_toggles()
        self._group_base[:] = 0

    def _feed_memories(self):
        iaddr = self._iaddr.read()
        word = NOP_WORD  # on an X or out-of-range address
        if iaddr is not None and iaddr < len(self.program):
            word = self.program[iaddr]
        self._idata.drive(word)
        daddr = self._daddr.read()
        data = 0
        if daddr is not None:
            data = self.memory.get(daddr & ~3 & MASK32, 0)
        self._drdata.drive(data)

    def step(self):
        """Advance one clock cycle: commit stores, clock edge, then feed
        the memories during the *low* phase.

        Feeding after the falling edge matters for SCPG-transformed cores:
        their memory-interface outputs route through the power-gated
        domain, so right after the rising edge the isolation clamps hold
        them low -- sampling ``iaddr``/``daddr`` there would read zeros.
        After the falling edge the clamps are released and the interface
        carries the true values (for the untransformed core the two
        sampling points are identical, since no combinational path depends
        on the clock level).
        """
        st = self._stepper
        if int(st._state[self._dwrite_idx]) == 1:
            addr = self._daddr.read()
            data = self._dwdata.read()
            if addr is None or data is None:
                raise SimulationError("store with X address or data")
            if addr % 4:
                raise IsaError(
                    "unaligned gate-level store at {:#x}".format(addr))
            self.memory[addr] = data
        st.posedge()
        st.negedge()
        self._feed_memories()
        self.cycles += 1
        self._cycles_in_group += 1
        if self._cycles_in_group >= self.group_size:
            self._flush_group()
        if self._record_states:
            self._states.append(st.state_row())

    def _flush_group(self):
        """Close the current toggle group (no-op when empty)."""
        if self._cycles_in_group == 0:
            return
        soa = self._stepper.soa
        counts = self._stepper.toggle_counts
        delta = counts - self._group_base
        nz = np.nonzero(delta)[0]
        self._trace.groups.append(GroupActivity(
            index=len(self._trace.groups),
            cycles=self._cycles_in_group,
            total_toggles=int(delta.sum()),
            nets=soa.non_const_nets,
            toggles=dict(zip(self._names_arr[nz].tolist(),
                             delta[nz].tolist())),
        ))
        self._group_base = counts.copy()
        self._cycles_in_group = 0

    def run(self, max_cycles=100_000):
        """Run until ``halted`` rises; returns cycles taken.

        The cycles go in windows of up to :data:`WINDOW`: a
        :class:`~repro.isa.pipeline.PipelineModel` predicts each cycle's
        start state (when the module keeps the M0-lite flop names), the
        netlist settles the whole window at once, and only the prefix it
        confirms is kept (see :meth:`_run_window`).  When a window falls
        short, the
        :class:`~repro.sim.compiled.ClosedLoopStepper` steps out the rest
        of it before the next prediction.  Every result -- cycles, state,
        memory, toggles, groups, state trace, errors -- is the one
        :meth:`step` would give.
        """
        start = self.cycles
        owed = 0        # cycles the stepper owes after a short window
        while not self.halted:
            left = max_cycles - (self.cycles - start)
            if left <= 0:
                raise SimulationError(
                    "core did not halt in {} cycles".format(max_cycles))
            if self._layout is not None and not owed:
                n = min(WINDOW, left)
                owed = n - self._run_window(n)
                continue
            self.step()
            owed -= 1
        self._flush_group()
        return self.cycles - start

    def _run_window(self, n):
        """Settle up to ``n`` predicted cycles at once; returns how many
        the netlist confirmed (and committed, exactly as :meth:`step`
        would have).

        Row ``k`` of the window is the model's start state of cycle
        ``k``, settled through the netlist; each row then runs the clock
        pulse and both memory feeds, with the feed words computed from
        the batched ``iaddr`` / ``daddr`` rows and the stores of the
        settled start rows.  Cycle ``k`` is confirmed by induction: row
        0 equals the stepper's state, and the start row of cycle ``k``
        equals the computed end row of cycle ``k - 1`` -- so the end row
        of every confirmed cycle is what stepping would have reached.  A
        cycle whose store would fault, or whose store differs from the
        model's, ends the confirmed prefix; so does the cycle after the
        halt latch rises.
        """
        st = self._stepper
        state = st._state
        layout = self._layout
        values = layout.pack(state)
        idata, drdata = self._idata.read(), self._drdata.read()
        if values is None or idata is None or drdata is None:
            return 0
        window = PipelineModel(self.program, self.memory, values, idata,
                               drdata, self.cycles).window(n)
        m = len(window)
        if not m:
            return 0
        rows = np.repeat(state[np.newaxis, :], m, axis=0)
        rows[:, layout.q_cols] = layout.unpack(window.fields)
        rows[:, self._idata.index] = self._idata.bits(window.idata)
        rows[:, self._drdata.index] = self._drdata.bits(window.drdata)

        program = self._program_words
        stores = []

        def fetch_words(values):
            iaddr, known = self._iaddr.read_rows(values)
            words = np.full(m, NOP_WORD, dtype=np.int64)
            ok = known & (iaddr < len(program))
            words[ok] = program[iaddr[ok]]
            return words

        def load_words(values):
            # ``rows`` are settled by now: their stores commit as each
            # cycle begins, ahead of that cycle's drdata feed.
            dwrite = (rows[:, self._dwrite_idx] == 1).tolist()
            addr, addr_ok = self._daddr.read_rows(rows)
            data, data_ok = self._dwdata.read_rows(rows)
            daddr, known = self._daddr.read_rows(values)
            memory = dict(self.memory)
            words = [0] * m
            for k, (w, a, a_ok, d, d_ok, r, r_ok) in enumerate(zip(
                    dwrite, addr.tolist(), addr_ok.tolist(), data.tolist(),
                    data_ok.tolist(), daddr.tolist(), known.tolist())):
                if w:
                    if not (a_ok and d_ok) or a % 4:
                        break           # the stepper raises here
                    memory[a] = d
                    stores.append((a, d))
                else:
                    stores.append(None)
                if r_ok:
                    words[k] = memory.get(r & ~3 & MASK32, 0)
            return np.asarray(words, dtype=np.int64)

        end, toggles = st.settle_window(
            rows, ((self._idata, fetch_words), (self._drdata, load_words)))

        good = np.empty(m, dtype=bool)
        good[0] = np.array_equal(rows[0], state)
        good[1:] = (rows[1:] == end[:-1]).all(axis=1)
        good[len(stores):] = False
        for k, store in enumerate(stores):
            if store != window.stores[k]:
                good[k:] = False
                break
        done = m if good.all() else int(np.argmin(good))
        halts = np.flatnonzero(end[:done, self._halted_idx] == 1)
        if len(halts):
            done = int(halts[0]) + 1

        for store in stores[:done]:
            if store is not None:
                self.memory[store[0]] = store[1]
        k = 0
        while k < done:
            take = min(done - k,
                       max(1, self.group_size - self._cycles_in_group))
            st.adopt(end[k + take - 1],
                     None if toggles is None else toggles[k:k + take])
            k += take
            self._cycles_in_group += take
            if self._cycles_in_group >= self.group_size:
                self._flush_group()
        if self._record_states:
            self._states.extend(end[:done].copy())
        self.cycles += done
        self._batched += done
        return done

    @property
    def batched_cycles(self):
        """Cycles :meth:`run` settled in confirmed windows rather than
        stepped."""
        return self._batched

    @property
    def halted(self):
        """True when the core has executed HALT."""
        return int(self._stepper._state[self._halted_idx]) == 1

    def register(self, index):
        """Architectural register value from the netlist flip-flops."""
        row = self._stepper._state[self._rf_q[index]]
        if (row == X).any():
            return None
        return int(row.astype(np.int64) @ self._rf_pow2)

    def registers(self):
        """All 16 register values."""
        return [self.register(i) for i in range(16)]

    def activity_trace(self):
        """Grouped switching activity recorded so far."""
        self._flush_group()
        return self._trace

    def toggle_snapshot(self):
        """Per-net toggle counts as dict name -> count."""
        return self._stepper.toggle_snapshot()

    def value(self, net_name):
        """Current settled 0/1/X value of one net."""
        return self._stepper.value(net_name)

    @property
    def state_net_names(self):
        """Net-name order of :meth:`state_trace` columns."""
        return list(self._stepper.soa.net_names)

    def state_trace(self):
        """Per-cycle settled net values, ``(cycles, n_nets)`` ``int8``.

        Rows are captured at the end of each :meth:`step` (clock low,
        memories fed) -- the operating points
        :func:`repro.power.leakage.state_leakage_trace` consumes.
        Requires ``record_states=True``.
        """
        if not self._record_states:
            raise SimulationError(
                "construct GateLevelCpu(record_states=True) to record "
                "a state trace")
        if not self._states:
            n = len(self.state_net_names)
            return np.zeros((0, n), dtype=np.int8)
        return np.asarray(self._states, dtype=np.int8)


@dataclass
class CosimResult:
    """Outcome of :func:`cosimulate`."""

    instructions: int
    cycles: int
    cpi: float
    registers_match: bool
    memory_match: bool
    mismatches: list = field(default_factory=list)
    trace: object = None

    @property
    def ok(self):
        """True when the netlist matched the ISS architecturally."""
        return self.registers_match and self.memory_match


def cosimulate(module, program, memory=None, max_cycles=200_000,
               group_size=10):
    """Run ``program`` to HALT on both the ISS and the gate-level core and
    compare final architectural state.  Returns :class:`CosimResult`.
    """
    iss = M0LiteCpu(program, memory)
    instructions = iss.run(max_steps=max_cycles)

    gate = GateLevelCpu(module, program, memory, group_size=group_size)
    cycles = gate.run(max_cycles=max_cycles)

    mismatches = []
    for r in range(16):
        expected = iss.state.regs[r]
        actual = gate.register(r)
        if actual != expected:
            mismatches.append(
                "r{}: iss={:#x} gate={}".format(
                    r, expected,
                    "X" if actual is None else "{:#x}".format(actual))
            )
    registers_match = not mismatches

    mem_mismatches = []
    keys = set(iss.memory) | set(gate.memory)
    for addr in sorted(keys):
        ev = iss.memory.get(addr, 0)
        av = gate.memory.get(addr, 0)
        if ev != av:
            mem_mismatches.append(
                "mem[{:#x}]: iss={:#x} gate={:#x}".format(addr, ev, av))
    memory_match = not mem_mismatches

    return CosimResult(
        instructions=instructions,
        cycles=cycles,
        cpi=cycles / max(1, instructions),
        registers_match=registers_match,
        memory_match=memory_match,
        mismatches=mismatches + mem_mismatches,
        trace=gate.activity_trace(),
    )
