"""Vector-parallel levelized gate simulation over the SoA netlist.

:func:`compile_schedule` lowers a flat module once
(:func:`repro.netlist.soa.lower_soa`) and wraps it in a
:class:`CompiledSchedule` -- the levelized evaluation schedule.  A whole
workload of input vectors then simulates as a handful of batched numpy
passes instead of per-event Python dispatch: each clock cycle is three
settled states (inputs applied with the clock low, the rising edge, the
falling edge), every state is one levelized sweep over a ``(cycles,
nets)`` value matrix, and flip-flops sample vectorized with the event
simulator's exact rules (pre-settle D/EN, async RN dominance, X edges).

Cross-cycle state is resolved by fixed-point iteration: the cycle-``k``
row starts from cycle ``k-1``'s settled end state, so each batched pass
finalises at least one more cycle and a ``d``-deep pipeline converges in
``d + 1`` passes.  Toggle counts are consecutive-snapshot differences
(both values known), which makes the result **bit-identical** to the
event simulator's functional (generational) toggle accounting -- the
differential tests in ``tests/sim/test_compiled.py`` assert equality,
not closeness.

Not every netlist is batchable: combinational feedback has no levelized
order, and clock/reset cones that pass through logic or state cannot be
replayed per-phase.  :meth:`CompiledSchedule.vector_ready` reports this,
and :meth:`CompiledSchedule.run_vectors` transparently falls back to the
event-driven :class:`~repro.sim.event.Simulator` (float-exact by
construction) for those designs.

Closed-loop workloads (a testbench that must *read* outputs each cycle
to decide the next inputs -- the ISA co-simulator's memory protocol)
cannot batch cycles at all, so :meth:`CompiledSchedule.stepper` exposes
the same settled-phase machinery one cycle at a time: a
:class:`ClosedLoopStepper` settles single value rows through merged
packed row programs (:meth:`repro.netlist.soa.SoaNetlist.pack_levels`),
skips applies whose values did not change, samples flops only on phases
whose affected cone reaches a CK/RN pin, and accrues the identical
consecutive-snapshot toggle diffs -- bit-identical state and toggle
counts versus driving the event simulator through the same protocol.
When the caller can predict each cycle's start state (the M0-lite
pipeline model does), :meth:`ClosedLoopStepper.settle_window` settles
a whole window of such cycles as ``(cycles, nets)`` matrices through
the same phases, leaving the caller to confirm the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError, SimulationError
from ..netlist.core import Module
from ..netlist.soa import lower_soa
from ..runner.kernel import CompiledKernel, Kernel, register_kernel
from .activity import ActivityTrace, GroupActivity
from .logic import X, to_ternary


def _accrue(counts, a, b):
    """Add the functional toggles between consecutive settled states
    ``a`` and ``b`` to ``counts``: a 0 <-> 1 change, which with X
    encoded as 2 is exactly an XOR of 1.  The mask is formed in place
    over the XOR, so a window-sized matrix costs one temporary."""
    flips = np.bitwise_xor(a, b)
    mask = flips.view(np.bool_)
    np.equal(flips, 1, out=mask)
    counts += mask


@dataclass
class CompiledRun:
    """Result of one workload run (levelized or event fallback)."""

    cycles: int
    engine: str
    #: Per-net toggle counts (all nets, zeros included) -- same key set
    #: and values as ``Simulator.toggle_snapshot`` after the same run.
    toggles: dict = field(default_factory=dict)
    trace: ActivityTrace = None
    #: Net name -> final settled value (clock low).
    final_values: dict = field(default_factory=dict)
    #: Per-cycle per-net toggle matrix (levelized engine only).
    toggle_matrix: np.ndarray = None

    def toggle_snapshot(self):
        """Dict net name -> toggle count (``Simulator`` parity)."""
        return dict(self.toggles)

    def total_toggles(self):
        return sum(self.toggles.values())

    def value(self, net_name):
        """Final settled value of a net (0/1/X)."""
        return self.final_values[net_name]


class CompiledSchedule:
    """A module's levelized evaluation schedule plus eligibility facts.

    Instances pickle (for the artifact cache) without the source module;
    an unpickled schedule keeps the full vector-parallel path but cannot
    fall back to the event simulator.
    """

    def __init__(self, module=None, soa=None, why=""):
        self._module = module
        self.soa = soa
        self.why = why          # non-empty when lowering failed
        self._cones = {}
        if soa is not None:
            self._port_name = {idx: name
                               for name, idx in soa.input_ports.items()}
            self._init = self._build_init()

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_module"] = None
        state.pop("_fo_state", None)
        state.pop("_fo_sources", None)
        state.pop("_seq_cols", None)
        state.pop("_row_state", None)
        state.pop("_row_inputs", None)
        return state

    @property
    def module(self):
        return self._module

    def bind_module(self, module):
        """Re-attach the live module an unpickled schedule lost, restoring
        the event-simulator fallback.  Returns ``self``."""
        if self._module is None:
            self._module = module
        return self

    # -- eligibility ---------------------------------------------------------

    def _cone(self, idx):
        """``(source port names, depends-on-state)`` of one net's cone."""
        res = self._cones.get(idx)
        if res is not None:
            return res
        soa = self.soa
        if soa.driver_seq[idx] >= 0:
            res = (frozenset(), True)
        elif soa.driver_gate[idx] >= 0:
            self._cones[idx] = (frozenset(), False)  # placeholder (DAG)
            ports = set()
            seq = False
            for i in soa.gate_inputs[soa.driver_gate[idx]]:
                p, s = self._cone(i)
                ports |= p
                seq = seq or s
            res = (frozenset(ports), seq)
        else:
            name = self._port_name.get(idx)
            res = (frozenset([name]) if name else frozenset(), False)
        self._cones[idx] = res
        return res

    def vector_ready(self, clock="clk"):
        """``(ok, reason)``: can this schedule batch a clocked workload?

        Requires an acyclic combinational graph, every flop clocked from
        a pure clock cone (sources only the ``clock`` port / constants),
        and async resets free of state feedback -- the conditions under
        which the three-phase batched replay is exact.
        """
        if self.soa is None:
            return False, self.why or "combinational feedback"
        soa = self.soa
        if clock not in soa.input_ports:
            return False, "no input port {!r}".format(clock)
        for row in range(soa.n_seq):
            if soa.seq_ck[row] < 0:
                return False, "flop {} has no clock pin".format(
                    soa.seq_names[row])
            if soa.seq_q[row] >= 0 and soa.seq_d[row] < 0:
                return False, "flop {} has no data pin".format(
                    soa.seq_names[row])
        for idx in set(soa.seq_ck.tolist()):
            if idx < 0:
                continue
            ports, seq = self._cone(idx)
            if seq or not ports <= {clock}:
                return False, (
                    "clock cone of net {} mixes in {}".format(
                        soa.net_names[idx],
                        "state" if seq else ", ".join(sorted(ports - {
                            clock}))))
        for idx in set(soa.seq_rn.tolist()):
            if idx < 0:
                continue
            if self._cone(idx)[1]:
                return False, "reset cone of net {} depends on state".format(
                    soa.net_names[idx])
        return True, ""

    # -- batched engine ------------------------------------------------------

    def _build_init(self):
        """Settled pre-run state: all-X, constants applied, combinational
        nets evaluated (ties propagate)."""
        row = self.soa.initial_values()[np.newaxis, :].copy()
        self.soa.eval_comb(row)
        return row[0]

    def _sample_flops(self, pre, now):
        """Vectorized flip-flop sampling for one phase.

        ``pre`` holds the phase-start (pre-settle) values, ``now`` the
        settled values.  Returns a copy of ``now`` with the sampled Q
        columns, or ``None`` when no Q changed.  Rules replicate the event
        simulator: RN (async, post-settle) dominates; a rising edge
        samples the *pre-settle* D/EN; a non-rising change to X drives
        Q to X; EN==0 holds, EN==X corrupts the sample.
        """
        qcol, ck, dcol, has_en, en_safe, has_rn, rn_safe = \
            self._seq_columns()
        if not len(qcol):
            return None
        ck_old = pre[:, ck]
        ck_new = now[:, ck]
        d_pre = pre[:, dcol]
        en_pre = np.where(has_en, pre[:, en_safe], 1)
        rn_now = np.where(has_rn, now[:, rn_safe], 1)

        held = now[:, qcol]
        changed = ck_new != ck_old
        rising = (ck_old == 0) & (ck_new == 1)
        q_next = np.where(changed & ~rising & (ck_new == X), X, held)
        d_eff = np.where(en_pre == X, X, d_pre)
        q_next = np.where(rising & (en_pre != 0), d_eff, q_next)
        q_next = np.where(rn_now == 0, 0, q_next)
        q_next = np.where(rn_now == X, X, q_next)
        q_next = q_next.astype(np.int8)
        if np.array_equal(q_next, held):
            return None
        post = now.copy()
        post[:, qcol] = q_next
        return post

    def _seq_columns(self):
        """Memoised per-flop column arrays for :meth:`_sample_flops`."""
        cols = getattr(self, "_seq_cols", None)
        if cols is None:
            soa = self.soa
            rows = np.nonzero(soa.seq_q >= 0)[0]
            en = soa.seq_en[rows]
            has_en = en >= 0
            rn = soa.seq_rn[rows]
            has_rn = rn >= 0
            cols = self._seq_cols = (
                soa.seq_q[rows], soa.seq_ck[rows], soa.seq_d[rows],
                has_en, np.where(has_en, en, 0),
                has_rn, np.where(has_rn, rn, 0))
        return cols

    def _phase(self, start, mutate, levels, sample=True):
        """One settled phase: copy ``start``, apply ``mutate``, settle
        the perturbed cone (``levels``), sample flops against ``start``
        (skipped when ``sample`` is False: the cone reaches no CK/RN
        pin), re-settle the state cone if any flop moved.
        Returns ``(pre_sample_state, post_sample_state)``."""
        soa = self.soa
        pre = start.copy()
        mutate(pre)
        soa.eval_comb(pre, levels)
        post = self._sample_flops(start, pre) if sample else None
        if post is None:
            return pre, pre
        soa.eval_comb(post, self._state_levels())
        return pre, post

    def _state_levels(self):
        """Subschedule for the fanout of every flop output."""
        levels = getattr(self, "_fo_state", None)
        if levels is None:
            levels = self.soa.subschedule(self.soa.seq_q.tolist())
            self._fo_state = levels
        return levels

    def _fanout_levels(self, sources):
        """Subschedule for the fanout of a tuple of source nets
        (memoised per tuple: a clock net, an input bus)."""
        cache = getattr(self, "_fo_sources", None)
        if cache is None:
            cache = self._fo_sources = {}
        levels = cache.get(sources)
        if levels is None:
            levels = cache[sources] = self.soa.subschedule(list(sources))
        return levels

    def _row_state_prog(self):
        """Packed row program for the flop-output fanout (memoised)."""
        prog = getattr(self, "_row_state", None)
        if prog is None:
            prog = self._row_state = \
                self.soa.pack_levels(self._state_levels())
        return prog

    def _row_apply_prog(self, idxs):
        """``(packed cone program, needs-flop-sampling)`` for applying
        the given net indices, memoised per index set.

        Sampling is needed exactly when the apply can move a CK or RN
        pin net -- the only nets through which a settled clock-low apply
        can change flop state (the event simulator's per-flop event
        triggers reduce to the same condition).
        """
        cache = getattr(self, "_row_inputs", None)
        if cache is None:
            cache = self._row_inputs = {}
        key = tuple(idxs)
        entry = cache.get(key)
        if entry is None:
            soa = self.soa
            prog = soa.pack_levels(soa.subschedule(list(key)))
            affected = set(key)
            for op in prog:
                affected.update(op.out.tolist())
            sens = set(soa.seq_ck[soa.seq_ck >= 0].tolist())
            sens |= set(soa.seq_rn[soa.seq_rn >= 0].tolist())
            entry = cache[key] = (prog, bool(affected & sens))
        return entry

    def stepper(self, clock="clk", record_toggles=True):
        """A :class:`ClosedLoopStepper` over this schedule.

        Raises :class:`~repro.errors.SimulationError` unless
        :meth:`vector_ready` -- callers that need a fallback should
        check eligibility first (see :class:`repro.isa.trace.GateLevelCpu`).
        """
        return ClosedLoopStepper(self, clock=clock,
                                 record_toggles=record_toggles)

    def _run_levelized(self, vectors, clock, reset, group_size,
                       max_batch=1024):
        soa = self.soa
        n = soa.n_nets
        clk_idx = soa.input_ports[clock]

        # Pre-run settle sequence mirrors ClockedTestbench construction:
        # clock low, then all flops forced to the reset value.  All
        # transitions are X -> known, so no toggles accrue -- identical
        # to the event path's zero pre-run count.
        state = self._init[np.newaxis, :].copy()
        state[0, clk_idx] = 0
        soa.eval_comb(state)
        qcols = soa.seq_q[soa.seq_q >= 0]
        if len(qcols):
            state[0, qcols] = to_ternary(reset)
            soa.eval_comb(state)
        state = state[0]

        per_cycle = []
        final = state
        groups = None if group_size is None else []
        done = 0
        vectors = list(vectors)
        for at in range(0, len(vectors), max_batch):
            chunk = vectors[at:at + max_batch]
            tog, final = self._run_chunk(chunk, clock, clk_idx, state=final)
            per_cycle.append(tog)
            done += len(chunk)
        toggle_matrix = np.concatenate(per_cycle, axis=0) if per_cycle \
            else np.zeros((0, n), dtype=np.int64)
        counts = toggle_matrix.sum(axis=0)

        if group_size is not None:
            trace = ActivityTrace()
            for start in range(0, len(vectors), group_size):
                block = toggle_matrix[start:start + group_size]
                sums = block.sum(axis=0)
                nz = np.nonzero(sums)[0]
                trace.groups.append(GroupActivity(
                    index=len(trace.groups),
                    cycles=block.shape[0],
                    total_toggles=int(sums.sum()),
                    nets=soa.non_const_nets,
                    toggles={soa.net_names[i]: int(sums[i]) for i in nz},
                ))
        else:
            trace = None

        return CompiledRun(
            cycles=len(vectors),
            engine="levelized",
            toggles={name: int(counts[i])
                     for i, name in enumerate(soa.net_names)},
            trace=trace,
            final_values={name: int(final[i])
                          for i, name in enumerate(soa.net_names)},
            toggle_matrix=toggle_matrix,
        )

    def _run_chunk(self, vectors, clock, clk_idx, state):
        """Fixed-point batched replay of one chunk of cycles.

        ``state`` is the settled clock-low state entering the chunk;
        returns ``(per-cycle toggle matrix, final state row)``.
        """
        soa = self.soa
        ncyc = len(vectors)
        n = soa.n_nets
        if ncyc == 0:
            return np.zeros((0, n), dtype=np.int64), state

        # Input stimulus with carry-forward for unspecified ports.
        stim_cols = []
        stim_idx = []
        prev = {name: int(state[idx])
                for name, idx in soa.input_ports.items() if name != clock}
        series = {name: [] for name in prev}
        for vec in vectors:
            vec = vec or {}
            if clock in vec:
                raise SimulationError(
                    "drive the clock via the cycle protocol, not vectors")
            for name in vec:
                if name not in prev:
                    raise SimulationError(
                        "module {} has no input port {}".format(
                            soa.module_name, name))
                prev[name] = to_ternary(vec[name])
            for name, col in series.items():
                col.append(prev[name])
        for name, col in series.items():
            stim_idx.append(soa.input_ports[name])
            stim_cols.append(col)
        stim_idx = np.asarray(stim_idx, dtype=np.int64)
        stim = np.asarray(stim_cols, dtype=np.int8).T \
            if stim_cols else np.zeros((ncyc, 0), dtype=np.int8)

        def apply_inputs(v):
            if len(stim_idx):
                v[:, stim_idx] = stim

        def clk_to(value):
            def mutate(v):
                v[:, clk_idx] = value
            return mutate

        fo_inputs = soa.subschedule(stim_idx.tolist())
        fo_clock = self._fanout_levels((clk_idx,))
        prev_c = np.repeat(state[np.newaxis, :], ncyc, axis=0)
        for _ in range(ncyc + 1):
            a_pre, a_post = self._phase(prev_c, apply_inputs, fo_inputs)
            b_pre, b_post = self._phase(a_post, clk_to(1), fo_clock)
            c_pre, c_post = self._phase(b_post, clk_to(0), fo_clock)
            rolled = np.vstack([state[np.newaxis, :], c_post[:-1]])
            if np.array_equal(rolled, prev_c):
                break
            prev_c = rolled
        else:  # pragma: no cover - ncyc+1 iterations always suffice
            raise SimulationError("batched replay failed to converge")

        tog = np.zeros(prev_c.shape, dtype=np.int64)
        for before, after in ((prev_c, a_pre), (a_pre, a_post),
                              (a_post, b_pre), (b_pre, b_post),
                              (b_post, c_pre), (c_pre, c_post)):
            _accrue(tog, before, after)
        return tog, c_post[-1]

    # -- event-simulator fallback --------------------------------------------

    def _run_event(self, vectors, clock, reset, group_size):
        if self._module is None:
            raise SimulationError(
                "schedule for {} needs the event simulator ({}), but was "
                "restored without its module".format(
                    self.soa.module_name if self.soa else "?", self.why))
        from .activity import GroupRecorder
        from .testbench import ClockedTestbench

        tb = ClockedTestbench(self._module, clock=clock)
        tb.reset_flops(reset)
        recorder = None if group_size is None \
            else GroupRecorder(tb.sim, group_size)
        for vec in vectors:
            tb.cycle(vec)
            if recorder is not None:
                recorder.after_cycle()
        if recorder is not None:
            recorder.flush()
        return CompiledRun(
            cycles=tb.cycles,
            engine="event",
            toggles=tb.sim.toggle_snapshot(),
            trace=None if recorder is None else recorder.trace,
            final_values={net.name: tb.sim.value(net.name)
                          for net in self._module.nets()},
        )

    # -- public API ----------------------------------------------------------

    def run_vectors(self, vectors, clock="clk", reset=0, group_size=None):
        """Simulate a clocked workload; returns a :class:`CompiledRun`.

        One vector dict per cycle (standard apply / posedge / negedge
        protocol, flops pre-forced to ``reset``).  Batches through the
        levelized engine when :meth:`vector_ready`, otherwise replays
        through the event simulator -- either way the toggle counts and
        final values are bit-identical.
        """
        vectors = list(vectors)
        ok, _why = self.vector_ready(clock)
        if ok:
            return self._run_levelized(vectors, clock, reset, group_size)
        return self._run_event(vectors, clock, reset, group_size)

    def evaluate(self, points):
        """Batch-evaluate a purely combinational module.

        ``points`` is ``(batch, n_inputs)`` of 0/1/X values in
        ``input_ports`` declaration order; returns ``(batch,
        n_outputs)`` in ``output_ports`` order.  This is the gate-level
        :class:`~repro.runner.kernel.Kernel` callable shape.
        """
        if self.soa is None:
            raise SimulationError(
                "no levelized schedule: {}".format(self.why))
        soa = self.soa
        if soa.n_seq:
            raise SimulationError(
                "evaluate() is combinational-only; module {} has {} "
                "flops (use run_vectors)".format(
                    soa.module_name, soa.n_seq))
        points = np.asarray(points, dtype=np.int8)
        if points.ndim == 1:
            points = points[np.newaxis, :]
        in_idx = np.asarray(list(soa.input_ports.values()), dtype=np.int64)
        if points.shape[1] != len(in_idx):
            raise SimulationError(
                "expected {} input columns, got {}".format(
                    len(in_idx), points.shape[1]))
        values = np.repeat(self._init[np.newaxis, :], len(points), axis=0)
        values[:, in_idx] = points
        soa.eval_comb(values)
        out_idx = np.asarray(list(soa.output_ports.values()), dtype=np.int64)
        return values[:, out_idx]


class BusView:
    """Packed integer view over ``name_0 .. name_{width-1}`` bit nets.

    Output views gather the current settled values in one take;
    input views drive a whole integer through the stepper's memoised
    apply program -- no per-bit name formatting or dict traffic on the
    per-cycle path (compare :func:`repro.sim.testbench.read_bus`).
    """

    __slots__ = ("_stepper", "name", "width", "_idx", "_shifts", "_pow2",
                 "_prog", "_sample")

    def __init__(self, stepper, name, width, writable):
        soa = stepper.soa
        self._stepper = stepper
        self.name = name
        self.width = width
        space = soa.input_ports if writable else soa.net_index
        idx = []
        for i in range(width):
            bit = "{}_{}".format(name, i)
            at = space.get(bit)
            if at is None:
                raise SimulationError(
                    "module {} has no {} {}".format(
                        soa.module_name,
                        "input port" if writable else "net", bit))
            idx.append(at)
        self._idx = np.asarray(idx, dtype=np.int64)
        self._shifts = np.arange(width, dtype=np.int64)
        self._pow2 = np.int64(1) << self._shifts
        if writable:
            self._prog, self._sample = \
                stepper.schedule._row_apply_prog(tuple(idx))
        else:
            self._prog = self._sample = None

    def read(self):
        """The bus as an int, or ``None`` when any bit is X
        (:func:`~repro.sim.testbench.read_bus` parity)."""
        row = self._stepper._state[self._idx]
        if (row == X).any():
            return None
        return int(row.astype(np.int64) @ self._pow2)

    def drive(self, value):
        """Apply ``value``'s bits as one settled input phase."""
        if self._prog is None:
            raise SimulationError("bus {} is read-only".format(self.name))
        self._stepper._apply_indexed(self._idx, self.bits(value),
                                     self._prog, self._sample)

    @property
    def index(self):
        """Net indices of the bus bits, LSB first (read-only copy)."""
        return self._idx.copy()

    def bits(self, words):
        """The ``int8`` bits of an int (``(width,)``) or of an int array
        (``(len, width)``), LSB first."""
        words = np.asarray(words, dtype=np.int64)
        return ((words[..., np.newaxis] >> self._shifts) & 1).astype(
            np.int8)

    def read_rows(self, values):
        """Batched :meth:`read` over a ``(rows, nets)`` value matrix:
        ``(ints, known)``, where ``known`` is False on rows with an X bit
        (their int is meaningless)."""
        bits = values[:, self._idx]
        known = ~(bits == X).any(axis=1)
        return bits.astype(np.int64) @ self._pow2, known


class ClosedLoopStepper:
    """Cycle-at-a-time reactive stepping over a compiled schedule.

    Mirrors driving an event :class:`~repro.sim.event.Simulator` through
    the standard protocol (settled apply phases with the clock low, then
    :meth:`posedge` / :meth:`negedge`), but every phase is a handful of
    fused gathers over a single ``(n_nets,)`` value row: the perturbed
    cone settles through a memoised packed row program, flop sampling
    runs only when the cone can reach a CK/RN pin, unchanged applies
    skip entirely, and toggle accounting accrues the same
    consecutive-snapshot diffs as the batched engine -- so state,
    toggles and flop values stay bit-identical to the event path.

    This is the engine under :class:`repro.isa.trace.GateLevelCpu`'s
    compiled mode; anything per-cycle-interactive can drive it directly
    via :meth:`apply` / :meth:`cycle` and the :class:`BusView` accessors.
    """

    def __init__(self, schedule, clock="clk", record_toggles=True):
        ok, why = schedule.vector_ready(clock)
        if not ok:
            raise SimulationError(
                "cannot step {}: {}".format(
                    schedule.soa.module_name if schedule.soa else "?", why))
        self.schedule = schedule
        self.soa = schedule.soa
        self.clock = clock
        self.record_toggles = record_toggles
        soa = self.soa
        self._state = schedule._init.copy()
        self.toggle_counts = np.zeros(soa.n_nets, dtype=np.int64)
        self.cycles = 0
        self._state_prog = schedule._row_state_prog()
        self._programs = {}
        self._seq_rows = {name: row
                          for row, name in enumerate(soa.seq_names)}
        clk_idx = soa.input_ports[clock]
        self._clk_idx = np.asarray([clk_idx], dtype=np.int64)
        self._clk_prog, _ = schedule._row_apply_prog((clk_idx,))
        self._clk_vals = (np.asarray([0], dtype=np.int8),
                          np.asarray([1], dtype=np.int8))

    # -- phase engine --------------------------------------------------------

    def _apply_indexed(self, idx, vals, prog, sample):
        """One settled phase: set ``vals`` at ``idx``, settle the cone,
        sample flops when the cone warrants it.  No-op when every value
        is unchanged (the event simulator drops such events too)."""
        start = self._state
        if np.array_equal(start[idx], vals):
            return
        soa = self.soa
        pre = start.copy()
        pre[idx] = vals
        soa.eval_row(pre, prog)
        post = pre
        if sample:
            sampled = self.schedule._sample_flops(start[None, :],
                                                  pre[None, :])
            if sampled is not None:
                post = sampled[0]
                soa.eval_row(post, self._state_prog)
        if self.record_toggles:
            _accrue(self.toggle_counts, start, pre)
            if post is not pre:
                _accrue(self.toggle_counts, pre, post)
        self._state = post

    def apply(self, values):
        """Settle a ``{port name: value}`` change (clock stays put)."""
        names = tuple(sorted(values))
        entry = self._programs.get(names)
        if entry is None:
            soa = self.soa
            idx = []
            for name in names:
                at = soa.input_ports.get(name)
                if at is None:
                    raise SimulationError(
                        "module {} has no input port {}".format(
                            soa.module_name, name))
                idx.append(at)
            prog, sample = self.schedule._row_apply_prog(tuple(idx))
            entry = self._programs[names] = (
                np.asarray(idx, dtype=np.int64), prog, sample)
        idx, prog, sample = entry
        vals = np.asarray([to_ternary(values[name]) for name in names],
                          dtype=np.int8)
        self._apply_indexed(idx, vals, prog, sample)

    def posedge(self):
        """Drive the clock high (flops sample against the pre-edge
        state, exactly like the event simulator's edge)."""
        self._apply_indexed(self._clk_idx, self._clk_vals[1],
                            self._clk_prog, True)

    def negedge(self):
        """Drive the clock low."""
        self._apply_indexed(self._clk_idx, self._clk_vals[0],
                            self._clk_prog, True)

    def cycle(self, inputs=None):
        """One full protocol cycle: apply ``inputs``, posedge, negedge."""
        if inputs:
            if self.clock in inputs:
                raise SimulationError(
                    "drive the clock via posedge/negedge, not apply")
            self.apply(inputs)
        self.posedge()
        self.negedge()
        self.cycles += 1

    def settle_window(self, rows, feeds):
        """Settle a window of independent cycles as ``(cycles, nets)``
        matrices: the batched twin of driving each row through
        :meth:`posedge`, :meth:`negedge` and one settled input phase per
        feed.

        ``rows`` are the cycles' start states -- sources (flop outputs,
        input ports) right, everything else a don't-care -- and are
        settled in place by one full pass.  ``feeds`` is a sequence of
        ``(bus, words)``: after the clock pulse each writable
        :class:`BusView` is driven, in order, with ``words(values)``, an
        int per row computed from the phase-start matrix.  Every phase is
        a :meth:`CompiledSchedule._phase`, so sampling and settling follow
        the stepper's rules exactly, and toggles are the same
        consecutive-snapshot diffs.

        Returns ``(end rows, per-cycle toggles)``; the toggles are an
        ``int8`` ``(cycles, nets)`` matrix, or ``None`` without
        ``record_toggles``.  The stepper's own state is untouched (see
        :meth:`adopt`).
        """
        schedule = self.schedule
        self.soa.eval_comb(rows)
        clk = int(self._clk_idx[0])
        fo_clock = schedule._fanout_levels((clk,))

        def clock_to(level):
            def mutate(values):
                values[:, clk] = level
            return mutate

        def drive(bus, words):
            def mutate(values):
                values[:, bus._idx] = bus.bits(words(values))
            return mutate

        phases = [(clock_to(1), fo_clock, True),
                  (clock_to(0), fo_clock, True)]
        phases += [(drive(bus, words),
                    schedule._fanout_levels(tuple(bus._idx.tolist())),
                    bus._sample)
                   for bus, words in feeds]
        toggles = np.zeros(rows.shape, dtype=np.int8) \
            if self.record_toggles else None
        values = rows
        for mutate, levels, sample in phases:
            pre, post = schedule._phase(values, mutate, levels, sample)
            if toggles is not None:
                _accrue(toggles, values, pre)
                if post is not pre:
                    _accrue(toggles, pre, post)
            values = post
            del pre, post   # hold no more window-sized matrices than needed
        return values, toggles

    def adopt(self, row, toggles=None):
        """Take ``row`` -- a settled end row of :meth:`settle_window` --
        as the current state, accruing ``toggles`` (per-cycle rows to sum,
        as :meth:`settle_window` returns them) when recording."""
        self._state = row.copy()
        if toggles is not None and self.record_toggles:
            self.toggle_counts += toggles.sum(axis=0)

    def force_flops(self, value=0):
        """Force every flop output and re-settle the state cone
        (:meth:`~repro.sim.event.Simulator.force_flop_state` parity)."""
        soa = self.soa
        qcols = soa.seq_q[soa.seq_q >= 0]
        if not len(qcols):
            return
        start = self._state
        pre = start.copy()
        pre[qcols] = to_ternary(value)
        soa.eval_row(pre, self._state_prog)
        if self.record_toggles:
            _accrue(self.toggle_counts, start, pre)
        self._state = pre

    # -- accessors -----------------------------------------------------------

    def input_bus(self, name, width):
        """A writable :class:`BusView` over input ports ``name_*``."""
        return BusView(self, name, width, writable=True)

    def output_bus(self, name, width):
        """A read-only :class:`BusView` over nets ``name_*``."""
        return BusView(self, name, width, writable=False)

    def value(self, net_name):
        """Current settled value of one net (0/1/X)."""
        return int(self._state[self.soa.net_index[net_name]])

    def flop_q(self, inst_name):
        """Current Q of a flop by instance name (X when output-less)."""
        row = self._seq_rows.get(inst_name)
        if row is None:
            raise SimulationError("unknown flop {}".format(inst_name))
        q = self.soa.seq_q[row]
        return X if q < 0 else int(self._state[q])

    def state_row(self):
        """A copy of the settled ``(n_nets,)`` value row (net order =
        ``soa.net_names`` = ``module.nets()`` order)."""
        return self._state.copy()

    def toggle_snapshot(self):
        """Dict net name -> toggle count (``Simulator`` parity)."""
        return {name: int(self.toggle_counts[i])
                for i, name in enumerate(self.soa.net_names)}

    def reset_toggles(self):
        self.toggle_counts[:] = 0


def compile_schedule(module):
    """Compile ``module`` into a :class:`CompiledSchedule`.

    Never raises for an un-lowerable module (feedback, an unconnected
    gate input): it yields a schedule whose
    :meth:`~CompiledSchedule.vector_ready` is False, whose ``why`` says
    what failed, and whose workload runs ride the event simulator.
    """
    try:
        soa = lower_soa(module)
    except NetlistError as exc:
        return CompiledSchedule(module=module, soa=None, why=str(exc))
    return CompiledSchedule(module=module, soa=soa)


def schedule_for(module):
    """The :func:`compile_schedule` of ``module``, cached on the module
    (see :meth:`repro.netlist.core.Module.derived`)."""
    return module.derived("schedule", compile_schedule)


class GateSimKernel(Kernel):
    """The gate-level :class:`~repro.runner.kernel.Kernel`: a flat
    combinational :class:`~repro.netlist.core.Module` compiles once into
    its levelized schedule; the compiled callable batch-evaluates input
    matrices (see :meth:`CompiledSchedule.evaluate`)."""

    name = "gate-sim"

    def applies(self, module):
        schedule = schedule_for(module)
        return schedule.soa is not None and schedule.soa.n_seq == 0

    def evaluate(self, schedule, points, library=None):
        return schedule.evaluate(points)

    def compile(self, module, library=None):
        # Lower once here: the compiled kernel embeds the (picklable)
        # schedule, not the module, so worker processes replay the
        # levelized tables without re-lowering the netlist.
        if not self.applies(module):
            schedule = schedule_for(module)
            raise SimulationError(
                "gate-sim kernel needs a flat combinational module: "
                + (schedule.why or "{} has {} flops".format(
                    module.name, schedule.soa.n_seq)))
        return CompiledKernel(self, schedule_for(module))


register_kernel(Module, GateSimKernel())
