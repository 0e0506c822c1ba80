"""Vector-parallel levelized gate simulation over the SoA netlist.

:func:`compile_schedule` lowers a flat module once
(:func:`repro.netlist.soa.lower_soa`) and wraps it in a
:class:`CompiledSchedule` -- the levelized evaluation schedule.  This is
the repository's gate-level simulator: a whole workload of input vectors
simulates as a handful of batched numpy passes instead of per-event
Python dispatch.  Each clock cycle is three settled phases (inputs
applied with the clock low, the rising edge, the falling edge), and
every phase is a levelized sweep over a ``(cycles, nets)`` value matrix.

Zero-delay semantics follow a generational event wave.  A phase's
stimulus settles in one sweep; every flop with an event on its CK or RN
pin then samples (RN dominates, a rising edge captures the phase-start
D/EN, an edge to X corrupts), and the sampled Q changes become the next
generation's events.  Flops clocked straight from a port therefore
sample one generation before flops behind clock logic -- buffers, gated
clocks -- and flops clocked or reset from state sample later still (see
:meth:`CompiledSchedule._generations`).  Toggle counts are the
differences between consecutive settled sweeps, so every 0 <-> 1
transition of the wave is counted exactly once.

Cross-cycle state is resolved by fixed-point iteration: the cycle-``k``
row starts from cycle ``k-1``'s settled end state, so each batched pass
finalises at least one more cycle and a ``d``-deep pipeline converges in
``d + 1`` passes.  ``tests/sim/event.py`` keeps an event-driven
simulator as the differential oracle; the tests assert bit-identical
toggles, activity groups, final values and state traces against it.

A netlist with combinational feedback, or a gate input left open, has no
levelized order: :func:`compile_schedule` still returns a schedule, but
running it raises the :class:`~repro.errors.NetlistError` that names the
loop or pin.

Closed-loop workloads (a testbench that must *read* outputs each cycle
to decide the next inputs -- the ISA co-simulator's memory protocol)
cannot batch cycles at all, so :meth:`CompiledSchedule.stepper` exposes
the same settled-phase machinery one cycle at a time: a
:class:`ClosedLoopStepper` settles single value rows through merged
packed row programs (:meth:`repro.netlist.soa.SoaNetlist.pack_levels`),
skips applies whose values did not change, samples flops only on phases
whose affected cone reaches a CK/RN pin, and accrues the identical
consecutive-snapshot toggle diffs.  When the caller can predict each
cycle's start state (the M0-lite pipeline model does),
:meth:`ClosedLoopStepper.settle_window` settles a whole window of such
cycles as ``(cycles, nets)`` matrices through the same phases, leaving
the caller to confirm the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError, SimulationError
from ..netlist.soa import lower_soa
from .activity import ActivityTrace, GroupActivity
from .logic import X, to_ternary


#: Cycles per batched pass of :meth:`CompiledSchedule.run_vectors`.
_MAX_BATCH = 1024


def _accrue(counts, a, b):
    """Add the functional toggles between consecutive settled states
    ``a`` and ``b`` to ``counts``: a 0 <-> 1 change, which with X
    encoded as 2 is exactly an XOR of 1.  The mask is formed in place
    over the XOR, so a window-sized matrix costs one temporary."""
    flips = np.bitwise_xor(a, b)
    mask = flips.view(np.bool_)
    np.equal(flips, 1, out=mask)
    counts += mask


def _set_columns(cols, value):
    """A phase stimulus: drive columns ``cols`` of every row to
    ``value``."""
    def mutate(values):
        values[:, cols] = value
    return mutate


@dataclass
class CompiledRun:
    """Result of one clocked workload run."""

    cycles: int
    #: Per-net toggle counts (all nets, zeros included).
    toggles: dict = field(default_factory=dict)
    trace: ActivityTrace = None
    #: Net name -> final settled value (clock low).
    final_values: dict = field(default_factory=dict)
    #: Per-cycle per-net toggle matrix.
    toggle_matrix: np.ndarray = None

    def toggle_snapshot(self):
        """Dict net name -> toggle count."""
        return dict(self.toggles)

    def total_toggles(self):
        return sum(self.toggles.values())

    def value(self, net_name):
        """Final settled value of a net (0/1/X)."""
        return self.final_values[net_name]


class _FlopTable:
    """Per-flop pin columns for the generational sampler: flops with Q,
    CK and D nets (the rest can change nothing, or cannot run at all --
    see :meth:`CompiledSchedule.require`).

    ``sens`` holds every CK/RN pin net once; a generation's events are
    the changes of those columns, so the sampler gathers ``(rows,
    len(sens))`` slices instead of whole value matrices.
    """

    def __init__(self, soa):
        rows = np.nonzero((soa.seq_q >= 0) & (soa.seq_ck >= 0)
                          & (soa.seq_d >= 0))[0]
        self.q = soa.seq_q[rows]
        self.d = soa.seq_d[rows]
        ck = soa.seq_ck[rows]
        en = soa.seq_en[rows]
        rn = soa.seq_rn[rows]
        self.has_en = en >= 0
        self.en = np.where(self.has_en, en, 0)
        self.has_rn = rn >= 0
        # sorted() over a set: np.unique would import numpy.ma.
        self.sens = np.asarray(
            sorted(set(ck.tolist()) | set(rn[self.has_rn].tolist())),
            dtype=np.int64)
        self.ck_pos = np.searchsorted(self.sens, ck)
        self.rn_pos = np.searchsorted(self.sens,
                                      np.where(self.has_rn, rn, ck))
        # Oscillation guard: an acyclic chain of state-driven clocks and
        # resets takes at most two generations per flop.
        self.limit = 4 * (len(rows) + 2)

    def sample(self, old, new, values, wave):
        """The Q columns after one generation's sampling, or ``None``
        when no Q changes.

        ``old`` / ``new`` are the ``sens`` columns before and at this
        generation, ``values`` the current matrix (its Q columns are the
        held state) and ``wave`` the phase-start matrix.  A flop with an
        event on CK or RN samples: RN low or X dominates; otherwise a
        rising CK edge captures the phase-start D (EN == 0 holds, EN ==
        X corrupts), a CK change to X corrupts, anything else holds.
        Flops without an event hold whatever their pins read.
        """
        if np.array_equal(old, new):
            return None
        ck_old = old[:, self.ck_pos]
        ck_new = new[:, self.ck_pos]
        ck_ev = ck_old != ck_new
        rn_new = new[:, self.rn_pos]
        rn_ev = self.has_rn & (old[:, self.rn_pos] != rn_new)
        active = ck_ev | rn_ev
        if not active.any():
            return None
        held = values[:, self.q]
        rising = ck_ev & (ck_old == 0) & (ck_new == 1)
        q_next = np.where(ck_ev & ~rising & (ck_new == X), X, held)
        en = np.where(self.has_en, wave[:, self.en], 1)
        d = np.where(en == X, X, wave[:, self.d])
        q_next = np.where(rising & (en != 0), d, q_next)
        rn_now = np.where(self.has_rn, rn_new, 1)
        q_next = np.where(active & (rn_now == 0), 0, q_next)
        q_next = np.where(active & (rn_now == X), X, q_next)
        q_next = q_next.astype(np.int8)
        if np.array_equal(q_next, held):
            return None
        return q_next


class CompiledSchedule:
    """A module's levelized evaluation schedule.

    Holds only the lowered :class:`~repro.netlist.soa.SoaNetlist` (or,
    for a netlist that cannot be levelized, the reason in ``why``), so
    instances pickle into the artifact cache and run unchanged in
    worker processes.
    """

    #: Memoised derived tables, rebuilt on demand after unpickling.
    _MEMOS = ("_flops", "_fo_state", "_fo_sources", "_row_state",
              "_row_inputs")

    def __init__(self, soa=None, why=""):
        self.soa = soa
        self.why = why          # non-empty when lowering failed
        if soa is not None:
            self._init = self._build_init()

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._MEMOS:
            state.pop(name, None)
        return state

    # -- eligibility ---------------------------------------------------------

    def require(self, clock=None):
        """Raise unless this schedule can simulate.

        :class:`~repro.errors.NetlistError` when the netlist has no
        levelized order (the lowering's message: the loop or the open
        pin) or a flop lacks its clock or data pin;
        :class:`~repro.errors.SimulationError` when ``clock`` is given
        but is not an input port.
        """
        if self.soa is None:
            raise NetlistError(self.why)
        if clock is None:
            return
        soa = self.soa
        if clock not in soa.input_ports:
            raise SimulationError("module {} has no input port {!r}".format(
                soa.module_name, clock))
        for row in range(soa.n_seq):
            if soa.seq_ck[row] < 0:
                raise NetlistError("flop {} has no clock pin".format(
                    soa.seq_names[row]))
            if soa.seq_q[row] >= 0 and soa.seq_d[row] < 0:
                raise NetlistError("flop {} has no data pin".format(
                    soa.seq_names[row]))

    def vector_ready(self, clock="clk"):
        """``(ok, reason)``: can this schedule run a clocked workload?
        The non-raising form of :meth:`require`."""
        try:
            self.require(clock)
        except (NetlistError, SimulationError) as exc:
            return False, str(exc)
        return True, ""

    # -- phase engine --------------------------------------------------------

    def _build_init(self):
        """The settled power-up state: all-X but for constants and tie
        cells, then the logic settles as one wave, so a flop whose reset
        settles low clears (and a state-driven pin samples as usual)."""
        soa = self.soa
        start = soa.initial_values()[np.newaxis, :].copy()
        soa.eval_comb(start, [[grp for grp in level if grp.arity == 0]
                              for level in soa.levels])
        values = start.copy()
        soa.eval_comb(values)
        return self._generations(
            start, values, lambda v: None,
            lambda v: soa.eval_comb(v, self._state_levels()))[-1][0]

    def _flop_table(self):
        """The memoised :class:`_FlopTable`, ``None`` without flops."""
        table = getattr(self, "_flops", False)
        if table is False:
            table = _FlopTable(self.soa)
            self._flops = table = table if len(table.q) else None
        return table

    def _generations(self, start, values, settle, settle_state):
        """Settle one phase's stimulus generation by generation -- the
        one flop sampler every engine path uses.

        ``start`` is the phase-start matrix, ``values`` the same
        rows with the stimulus applied.  Generation ``g`` starts from
        the values its events left: every flop with an event on a CK or
        RN pin (a change since generation ``g - 1`` started) samples
        (:meth:`_FlopTable.sample`), the changes settle in one sweep --
        ``settle`` for the stimulus, ``settle_state`` for flop outputs
        -- and only then do the sampled Qs update, as the next
        generation's events.  A sweep that moves a CK or RN pin also
        makes the next generation sample.

        Returns the settled matrix after each sweep; the last is the end
        state, and consecutive ones differ by at most one transition per
        net, so their differences are the phase's toggles.
        """
        table = self._flop_table()
        if table is None:
            settle(values)
            return [values]
        sens = table.sens
        old = start[:, sens]
        rows = []
        sweep = settle
        for _ in range(table.limit):
            new = values[:, sens]
            if sweep is not None:
                sweep(values)
                rows.append(values)
            q_next = table.sample(old, new, values, start)
            old = new
            if q_next is not None:
                values = values.copy()
                values[:, table.q] = q_next
                sweep = settle_state
            elif sweep is not None and \
                    not np.array_equal(values[:, sens], new):
                sweep = None        # derived CK/RN pins moved: sample
            else:
                return rows
        raise SimulationError(
            "simulation did not settle (oscillating state loop?) in "
            "module {}".format(self.soa.module_name))

    def _phase(self, start, mutate, levels, sample=True):
        """One settled phase over a ``(rows, nets)`` matrix: copy
        ``start``, apply ``mutate``, settle the perturbed cone
        (``levels``) and run the generations (skipped when ``sample`` is
        False: the cone reaches no CK/RN pin).  Returns the settled
        matrix after each sweep (see :meth:`_generations`)."""
        soa = self.soa
        values = start.copy()
        mutate(values)
        if not sample:
            soa.eval_comb(values, levels)
            return [values]
        return self._generations(
            start, values, lambda v: soa.eval_comb(v, levels),
            lambda v: soa.eval_comb(v, self._state_levels()))

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
        pin net: a generation samples only flops with an event there.
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
        """A :class:`ClosedLoopStepper` over this schedule (raises like
        :meth:`require`)."""
        return ClosedLoopStepper(self, clock=clock,
                                 record_toggles=record_toggles)

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

        fo_inputs = soa.subschedule(stim_idx.tolist())
        fo_clock = self._fanout_levels((clk_idx,))
        prev_c = np.repeat(state[np.newaxis, :], ncyc, axis=0)
        for _ in range(ncyc + 1):
            a = self._phase(prev_c, apply_inputs, fo_inputs)
            b = self._phase(a[-1], _set_columns([clk_idx], 1), fo_clock)
            c = self._phase(b[-1], _set_columns([clk_idx], 0), fo_clock)
            rolled = np.vstack([state[np.newaxis, :], c[-1][:-1]])
            if np.array_equal(rolled, prev_c):
                break
            prev_c = rolled
        else:  # pragma: no cover - ncyc+1 iterations always suffice
            raise SimulationError("batched replay failed to converge")

        tog = np.zeros(prev_c.shape, dtype=np.int64)
        before = prev_c
        for row in a + b + c:
            _accrue(tog, before, row)
            before = row
        return tog, c[-1][-1]

    # -- public API ----------------------------------------------------------

    def run_vectors(self, vectors, clock="clk", reset=0, group_size=None):
        """Simulate a clocked workload; returns a :class:`CompiledRun`.

        One vector dict per cycle (standard apply / posedge / negedge
        protocol).  Before the first cycle the clock settles low and
        every flop is forced to ``reset``, each as a settled phase.
        Raises like :meth:`require`.
        """
        self.require(clock)
        soa = self.soa
        clk_idx = soa.input_ports[clock]
        vectors = list(vectors)

        state = self._init[np.newaxis, :]
        pre = np.zeros(state.shape, dtype=np.int64)
        qcols = soa.seq_q[soa.seq_q >= 0]
        for cols, value, levels in (
                ([clk_idx], 0, self._fanout_levels((clk_idx,))),
                (qcols, to_ternary(reset), self._state_levels())):
            if not len(cols):
                continue
            for row in self._phase(state, _set_columns(cols, value),
                                   levels):
                _accrue(pre, state, row)
                state = row
        state = state[0]

        per_cycle = []
        for at in range(0, len(vectors), _MAX_BATCH):
            tog, state = self._run_chunk(vectors[at:at + _MAX_BATCH], clock,
                                         clk_idx, state)
            per_cycle.append(tog)
        toggle_matrix = np.concatenate(per_cycle, axis=0) if per_cycle \
            else np.zeros((0, soa.n_nets), dtype=np.int64)
        counts = toggle_matrix.sum(axis=0) + pre[0]

        trace = None
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

        return CompiledRun(
            cycles=len(vectors),
            toggles={name: int(counts[i])
                     for i, name in enumerate(soa.net_names)},
            trace=trace,
            final_values={name: int(state[i])
                          for i, name in enumerate(soa.net_names)},
            toggle_matrix=toggle_matrix,
        )

    def evaluate(self, points):
        """Batch-evaluate a purely combinational module.

        ``points`` is ``(batch, n_inputs)`` of 0/1/X values in
        ``input_ports`` declaration order; returns ``(batch,
        n_outputs)`` in ``output_ports`` order.  The bound method
        ``schedule_for(module).evaluate`` is a picklable batch kernel
        for :func:`~repro.runner.evaluate_grid`: the schedule pickles
        without its module, so workers replay the levelized tables
        without re-lowering the netlist.
        """
        self.require()
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


def bus_values(name, width, value):
    """Dict of pin assignments for the bit-blasted bus ``name_0 ..
    name_{width-1}`` (to merge into a vector)."""
    return {"{}_{}".format(name, i): (value >> i) & 1 for i in range(width)}


class BusView:
    """Packed integer view over ``name_0 .. name_{width-1}`` bit nets.

    Output views gather the current settled values in one take;
    input views drive a whole integer through the stepper's memoised
    apply program -- no per-bit name formatting or dict traffic on the
    per-cycle path.
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
        """The bus as an int, or ``None`` when any bit is X."""
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

    The standard protocol -- settled apply phases with the clock low,
    then :meth:`posedge` / :meth:`negedge` -- over a single ``(n_nets,)``
    value row: the perturbed cone settles through a memoised packed row
    program, flop sampling runs only when the cone can reach a CK/RN
    pin, unchanged applies skip entirely, and every phase goes through
    the batched engine's generational sampler
    (:meth:`CompiledSchedule._generations`), so state and toggles match
    a batched run of the same stimulus bit for bit.

    This is the engine under :class:`repro.isa.trace.GateLevelCpu`;
    anything per-cycle-interactive can drive it directly via
    :meth:`apply` / :meth:`cycle` and the :class:`BusView` accessors.
    Construction raises like :meth:`CompiledSchedule.require`.
    """

    def __init__(self, schedule, clock="clk", record_toggles=True):
        schedule.require(clock)
        self.schedule = schedule
        self.soa = schedule.soa
        self.clock = clock
        self.record_toggles = record_toggles
        soa = self.soa
        self._state = schedule._init.copy()
        self.toggle_counts = np.zeros(soa.n_nets, dtype=np.int64)
        self.cycles = 0
        state_prog = schedule._row_state_prog()
        self._settle_state = lambda v: soa.eval_row(v[0], state_prog)
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
        run the generations when the cone warrants it.  No-op when every
        value is unchanged (an unchanged net is no event)."""
        start = self._state
        if np.array_equal(start[idx], vals):
            return
        soa = self.soa
        row = start.copy()
        row[idx] = vals
        if sample:
            rows = [r[0] for r in self.schedule._generations(
                start[np.newaxis, :], row[np.newaxis, :],
                lambda v: soa.eval_row(v[0], prog), self._settle_state)]
        else:
            soa.eval_row(row, prog)
            rows = [row]
        if self.record_toggles:
            for after in rows:
                _accrue(self.toggle_counts, start, after)
                start = after
        self._state = rows[-1]

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
        state)."""
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
        clk = self._clk_idx
        fo_clock = schedule._fanout_levels((int(clk[0]),))

        def drive(bus, words):
            def mutate(values):
                values[:, bus._idx] = bus.bits(words(values))
            return mutate

        phases = [(_set_columns(clk, 1), fo_clock, True),
                  (_set_columns(clk, 0), fo_clock, True)]
        phases += [(drive(bus, words),
                    schedule._fanout_levels(tuple(bus._idx.tolist())),
                    bus._sample)
                   for bus, words in feeds]
        toggles = np.zeros(rows.shape, dtype=np.int8) \
            if self.record_toggles else None
        values = rows
        for mutate, levels, sample in phases:
            settled = schedule._phase(values, mutate, levels, sample)
            if toggles is not None:
                for after in settled:
                    _accrue(toggles, values, after)
                    values = after
            values = settled[-1]
            del settled     # hold no more window-sized matrices than needed
        return values, toggles

    def adopt(self, row, toggles=None):
        """Take ``row`` -- a settled end row of :meth:`settle_window` --
        as the current state, accruing ``toggles`` (per-cycle rows to sum,
        as :meth:`settle_window` returns them) when recording."""
        self._state = row.copy()
        if toggles is not None and self.record_toggles:
            self.toggle_counts += toggles.sum(axis=0)

    def force_flops(self, value=0):
        """Force every flop output to ``value`` as one settled phase:
        the fanout settles, and flops clocked or reset from state sample
        the forced values like any other event."""
        soa = self.soa
        qcols = soa.seq_q[soa.seq_q >= 0]
        if not len(qcols):
            return
        self._apply_indexed(qcols, np.full(len(qcols), to_ternary(value),
                                           dtype=np.int8),
                            self.schedule._row_state_prog(), True)

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
        """Dict net name -> toggle count."""
        return {name: int(self.toggle_counts[i])
                for i, name in enumerate(self.soa.net_names)}

    def reset_toggles(self):
        self.toggle_counts[:] = 0


def compile_schedule(module):
    """Compile ``module`` into a :class:`CompiledSchedule`.

    Never raises for an un-lowerable module (feedback, an unconnected
    gate input): it yields a schedule whose ``why`` holds the lowering's
    message and whose runs raise it as a
    :class:`~repro.errors.NetlistError`.
    """
    try:
        soa = lower_soa(module)
    except NetlistError as exc:
        return CompiledSchedule(soa=None, why=str(exc))
    return CompiledSchedule(soa=soa)


def schedule_for(module):
    """The :func:`compile_schedule` of ``module``, cached on the module
    (see :meth:`repro.netlist.core.Module.derived`)."""
    return module.derived("schedule", compile_schedule)
