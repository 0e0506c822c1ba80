"""Struct-of-arrays netlist lowering for the levelized gate simulator.

:func:`lower_soa` walks a flat module once and rebuilds it as dense
integer-indexed arrays: every net becomes an index into a value vector,
every combinational (instance, output pin) pair becomes one *gate entry*
with an ``int8`` ternary truth table in a shared flat table array, and
the entries are ranked into dependency levels
(:func:`repro.netlist.traverse.levels_for`) and grouped by arity so a
whole level evaluates as one batched table lookup::

    keys = V[:, in_idx] @ pow3          # (B, gates) ternary codes
    V[:, out_idx] = tables[base + keys] # one gather per (level, arity)

Two further lowered forms serve the closed-loop paths:

* :meth:`SoaNetlist.pack_levels` merges a level list into
  :class:`RowOp` *row programs* -- every level collapses into one
  padded-arity gather (operand columns weighted ``3**k``, padding
  weighted ``0``), which is what makes settling a **single** value row
  cheap enough for cycle-at-a-time reactive stepping
  (:class:`repro.sim.compiled.ClosedLoopStepper`);
* :func:`lower_leakage` walks the cell instances once into a
  :class:`LeakageSoa` -- per-instance base-leakage arrays plus, for
  every cell with Liberty-style ``leakage_states``, a dense state table
  indexed by the packed ternary code of its input-pin values -- so
  state-dependent leakage over a whole co-sim trace is one gather per
  cell group instead of a per-cycle netlist walk
  (:func:`repro.power.leakage.state_leakage_trace`).

The lowered form holds only names, indices and arrays -- no ``Net`` /
``Instance`` / ``Cell`` references -- so it pickles into the artifact
cache and ships to worker processes unchanged.  Combinational feedback
makes a levelized schedule impossible, and an unconnected gate input
has no value to gather; :func:`lower_soa` then raises
:class:`~repro.errors.NetlistError`, which every simulation entry point
re-raises (see :mod:`repro.sim.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError
from ..tech.library import CellKind
from ..sim.logic import X, compile_cell
from .traverse import connectivity_for, level_rows


@dataclass
class CombGroup:
    """One (level, arity) batch of gate entries.

    ``in_idx`` is ``(gates, arity)``; ``pow3`` encodes the operand order
    of :class:`~repro.sim.logic.CompiledCell` (operand ``k`` weighted
    ``3**k``); ``table_base`` offsets each gate's truth table inside the
    shared flat table array.
    """

    arity: int
    in_idx: np.ndarray
    out_idx: np.ndarray
    table_base: np.ndarray
    pow3: np.ndarray
    #: Per-operand contiguous column views of ``in_idx`` (gather order).
    in_cols: list = field(default_factory=list)


@dataclass
class RowOp:
    """One merged level of a packed *row program*.

    Every gate of the level -- whatever its arity -- is padded to the
    level's maximum arity ``A``: ``cols`` is ``(A, gates)`` operand net
    indices (pads point at net 0), ``weights`` is ``(A, gates)`` ternary
    weights (``3**k`` for real operands, ``0`` for pads, so pads
    contribute nothing to the table key), ``base`` the per-gate table
    offsets and ``out`` the output net indices.  A whole level then
    settles as ``row[out] = tables[base + sum_k row[cols[k]]*weights[k]]``
    -- one fused gather per level instead of one per (level, arity)
    group, which is what a single-row reactive step needs.
    """

    cols: np.ndarray
    weights: np.ndarray
    base: np.ndarray
    out: np.ndarray

    def __post_init__(self):
        # Flattened operand indices: one ndarray.take per level beats
        # ``A`` separate gathers (fewer trips through numpy dispatch).
        self.flat_cols = np.ascontiguousarray(self.cols.reshape(-1))


@dataclass
class SoaNetlist:
    """A flat module lowered to struct-of-arrays form."""

    module_name: str = ""
    #: Net index space: ``net_names[i]`` is the name of net ``i``.
    net_names: list = field(default_factory=list)
    net_index: dict = field(default_factory=dict)
    const_idx: np.ndarray = None
    const_val: np.ndarray = None
    #: Port name -> net index, in declaration order.
    input_ports: dict = field(default_factory=dict)
    output_ports: dict = field(default_factory=dict)
    #: Levelized evaluation schedule: ``levels[L]`` is a list of
    #: :class:`CombGroup` whose inputs are all settled by level ``L``.
    levels: list = field(default_factory=list)
    tables: np.ndarray = None
    #: Sequential rows: pin net indices with ``-1`` for absent pins.
    seq_names: list = field(default_factory=list)
    seq_d: np.ndarray = None
    seq_ck: np.ndarray = None
    seq_q: np.ndarray = None
    seq_en: np.ndarray = None
    seq_rn: np.ndarray = None
    non_const_nets: int = 0

    @property
    def n_nets(self):
        return len(self.net_names)

    @property
    def n_seq(self):
        return len(self.seq_names)

    def initial_values(self):
        """The pre-simulation value vector: all-X except constants."""
        values = np.full(self.n_nets, X, dtype=np.int8)
        if len(self.const_idx):
            values[self.const_idx] = self.const_val
        return values

    def subschedule(self, sources):
        """Levels filtered to the transitive fanout of ``sources``.

        Returns a ``levels``-shaped list usable with :meth:`eval_comb`:
        only gates whose fan-in cone reaches a source net are kept, so a
        phase that perturbs few nets (a clock edge, an input change)
        settles by evaluating just the affected cone.  Starting from a
        settled state this computes the same fixed point as a full pass.
        """
        dirty = np.zeros(self.n_nets, dtype=bool)
        for idx in sources:
            if idx >= 0:
                dirty[idx] = True
        levels = []
        for level in self.levels:
            sub = []
            for grp in level:
                if grp.arity == 0:
                    continue        # constants settle in the init pass
                hit = dirty[grp.in_idx].any(axis=1)
                if hit.all():
                    sub.append(grp)
                    dirty[grp.out_idx] = True
                elif hit.any():
                    keep = np.nonzero(hit)[0]
                    in_idx = grp.in_idx[keep]
                    cut = CombGroup(
                        arity=grp.arity,
                        in_idx=in_idx,
                        out_idx=grp.out_idx[keep],
                        table_base=grp.table_base[keep],
                        pow3=grp.pow3,
                        in_cols=[np.ascontiguousarray(in_idx[:, j])
                                 for j in range(grp.arity)],
                    )
                    sub.append(cut)
                    dirty[cut.out_idx] = True
            if sub:
                levels.append(sub)
        return levels

    def eval_comb(self, values, levels=None):
        """Settle every combinational net of ``values`` in place.

        ``values`` is ``(batch, n_nets)`` ``int8``; one pass evaluates
        each level as batched truth-table gathers, so every net
        transitions at most once -- the functional (hazard-free) fixed
        point of the sources (ports, constants, flop outputs).
        ``levels`` restricts the pass to a :meth:`subschedule`.
        """
        tables = self.tables
        for level in (self.levels if levels is None else levels):
            for grp in level:
                if grp.arity == 0:
                    values[:, grp.out_idx] = tables[grp.table_base]
                    continue
                cols = grp.in_cols
                keys = grp.table_base + values[:, cols[0]]
                for j in range(1, grp.arity):
                    keys += values[:, cols[j]] * grp.pow3[j]
                values[:, grp.out_idx] = tables[keys]

    def pack_levels(self, levels=None):
        """Merge a level list into a :class:`RowOp` row program.

        ``levels`` defaults to the full schedule and also accepts a
        :meth:`subschedule` result.  Constant (arity-0) gates fold in
        with an all-pad column set, so their key degenerates to
        ``base`` -- the init pass already settles them, re-evaluating is
        idempotent.
        """
        ops = []
        for level in (self.levels if levels is None else levels):
            if not level:
                continue
            total = sum(len(grp.out_idx) for grp in level)
            if not total:
                continue
            max_arity = max(grp.arity for grp in level)
            cols = np.zeros((max_arity, total), dtype=np.int64)
            weights = np.zeros((max_arity, total), dtype=np.int64)
            base = np.empty(total, dtype=np.int64)
            out = np.empty(total, dtype=np.int64)
            at = 0
            for grp in level:
                n = len(grp.out_idx)
                for k in range(grp.arity):
                    cols[k, at:at + n] = grp.in_idx[:, k]
                    weights[k, at:at + n] = grp.pow3[k]
                base[at:at + n] = grp.table_base
                out[at:at + n] = grp.out_idx
                at += n
            ops.append(RowOp(cols=cols, weights=weights, base=base, out=out))
        return ops

    def row_program(self):
        """The full-schedule row program, packed once and memoised."""
        ops = getattr(self, "_row_full", None)
        if ops is None:
            ops = self.pack_levels()
            self._row_full = ops
        return ops

    def eval_row(self, row, ops=None):
        """Settle a single ``(n_nets,)`` value row in place.

        The single-row counterpart of :meth:`eval_comb`: one fused
        gather per merged level (``ops`` defaults to the memoised
        :meth:`row_program`; pass a :meth:`pack_levels` of a
        :meth:`subschedule` to settle only an affected cone).  Computes
        the identical functional fixed point.
        """
        tables = self.tables
        if ops is None:
            ops = self.row_program()
        for op in ops:
            arity = op.cols.shape[0]
            if arity == 0:
                row[op.out] = tables[op.base]
                continue
            keys = (row.take(op.flat_cols).reshape(arity, -1)
                    * op.weights).sum(axis=0)
            keys += op.base
            row.put(op.out, tables.take(keys))

    def __getstate__(self):
        """Drop lazily-packed row programs (rebuilt on demand)."""
        state = dict(self.__dict__)
        state.pop("_row_full", None)
        return state


@dataclass
class StateLeakGroup:
    """All instances of one cell type with Liberty ``leakage_states``.

    ``table`` holds the cell's state-dependent leakage for every packed
    ternary input code (pin ``j`` weighted ``3**j``, digits ``0/1`` for
    driven values and ``X`` for unknown); ``pin_idx`` maps each
    instance's input pins to net indices (``-1`` when unconnected --
    those pins' ``X`` contribution is folded into ``static_code``).
    """

    cell_name: str
    rows: np.ndarray
    pin_idx: np.ndarray
    static_code: np.ndarray
    pow3: np.ndarray
    table: np.ndarray


@dataclass
class LeakageSoa:
    """Per-instance leakage data lowered out of the netlist walk.

    ``base`` is each instance's state-independent cell leakage (at
    nominal conditions, pre scaling); :meth:`per_instance` overlays the
    state-dependent tables for any number of net-value rows at once.
    ``kind_rows`` / ``cell_rows`` keep first-occurrence-ordered index
    groups so report accumulation reproduces the walk's dict order
    bit-for-bit (see :func:`repro.power.leakage.leakage_power`).
    """

    module_name: str = ""
    inst_names: list = field(default_factory=list)
    cell_names: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    base: np.ndarray = None
    is_header: np.ndarray = None
    groups: list = field(default_factory=list)
    net_names: list = field(default_factory=list)
    net_index: dict = field(default_factory=dict)
    const_idx: np.ndarray = None
    const_val: np.ndarray = None
    #: ``[(CellKind, instance index array)]`` in first-occurrence order.
    kind_rows: list = field(default_factory=list)
    #: ``[(cell name, instance index array)]`` in first-occurrence order.
    cell_rows: list = field(default_factory=list)

    @property
    def n_inst(self):
        return len(self.inst_names)

    def state_values(self, state):
        """Pack a ``{net name: value}`` snapshot into a ternary row.

        Unknown / missing / non-binary values become ``X``; constant
        nets always carry their constant (matching the walk's
        ``_cell_state``).  Accepts an already-packed ``(n_nets,)`` array
        unchanged.
        """
        if isinstance(state, np.ndarray):
            return state
        values = np.full(len(self.net_names), X, dtype=np.int8)
        for name, v in state.items():
            idx = self.net_index.get(name)
            if idx is not None:
                values[idx] = v if v in (0, 1) else X
        if len(self.const_idx):
            values[self.const_idx] = self.const_val
        return values

    def per_instance(self, states=None):
        """Per-instance leakage (nominal, unscaled) for value rows.

        ``states`` is ``None`` (state-independent: every instance at its
        base leakage), one packed ``(n_nets,)`` row, or a whole trace
        ``(cycles, n_nets)``; the result matches the leading shape.
        State-dependent cells gather their packed input code per row --
        the exact float :meth:`Cell.leakage_for_state` returns for that
        assignment, since the tables are enumerated through it.
        """
        if states is None:
            return self.base.copy()
        states = np.asarray(states, dtype=np.int8)
        squeeze = states.ndim == 1
        if squeeze:
            states = states[None, :]
        per = np.broadcast_to(
            self.base, (states.shape[0], self.n_inst)).copy()
        for grp in self.groups:
            codes = np.broadcast_to(
                grp.static_code, (states.shape[0], len(grp.rows))).copy()
            for j in range(grp.pin_idx.shape[1]):
                idx = grp.pin_idx[:, j]
                mask = idx >= 0
                if not mask.any():
                    continue
                tern = states[:, np.where(mask, idx, 0)]
                codes += np.where(mask, tern, 0) * grp.pow3[j]
            per[:, grp.rows] = grp.table[codes]
        return per[0] if squeeze else per


#: Dense 3**k leakage tables memoised per cell object (like the
#: truth-table cache in :mod:`repro.sim.logic`).
_LEAK_TABLES = {}


def _leak_table(cell):
    cached = _LEAK_TABLES.get(id(cell))
    if cached is not None:
        return cached
    pins = cell.input_names
    k = len(pins)
    table = np.empty(3 ** k, dtype=np.float64)
    for code in range(3 ** k):
        assignment = {}
        rem = code
        for name in pins:
            digit = rem % 3
            rem //= 3
            assignment[name] = None if digit == X else digit
        table[code] = cell.leakage_for_state(assignment)
    _LEAK_TABLES[id(cell)] = (k, table)
    return k, table


def lower_leakage(module):
    """Lower ``module``'s cell instances into a :class:`LeakageSoa`.

    Works for any module (no levelization involved); instance order is
    ``module.cell_instances()`` order, the same walk
    :func:`repro.power.leakage.leakage_power` used to take.  Reads the
    module's :class:`~repro.netlist.traverse.Connectivity`.
    """
    conn = connectivity_for(module)
    types = conn.cell_types
    code = conn.cell_code
    lk = LeakageSoa(module_name=module.name, net_names=conn.net_names,
                    net_index=conn.net_index, const_idx=conn.const_idx,
                    const_val=conn.const_val)
    lk.inst_names = [inst.name for inst in conn.cells]
    lk.cell_names = [types[c].name for c in code.tolist()]
    lk.kinds = [types[c].kind for c in code.tolist()]
    lk.base = np.array([c.leakage for c in types], dtype=np.float64)[code]
    lk.is_header = np.array([c.kind is CellKind.HEADER for c in types],
                            dtype=bool)[code]

    # Row groups by kind and by cell name, in first-occurrence order.
    # (``cell_types`` is in first-occurrence order already.)
    for groups, attr in ((lk.kind_rows, "kind"), (lk.cell_rows, "name")):
        keys = {}
        for c in types:
            keys.setdefault(getattr(c, attr), len(keys))
        of_row = np.array([keys[getattr(c, attr)] for c in types],
                          dtype=np.int64)[code]
        groups.extend((key, np.flatnonzero(of_row == k))
                      for key, k in keys.items())

    for c, cell in enumerate(types):
        if not cell.leakage_states:
            continue
        k, table = _leak_table(cell)
        rows = np.flatnonzero(code == c)
        pin_idx = conn.in_net[rows, :k].astype(np.int64)
        pow3 = np.asarray([3 ** j for j in range(k)], dtype=np.int64)
        lk.groups.append(StateLeakGroup(
            cell_name=cell.name, rows=rows, pin_idx=pin_idx,
            static_code=((pin_idx < 0) * pow3).sum(axis=1) * X,
            pow3=pow3, table=table))
    return lk


def leakage_soa_for(module):
    """The :class:`LeakageSoa` of ``module``, cached on the module (see
    :meth:`repro.netlist.core.Module.derived`)."""
    return module.derived("leakage_soa", lower_leakage)


def lower_soa(module):
    """Lower a flat ``module`` into a :class:`SoaNetlist`.

    Reads the module's :class:`~repro.netlist.traverse.Connectivity`;
    raises :class:`~repro.errors.NetlistError` for hierarchical modules,
    combinational feedback (no levelized order exists) or an unconnected
    gate input.
    """
    conn, rows, _ = level_rows(module)      # raises on loops / hierarchy
    soa = SoaNetlist(module_name=module.name, net_names=conn.net_names,
                     net_index=conn.net_index, const_idx=conn.const_idx,
                     const_val=conn.const_val)
    soa.non_const_nets = len(conn.net_names) - len(conn.const_idx)
    for port in module.input_ports():
        soa.input_ports[port.name] = conn.port_net[port.name]
    for port in module.output_ports():
        soa.output_ports[port.name] = conn.port_net[port.name]

    # -- combinational gate entries, in topological order --------------------
    missing = conn.open_inputs()[rows]
    if missing.any():
        g, k = np.argwhere(missing)[0]
        inst = conn.cells[rows[g]]
        raise NetlistError("instance {} pin {} unconnected".format(
            inst.name, inst.cell.input_names[k]))

    # One truth table per (cell, output pin), in first-use order.
    row, out, kind, kinds, batches = conn.entries()
    bases, flat_tables = [], []
    for cell, pin in kinds:
        bases.append(len(flat_tables))
        flat_tables.extend(compile_cell(cell).tables[pin])
    soa.tables = np.asarray(flat_tables, dtype=np.int8)
    bases = np.asarray(bases, dtype=np.int64)[kind]
    soa.levels = [[] for _ in range(batches[-1][0] + 1 if batches else 0)]
    for level, arity, sel in batches:
        in_idx = conn.in_net[row[sel], :arity].astype(np.int64)
        soa.levels[level].append(CombGroup(
            arity=arity,
            in_idx=in_idx,
            out_idx=out[sel],
            table_base=bases[sel],
            pow3=np.asarray([3 ** j for j in range(arity)], dtype=np.int64),
            in_cols=[np.ascontiguousarray(in_idx[:, j])
                     for j in range(arity)],
        ))

    # -- sequential rows -----------------------------------------------------
    seq = conn.seq_rows
    soa.seq_names = [conn.cells[r].name for r in seq.tolist()]
    soa.seq_d = conn.pin_net(seq, "D")
    soa.seq_ck = conn.pin_net(seq, "CK")
    soa.seq_q = conn.pin_net(seq, "Q")
    soa.seq_en = conn.pin_net(seq, "EN")
    soa.seq_rn = conn.pin_net(seq, "RN")
    return soa
