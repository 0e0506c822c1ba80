"""Struct-of-arrays netlist lowering for the levelized gate simulator.

:func:`lower_soa` walks a flat module once and rebuilds it as dense
integer-indexed arrays: every net becomes an index into a value vector,
every combinational (instance, output pin) pair becomes one *gate entry*
with an ``int8`` ternary truth table in a shared flat table array, and
the entries are ranked into dependency levels
(:func:`repro.netlist.traverse.levels_for`).  Each level is one
:class:`Level`, a padded operand table, so a whole level of a
net-major ``(nets, rows)`` value matrix settles as one fused gather::

    keys = base + sum_k V[cols[k]] * 3**k   # (gates, rows) ternary codes
    V[out] = tables[keys]                   # one gather per level

A *program* is a list of levels: :attr:`SoaNetlist.levels` is the full
schedule, and :meth:`SoaNetlist.cone` cuts the program of a fan-out cone
(a clock net, an input bus, the flop outputs), so a phase that perturbs
few nets settles only what they reach.  :meth:`SoaNetlist.settle` runs
any program over any number of rows; a single row ``r`` settles as
``r[:, None]``.

:func:`lower_leakage` walks the cell instances once into a
:class:`LeakageSoa` -- per-instance base-leakage arrays plus, for every
cell with Liberty-style ``leakage_states``, a dense state table indexed
by the packed ternary code of its input-pin values -- so state-dependent
leakage over a whole co-sim trace is one gather per cell group instead
of a per-cycle netlist walk
(:func:`repro.power.leakage.state_leakage_trace`).

The lowered form holds only names, indices and arrays -- no ``Net`` /
``Instance`` / ``Cell`` references -- so it pickles into the artifact
cache and ships to worker processes unchanged; a level pickles as its
``int32`` operand table alone (see :meth:`Level.fused`).  Combinational
feedback makes a levelized schedule impossible, and an unconnected gate
input has no value to gather; :func:`lower_soa` then raises
:class:`~repro.errors.NetlistError`, which every simulation entry point
re-raises (see :mod:`repro.sim.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import NetlistError
from ..obs.trace import layer
from ..tech.library import CellKind
from ..sim.logic import X, compile_cell
from .traverse import connectivity_for, level_rows

#: Operand slot of :attr:`Level.cols` that a narrower gate leaves empty.
PAD = -1


@dataclass
class Level:
    """One dependency level of a settle program: its gates, whatever
    their arity, padded to the widest.

    ``cols`` is ``(A, gates)`` ``int32`` operand net indices (operand
    ``k`` in :class:`~repro.sim.logic.CompiledCell` order, weighted
    ``3**k``; :data:`PAD` past a gate's arity), ``base`` each gate's
    truth-table offset in :attr:`SoaNetlist.tables` and ``out`` its
    output net.  A tie cell is all pads: its key is ``base``.
    """

    cols: np.ndarray
    base: np.ndarray
    out: np.ndarray

    def fused(self, key):
        """``(cols, weights, base, out)``, the gather form
        :meth:`SoaNetlist.settle` runs, with keys of dtype ``key``: the
        operand indices with pads reading net 0, their ``3**k`` weights
        (``0`` for pads, which then add nothing to the key) and ``base``
        as a ``(gates, 1)`` column.  Derived on first use and kept out
        of the pickle."""
        memo = self.__dict__.get("_fused")
        if memo is None or memo[1].dtype != key:
            pad = self.cols == PAD
            pow3 = 3 ** np.arange(len(self.cols))[:, None]
            memo = self._fused = (
                np.where(pad, 0, self.cols).astype(np.intp),
                np.where(pad, 0, pow3).astype(key)[:, :, None],
                self.base.astype(key)[:, None],
                self.out.astype(np.intp))
        return memo

    def select(self, keep):
        """The level cut to the gates of boolean mask ``keep``, its
        padding trimmed to their widest arity."""
        cols = self.cols[:, keep]
        arity = int((cols != PAD).sum(axis=0).max(initial=0))
        return Level(np.ascontiguousarray(cols[:arity]), self.base[keep],
                     self.out[keep])

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_fused", None)
        return state


class _NetIndexed:
    """``net_index`` (name -> index), derived from ``net_names`` on first
    use and kept out of the pickle."""

    @cached_property
    def net_index(self):
        return {name: i for i, name in enumerate(self.net_names)}

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("net_index", None)
        return state


@dataclass
class SoaNetlist(_NetIndexed):
    """A flat module lowered to struct-of-arrays form."""

    module_name: str = ""
    #: Net index space: ``net_names[i]`` is the name of net ``i``.
    net_names: list = field(default_factory=list)
    const_idx: np.ndarray = None
    const_val: np.ndarray = None
    #: Port name -> net index, in declaration order.
    input_ports: dict = field(default_factory=dict)
    output_ports: dict = field(default_factory=dict)
    #: The full settle program: one :class:`Level` per dependency
    #: level, each reading only nets settled by the levels before it.
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

    @property
    def key_dtype(self):
        """The truth-table key dtype: ``int16`` while every key fits."""
        return np.int16 if self.tables.size < 2 ** 15 else np.int32

    def initial_values(self):
        """The pre-simulation value vector: all-X except constants."""
        values = np.full(self.n_nets, X, dtype=np.int8)
        if len(self.const_idx):
            values[self.const_idx] = self.const_val
        return values

    def cone(self, sources):
        """The program of the transitive fan-out of ``sources`` (net
        indices; negative ones are ignored).

        Only gates whose fan-in cone reaches a source net are kept, so a
        phase that perturbs few nets (a clock edge, an input change)
        settles by evaluating just the affected cone.  Starting from a
        settled state this computes the same fixed point as a full pass.
        """
        # Slot ``n_nets`` stands for pads and absent pins: never dirty.
        dirty = np.zeros(self.n_nets + 1, dtype=bool)
        sources = np.asarray(sources, dtype=np.int64)
        dirty[sources[sources >= 0]] = True
        program = []
        for level in self.levels:
            hit = dirty[level.cols].any(axis=0)
            if hit.all():
                program.append(level)
            elif hit.any():
                program.append(level.select(hit))
            else:
                continue
            dirty[program[-1].out] = True
        return program

    def settle(self, values, program=None):
        """Settle the combinational nets of ``values`` in place.

        ``values`` is a net-major ``(n_nets, rows)`` ``int8`` matrix
        (a single row ``r`` as ``r[:, None]``); each level of
        ``program`` (default: the full :attr:`levels`) evaluates as one
        fused gather over every row, so every net transitions at most
        once -- the functional (hazard-free) fixed point of the sources
        (ports, constants, flop outputs).  Pass a :meth:`cone` to settle
        only what a change reaches.
        """
        tables, key = self.tables, self.key_dtype
        for level in self.levels if program is None else program:
            cols, weights, base, out = level.fused(key)
            # (A, gates, rows) operands -> (gates, rows) table keys.
            keys = np.add.reduce(values.take(cols, axis=0) * weights,
                                 axis=0, dtype=key)
            keys += base
            values[out] = tables.take(keys)


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
class LeakageSoa(_NetIndexed):
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


@layer("netlist.lower_leakage")
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
                    const_idx=conn.const_idx, const_val=conn.const_val)
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


@layer("netlist.lower_soa")
def lower_soa(module):
    """Lower a flat ``module`` into a :class:`SoaNetlist`.

    Reads the module's :class:`~repro.netlist.traverse.Connectivity`;
    raises :class:`~repro.errors.NetlistError` for hierarchical modules,
    combinational feedback (no levelized order exists) or an unconnected
    gate input.
    """
    conn, rows, _ = level_rows(module)      # raises on loops / hierarchy
    soa = SoaNetlist(module_name=module.name, net_names=conn.net_names,
                     const_idx=conn.const_idx, const_val=conn.const_val)
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
    bases = np.asarray(bases, dtype=np.int32)[kind]
    out = out.astype(np.int32)
    # One padded operand table per level ((level, arity) batches come
    # in increasing order, so a level's batches are consecutive).
    by_level = {}
    for level, arity, sel in batches:
        by_level.setdefault(level, []).append((arity, sel))
    for batch in by_level.values():
        sel = np.concatenate([sel for _, sel in batch])
        arity = batch[-1][0]
        soa.levels.append(Level(
            cols=np.ascontiguousarray(conn.in_net[row[sel], :arity].T),
            base=bases[sel], out=out[sel]))

    # -- sequential rows -----------------------------------------------------
    seq = conn.seq_rows
    soa.seq_names = [conn.cells[r].name for r in seq.tolist()]
    soa.seq_d = conn.pin_net(seq, "D")
    soa.seq_ck = conn.pin_net(seq, "CK")
    soa.seq_q = conn.pin_net(seq, "Q")
    soa.seq_en = conn.pin_net(seq, "EN")
    soa.seq_rn = conn.pin_net(seq, "RN")
    return soa
