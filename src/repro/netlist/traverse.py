"""Netlist traversal: classification, connectivity, levelization.

:class:`Connectivity` is the integer index of one module generation
(:func:`connectivity_for`).  :func:`topological_instances`, a Kahn sweep
over its fan-out CSR, is the one walk that orders and levels a module's
combinational logic; :func:`levels_for` caches its result on the module
(see :meth:`repro.netlist.core.Module.derived`).

These helpers operate on *flat* modules (library-cell instances only); pass
hierarchical designs through :meth:`repro.netlist.core.Design.flatten`
first.  A submodule instance encountered here raises
:class:`~repro.errors.NetlistError` rather than silently producing a wrong
order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from types import MappingProxyType

import numpy as np

from ..errors import NetlistError
from ..obs.trace import layer
from ..tech.library import CellKind

#: Kinds evaluated combinationally (gates, buffers, isolation, clock
#: buffers, ties).
COMB_KINDS = frozenset((CellKind.COMBINATIONAL, CellKind.BUFFER,
                        CellKind.CLOCK, CellKind.ISOLATION, CellKind.TIE))


def _require_flat(module):
    for inst in module.instances():
        if not inst.is_cell:
            raise NetlistError(
                "module {} is hierarchical (instance {}); flatten first"
                .format(module.name, inst.name)
            )


def combinational_instances(module):
    """Cell instances evaluated combinationally (gates, buffers, isolation,
    clock buffers, ties)."""
    return [i for i in module.cell_instances() if i.cell.kind in COMB_KINDS]


def sequential_instances(module):
    """Flip-flop/latch instances."""
    return [
        i
        for i in module.cell_instances()
        if i.cell.kind is CellKind.SEQUENTIAL
    ]


class Connectivity:
    """The integer connectivity of one module generation.

    Nets are numbered in ``module.nets()`` order, cell instances are
    *rows* in ``module.cell_instances()`` order (``cells``), and
    ``cell_code`` indexes each row's cell in ``cell_types``.  Per net:
    ``net_names``, ``net_index`` (built on first use), ``is_const``
    (``const_idx`` / ``const_val``), ``has_loads``, ``driven`` and
    ``is_port``; ``port_net`` maps port names.  Per row: ``in_net`` /
    ``out_net``, the net of each pin in ``input_names`` /
    ``output_names`` order (``-1`` when open or a pad), and ``n_in``.
    ``comb_rows`` / ``seq_rows`` are the combinational and sequential
    rows; gate ``g``'s sinks are ``fanout_dst[fanout_ptr[g]:
    fanout_ptr[g + 1]]`` (positions in ``comb_rows``, in output-pin then
    load order).  Arrays are read-only; hierarchical instances are not
    rows.
    """

    def __init__(self, module):
        self.module_name = module.name
        nets = module.nets()
        self.net_names = [net.name for net in nets]
        at = {net: i for i, net in enumerate(nets)}.get
        #: Port name -> net index, in declaration order.
        self.port_net = {port.name: at(port.net) for port in module.ports}
        self.is_const = np.array([net.const_value is not None
                                  for net in nets], dtype=bool)
        self.const_idx = np.flatnonzero(self.is_const)
        self.const_val = np.array([net.const_value for net in nets
                                   if net.const_value is not None],
                                  dtype=np.int8)
        self.has_loads = np.array([bool(net.loads) for net in nets],
                                  dtype=bool)
        self.driven = np.array([net.driver is not None for net in nets],
                               dtype=bool) | self.is_const
        self.is_port = np.zeros(len(nets), dtype=bool)
        self.is_port[list(self.port_net.values())] = True

        cells = self.cells = module.cell_instances()
        types = {id(inst.cell): inst.cell for inst in cells}
        self.cell_types = list(types.values())
        code_of = {key: code for code, key in enumerate(types)}
        cell_code = [code_of[id(inst.cell)] for inst in cells]
        # Compact index arrays (int32): every generation keeps its own.
        self.cell_code = np.array(cell_code, dtype=np.int32)
        self.n_in = np.array([len(c.input_names) for c in self.cell_types],
                             dtype=np.int32)[self.cell_code]

        # One pass over the rows: pin nets (names padded with ``None``,
        # which no pin is called, to the table widths) and the fan-out
        # of the combinational rows.
        w_in = max((len(c.input_names) for c in self.cell_types), default=0)
        w_out = max((len(c.output_names) for c in self.cell_types),
                    default=0)
        layout = [(c.input_names + (None,) * (w_in - len(c.input_names)),
                   c.output_names + (None,) * (w_out - len(c.output_names)),
                   c.kind in COMB_KINDS) for c in self.cell_types]
        self.comb_rows = np.flatnonzero(np.array(
            [comb for _, _, comb in layout], dtype=bool)[self.cell_code])
        gate_of = {cells[r]: g
                   for g, r in enumerate(self.comb_rows.tolist())}.get
        flat_in, flat_out, ptr, dst = [], [], [0], []
        for inst, code in zip(cells, cell_code):
            ins, outs, comb = layout[code]
            get = inst.connections.get
            flat_in += map(at, map(get, ins), repeat(-1))
            flat_out += map(at, map(get, outs), repeat(-1))
            if comb:
                for net in map(get, outs):
                    for load in () if net is None else net.loads:
                        g = gate_of(load[0]) if isinstance(load, tuple) \
                            else None
                        if g is not None:
                            dst.append(g)
                ptr.append(len(dst))
        self.in_net = np.array(flat_in, dtype=np.int32).reshape(
            len(cells), w_in)
        self.out_net = np.array(flat_out, dtype=np.int32).reshape(
            len(cells), w_out)

        self.fanout_ptr = np.array(ptr, dtype=np.int32)
        self.fanout_dst = np.array(dst, dtype=np.int32)
        self.seq_rows = np.flatnonzero(np.array(
            [c.kind is CellKind.SEQUENTIAL for c in self.cell_types],
            dtype=bool)[self.cell_code])
        self._levels = None

    @cached_property
    def net_index(self):
        """Net name -> net index."""
        return {name: i for i, name in enumerate(self.net_names)}

    def open_inputs(self):
        """``(rows, width)`` mask of the unconnected input pins."""
        return (self.in_net < 0) \
            & (np.arange(self.in_net.shape[1]) < self.n_in[:, None])

    def pin_net(self, rows, name):
        """Net index of pin ``name`` of each of ``rows``; ``-1`` where
        the pin is unconnected or the cell has no such pin."""
        nets = np.full(len(rows), -1, dtype=np.int64)
        for table, names in ((self.in_net, "input_names"),
                             (self.out_net, "output_names")):
            col = np.array([getattr(c, names).index(name)
                            if name in getattr(c, names) else -1
                            for c in self.cell_types],
                           dtype=np.int64)[self.cell_code[rows]]
            has = col >= 0
            nets[has] = table[rows[has], col[has]]
        return nets

    def levels(self):
        """``(rows, level)``: the combinational rows in evaluation order
        and their logic levels, memoised; raises :class:`NetlistError`
        on a loop.

        A level-synchronous Kahn sweep: a level releases its fan-out
        edges in order, and a sink whose last fan-in edge was released
        joins the next level, ranked by that edge's position -- exactly
        the order in which a FIFO Kahn walk appends it.
        """
        if self._levels is None:
            ptr, dst = self.fanout_ptr, self.fanout_dst
            n = len(self.comb_rows)
            fanin = np.bincount(dst, minlength=n)
            level = np.zeros(n, dtype=np.int32)
            frontier = np.flatnonzero(fanin == 0)
            order = [frontier]
            while frontier.size:
                level[frontier] = len(order) - 1
                starts = ptr[frontier]
                counts = ptr[frontier + 1] - starts
                # The frontier's fan-out edges, in processing order.
                sinks = dst[np.arange(counts.sum()) + np.repeat(
                    starts - (np.cumsum(counts) - counts), counts)]
                fanin -= np.bincount(sinks, minlength=n)
                last = np.full(n, -1, dtype=np.int64)
                np.maximum.at(last, sinks, np.arange(len(sinks)))
                ready = np.flatnonzero((fanin == 0) & (last >= 0))
                frontier = ready[np.argsort(last[ready])]
                order.append(frontier)
            order = np.concatenate(order)
            if len(order) != n:
                stuck = self.comb_rows[np.flatnonzero(fanin > 0)[:8]]
                raise NetlistError(
                    "combinational loop in module {} involving {}".format(
                        self.module_name, ", ".join(
                            self.cells[r].name for r in stuck.tolist())))
            self._levels = (self.comb_rows[order].astype(np.int32),
                            level[order])
        return self._levels

    def entries(self):
        """The gate entries of the levelized logic:
        ``(row, out, kind, kinds, batches)``.

        One entry per connected output pin of each combinational row,
        in evaluation order, output pins in declaration order: ``row``
        and ``out`` (its net) per entry; ``kind`` indexes ``kinds``, the
        distinct ``(cell, output pin name)`` pairs in first-use order;
        ``batches`` lists ``(level, arity, entries)`` in increasing
        ``(level, arity)``, each index array in entry order.
        """
        rows, level = self.levels()
        outs = self.out_net[rows]
        gate, slot = np.nonzero(outs >= 0)
        row = rows[gate]
        width = outs.shape[1]
        first_use = {}
        kind = np.array([first_use.setdefault(key, len(first_use))
                         for key in (self.cell_code[row] * width
                                     + slot).tolist()], dtype=np.int64)
        kinds = [(self.cell_types[key // width],
                  self.cell_types[key // width].output_names[key % width])
                 for key in first_use]
        level, arity = level[gate], self.n_in[row]
        bucket = level * (self.in_net.shape[1] + 1) + arity
        ranked = np.argsort(bucket, kind="stable")
        batches = [(int(level[sel[0]]), int(arity[sel[0]]), sel)
                   for sel in np.split(ranked, np.flatnonzero(
                       np.diff(bucket[ranked])) + 1)] if len(ranked) else []
        return row, outs[gate, slot].astype(np.int64), kind, kinds, batches


def connectivity_for(module):
    """The :class:`Connectivity` of ``module``'s current generation,
    built once and cached on the module (see
    :meth:`repro.netlist.core.Module.derived`)."""
    return module.derived("connectivity", Connectivity)


@layer("netlist.levelize")
def topological_instances(module):
    """``(order, level_of)``: combinational instances in evaluation
    (topological) order, and each one's logic level (longest distance,
    in gates, from a source) by instance name.

    Sources are input ports, constants and sequential outputs.  Raises
    :class:`NetlistError` when a combinational loop prevents a full order.
    This is the uncached walk; analyses read :func:`levels_for`.
    """
    _require_flat(module)
    conn = connectivity_for(module)
    rows, level = conn.levels()
    order = [conn.cells[r] for r in rows.tolist()]
    return order, dict(zip([inst.name for inst in order], level.tolist()))


def levels_for(module):
    """``(order, level_of)`` of a flat module, cached on it: the
    combinational instances in topological order, and each one's logic
    level (longest distance, in gates, from a source) by instance name.

    Every analysis that needs an evaluation order reads it here, so one
    module generation is walked once.  A loop or a hierarchy error
    raises on every call (a failed walk is not cached).  Treat both
    values as read-only.
    """
    return module.derived("levels", topological_instances)


def level_rows(module):
    """``(conn, rows, level)``: the module's :class:`Connectivity`, and
    the :func:`levels_for` order as index rows with their levels."""
    levels_for(module)
    conn = connectivity_for(module)
    return (conn,) + conn.levels()


def levelize(module):
    """Read-only view mapping each combinational instance name to its
    logic level (see :func:`levels_for`)."""
    return MappingProxyType(levels_for(module)[1])
