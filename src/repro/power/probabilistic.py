"""Vectorless activity estimation: signal probabilities and transition
densities.

When no workload vectors exist (early design planning, or the control half
of a design whose datapath is simulated), activity can be estimated by
propagating, under an input-independence assumption:

* ``prob`` -- probability a net is 1;
* ``density`` -- expected toggles per clock cycle.

Each gate's outputs are computed exactly over its own inputs (exhaustive
enumeration of the at-most-3-input cells), with the classic
Boolean-difference formulation for density.  Flip-flops resample per cycle:
``prob(Q) = prob(D)``, ``density(Q) = 2 p (1 - p)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PowerError
from ..netlist.traverse import level_rows
from ..sim.logic import compile_cell
from ..sta.delay import net_caps


@dataclass
class ActivityEstimate:
    """Per-net activity estimates."""

    prob: dict
    density: dict

    def net_prob(self, name):
        """Probability that net ``name`` is logic 1."""
        return self.prob[name]

    def net_density(self, name):
        """Expected toggles of net ``name`` per cycle."""
        return self.density[name]


def _minterm_masks(tables, n):
    """``(one, flip)`` of ``(gates, 3**n)`` ternary truth tables:
    ``one[m, g]`` is set when minterm ``m`` (input ``k`` is bit ``k``)
    drives gate ``g``'s output to 1, and ``flip[i][j, g]`` when toggling
    input ``i`` flips it from the ``j``-th minterm with input ``i`` at 0.
    """
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    code = bits @ 3 ** np.arange(n)
    return tables[:, code].T == 1, [
        (tables[:, code[bits[:, i] == 0]]
         != tables[:, code[bits[:, i] == 0] + 3 ** i]).T for i in range(n)]


def _output_stats(q, dq, one, flip):
    """Exact output probabilities and Boolean-difference densities of a
    batch of gates with ``n`` inputs each.

    ``q`` / ``dq`` are ``(gates, n)`` input probabilities and densities;
    ``one`` and ``flip`` come from :func:`_minterm_masks`.  Each gate
    sees the IEEE operations of the textbook per-gate loop in its
    order: minterm products multiply from input 0 up, and sums add the
    minterms in index order (adding ``0.0`` for a skipped one changes
    nothing), so the result is bit-identical to that loop.
    """
    gates, n = q.shape

    def minterms(skip=None):
        p = np.ones((1, gates))
        for k in range(n):
            if k != skip:
                p = np.concatenate((p * (1.0 - q[:, k]), p * q[:, k]))
        return p

    prob = np.zeros(gates)
    for term in np.where(one, minterms(), 0.0):
        prob += term
    density = np.zeros(gates)
    for i in range(n):
        sens = np.zeros(gates)
        for term in np.where(flip[i], minterms(i), 0.0):
            sens += term
        density += sens * dq[:, i]
    return prob, density


def estimate_activity(module, input_probs=None, input_densities=None,
                      default_prob=0.5, default_density=0.5):
    """Estimate activity for every net of a flat ``module``.

    ``input_probs`` / ``input_densities`` override per-input defaults
    (dict port name -> value).  Returns an :class:`ActivityEstimate`.

    The gates are swept level by level over the module's
    :class:`~repro.netlist.traverse.Connectivity`, each level's gates
    batched by arity (see :func:`_output_stats`).
    """
    input_probs = input_probs or {}
    input_densities = input_densities or {}
    conn = level_rows(module)[0]
    names = conn.net_names
    # One slot per net, plus a last one that unconnected pins read as 0.
    prob = np.full(len(names) + 1, default_prob, dtype=np.float64)
    density = np.full(len(names) + 1, default_density, dtype=np.float64)
    prob[-1] = density[-1] = 0.0

    ports = module.input_ports()
    prob_of = {p.net.name: input_probs.get(p.name, default_prob)
               for p in ports}
    density_of = {p.net.name: input_densities.get(p.name, default_density)
                  for p in ports}
    port_idx = [conn.port_net[p.name] for p in ports]
    prob[port_idx] = list(prob_of.values())
    density[port_idx] = list(density_of.values())
    prob[conn.const_idx] = conn.const_val
    density[conn.const_idx] = 0.0

    # Flip-flop outputs: resample D each cycle.  D's statistics are not
    # known yet (cyclic), so seed with defaults and refine by iteration.
    # A flop whose D is an earlier flop's Q reads the value that flop
    # just took, so each Q takes its value from a resolved source.
    seq_q = conn.pin_net(conn.seq_rows, "Q")
    flops = seq_q[seq_q >= 0]
    prob[flops] = default_prob
    density[flops] = 2 * default_prob * (1 - default_prob)
    source = {}
    for d, q in zip(conn.pin_net(conn.seq_rows, "D").tolist(),
                    seq_q.tolist()):
        if d >= 0 and q >= 0:
            source[q] = source.get(d, d)
    flop_q = np.array(list(source), dtype=np.int64)
    flop_src = np.array(list(source.values()), dtype=np.int64)

    # Gate entries, batched per level by arity.
    row, out_idx, kind, kinds, batches = conn.entries()
    tables = [compile_cell(cell).tables[pin] for cell, pin in kinds]
    ins = conn.in_net[row]
    ins[ins < 0] = len(names)
    plan = [(ins[sel, :n], out_idx[sel]) + _minterm_masks(
        np.array([tables[k] for k in kind[sel].tolist()]), n)
        for _, n, sel in batches]

    for _iteration in range(3):  # a couple of sweeps converge feedback paths
        for in_idx, out, one, flip in plan:
            p_out, d_out = _output_stats(prob[in_idx], density[in_idx],
                                         one, flip)
            prob[out] = p_out
            density[out] = np.minimum(d_out, 1.0)
        p = prob[flop_src]
        prob[flop_q] = p
        density[flop_q] = 2 * p * (1 - p)

    # The estimate's nets, in the order a per-gate walk records them:
    # inputs, constants, flop outputs, then gate outputs in order.
    keys = np.concatenate((conn.const_idx, flops, out_idx))
    named = [names[i] for i in keys.tolist()]
    prob_of.update(zip(named, prob[keys].tolist()))
    density_of.update(zip(named, density[keys].tolist()))
    if not prob_of:
        raise PowerError("module has no nets to estimate")
    return ActivityEstimate(prob=prob_of, density=density_of)


def activity_for(module):
    """The default-argument :func:`estimate_activity` of ``module``,
    cached on the module (see :meth:`repro.netlist.core.Module.derived`);
    treat it as read-only."""
    return module.derived("activity", estimate_activity)


@dataclass
class SwitchedCapacitance:
    """Per-net switched capacitance x activity: the vdd-independent half
    of :func:`vectorless_switching`.

    ``rows`` holds ``(net_name, cap_farads, density)`` in
    ``module.nets()`` order for every non-constant net with positive
    estimated density; ``cap`` is the net's load (wire + pin) plus its
    driver's internal capacitance.  Activity estimation, the expensive
    part, is read from the module's cache (:func:`activity_for`);
    :meth:`evaluate` only prices the rows at a supply.  The table holds
    names and floats only, so it pickles into the per-circuit artifact
    bundle.
    """

    rows: list = field(default_factory=list)

    @classmethod
    def compile(cls, module, library):
        """Estimate activity and price every net's load."""
        density = activity_for(module).density
        rows = []
        for net, cap in zip(module.nets(), net_caps(module, library)):
            if net.is_const:
                continue
            d = density.get(net.name, 0.0)
            if d > 0:
                rows.append((net.name, cap, d))
        return cls(rows=rows)

    def evaluate(self, library, vdd=None):
        """``(e_cycle, by_net)`` at ``vdd`` (default nominal)."""
        vdd = library.vdd_nom if vdd is None else vdd
        half_v2 = 0.5 * vdd * vdd
        by_net = {}
        e_cycle = 0.0
        for name, cap, density in self.rows:
            energy = half_v2 * cap * density
            by_net[name] = energy
            e_cycle += energy
        return e_cycle, by_net


def vectorless_switching(module, library, vdd=None):
    """Vectorless per-cycle switched energy: ``(e_cycle, by_net)``.

    The probabilistic activity estimate priced against each net's load
    (wire + pin + driver-internal capacitance) at ``vdd`` (default: the
    library's characterisation voltage) -- a :class:`SwitchedCapacitance`
    compiled and evaluated once.  Adequate for trend studies and
    reports when no workload trace exists; measured activity needs a
    testbench (see :mod:`repro.power.dynamic`).
    """
    table = SwitchedCapacitance.compile(module, library)
    return table.evaluate(library, vdd)
