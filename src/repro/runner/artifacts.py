"""Per-circuit artifact bundles: precompute once, evaluate many.

Every grid point of a sweep used to walk the netlist from scratch --
re-running arrival-time propagation, re-deriving per-cell leakage and
re-pricing per-net switched capacitance -- even though only the operating
point (duty, VDD, frequency) changes between points.  This module splits
that work along the paper's own structure: everything that depends only on
the *circuit* (topological order, per-cell nominal leakage, per-net
capacitance/activity, the SCPG domain partition, the compiled STA
program) is computed once into a :class:`CircuitArtifacts` bundle;
everything that depends on the *operating point* is a cheap table
evaluation against that bundle.

The contract is **bit-identical results**: each table's ``evaluate``
replays the exact floating-point operations of the module it shadows
(:mod:`repro.sta.analysis`, :mod:`repro.power.leakage`,
:mod:`repro.power.probabilistic`, :meth:`repro.scpg.power_model.
ScpgPowerModel.from_scpg_design`) -- same accumulation order, same
tie-breaking, same edge-case branches -- hoisting only the circuit-shaped
subexpressions (``intrinsic + R * C_load``) that the originals themselves
evaluate before applying the voltage scale.  ``tests/runner/
test_artifacts.py`` asserts equality, not closeness.

Bundles are keyed by the owning handle's content fingerprint (netlist +
library), so editing the circuit or the library *changes the key* and
stale bundles are simply never read again.  An :class:`ArtifactStore`
memoises bundles in-process and shares them across processes through the
same :class:`~repro.runner.sqlite_store.SqliteStore` the point results
use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import RunnerError
from ..obs.trace import NULL_TRACER
from .journal import NULL_JOURNAL
from .kernel import Kernel, register_kernel

#: Cache-key namespace (bump when any table's compiled layout changes).
#: v3: LeakageTable switched from per-instance tuple rows to aligned
#: arrays with grouped accumulation indices (vdd-axis vectorization).
ARTIFACT_SCHEMA = "circuit-artifacts-v3"


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

@dataclass
class LeakageTable:
    """Per-cell nominal leakage, compiled from one flat module.

    ``base`` / ``is_header`` are aligned per-instance arrays in
    ``module.cell_instances()`` order -- the exact iteration order of
    :func:`repro.power.leakage.leakage_power` -- and ``kind_rows`` /
    ``cell_rows`` keep first-occurrence-ordered index groups, so the
    strictly-sequential ``np.add.accumulate`` totals replay the walk's
    float additions bit-for-bit.  :meth:`evaluate_axis` broadcasts the
    same arithmetic across a whole supply axis at once (the
    :class:`LeakageAxisKernel` batch path).
    """

    base: np.ndarray = None
    is_header: np.ndarray = None
    #: ``[(CellKind, instance index array)]`` in first-occurrence order.
    kind_rows: list = field(default_factory=list)
    #: ``[(cell name, instance index array)]`` in first-occurrence order.
    cell_rows: list = field(default_factory=list)

    @classmethod
    def compile(cls, module):
        """Snapshot the voltage-independent leakage inputs of ``module``."""
        from ..tech.library import CellKind

        base, is_header = [], []
        kind_rows, cell_rows = {}, {}
        kind_order, cell_order = [], []
        for row, inst in enumerate(module.cell_instances()):
            cell = inst.cell
            base.append(cell.leakage)
            is_header.append(cell.kind is CellKind.HEADER)
            if cell.kind not in kind_rows:
                kind_rows[cell.kind] = []
                kind_order.append(cell.kind)
            kind_rows[cell.kind].append(row)
            if cell.name not in cell_rows:
                cell_rows[cell.name] = []
                cell_order.append(cell.name)
            cell_rows[cell.name].append(row)
        return cls(
            base=np.asarray(base, dtype=np.float64),
            is_header=np.asarray(is_header, dtype=bool),
            kind_rows=[(k, np.asarray(kind_rows[k], dtype=np.int64))
                       for k in kind_order],
            cell_rows=[(n, np.asarray(cell_rows[n], dtype=np.int64))
                       for n in cell_order],
        )

    def evaluate_axis(self, library, vdds, temp_c=None):
        """One :class:`~repro.power.leakage.LeakageReport` per supply.

        ``vdds`` entries of ``None`` mean nominal.  The ``(n_vdd,
        n_inst)`` value matrix is accumulated row-wise, so every report
        equals a scalar :meth:`evaluate` at that supply exactly.
        """
        from ..power.leakage import LeakageReport

        vdds = [library.vdd_nom if v is None else v for v in vdds]
        if not vdds:
            return []
        n = 0 if self.base is None else len(self.base)
        if n == 0:
            return [LeakageReport(vdd=v) for v in vdds]
        svt = np.asarray(
            [library.leakage_scale(v, "svt", temp_c) for v in vdds])
        hvt = np.asarray(
            [library.leakage_scale(v, "hvt", temp_c) for v in vdds])
        scale = np.where(self.is_header[np.newaxis, :],
                         hvt[:, np.newaxis], svt[:, np.newaxis])
        vals = self.base[np.newaxis, :] * scale
        totals = np.add.accumulate(vals, axis=1)[:, -1]
        kind_tot = [(kind, np.add.accumulate(vals[:, rows], axis=1)[:, -1])
                    for kind, rows in self.kind_rows]
        cell_tot = [(name, np.add.accumulate(vals[:, rows], axis=1)[:, -1])
                    for name, rows in self.cell_rows]
        reports = []
        for i, v in enumerate(vdds):
            report = LeakageReport(vdd=v, total=float(totals[i]))
            for kind, tot in kind_tot:
                report.by_kind[kind] = float(tot[i])
            for name, tot in cell_tot:
                report.by_cell[name] = float(tot[i])
            reports.append(report)
        return reports

    def evaluate(self, library, *, vdd=None, temp_c=None):
        """:class:`~repro.power.leakage.LeakageReport` at ``vdd``.

        Bit-identical to ``leakage_power(module, library, vdd)`` (the
        stateless path; state-dependent leakage needs the netlist).
        Every table shares this keyword-only operating-point signature.
        """
        return self.evaluate_axis(library, [vdd], temp_c=temp_c)[0]


class LeakageAxisKernel(Kernel):
    """Supply-axis batch evaluation of a :class:`LeakageTable`.

    Points are VDD floats (``None`` for nominal); results are
    :class:`~repro.power.leakage.LeakageReport` objects identical to
    point-at-a-time ``table.evaluate`` calls.  Registered for exactly
    :class:`LeakageTable` like every kernel in
    :mod:`repro.runner.kernel`.
    """

    name = "leakage-axis"

    def applies(self, table):
        return type(table) is LeakageTable

    def evaluate(self, table, points, library=None):
        if library is None:
            raise RunnerError(
                "leakage-axis kernel needs a library "
                "(compile_kernel(table, library))")
        return table.evaluate_axis(library, list(points))


register_kernel(LeakageTable, LeakageAxisKernel())


# ---------------------------------------------------------------------------
# switching
# ---------------------------------------------------------------------------

@dataclass
class SwitchedCapTable:
    """Per-net switched capacitance x activity, compiled once.

    ``rows`` holds ``(net_name, cap_farads, density)`` in ``module.nets()``
    order with the same skip conditions as :func:`repro.power.
    probabilistic.vectorless_switching`; ``cap`` already includes the
    driver's internal capacitance, summed with the original's operation
    order.  Activity estimation (the expensive part) runs at compile time
    only -- it is voltage-independent.
    """

    rows: list = field(default_factory=list)

    @classmethod
    def compile(cls, module, library):
        """Run activity estimation and price every net's load."""
        from ..power.probabilistic import estimate_activity
        from ..sta.delay import net_load

        est = estimate_activity(module)
        rows = []
        for net in module.nets():
            if net.is_const:
                continue
            density = est.density.get(net.name, 0.0)
            if density <= 0:
                continue
            cap = net_load(net, library)
            driver = net.driver
            if isinstance(driver, tuple) and driver[0].is_cell:
                cap += driver[0].cell.c_internal
            rows.append((net.name, cap, density))
        return cls(rows=rows)

    def evaluate(self, library, *, vdd=None, temp_c=None):
        """``(e_cycle, by_net)`` -- bit-identical to
        ``vectorless_switching(module, library, vdd)``.

        ``temp_c`` is accepted for signature uniformity and ignored:
        switched capacitance is temperature-independent in this model.
        """
        vdd = library.vdd_nom if vdd is None else vdd
        half_v2 = 0.5 * vdd * vdd
        by_net = {}
        e_cycle = 0.0
        for name, cap, density in self.rows:
            energy = half_v2 * cap * density
            by_net[name] = energy
            e_cycle += energy
        return e_cycle, by_net


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

@dataclass
class TimingTable:
    """A compiled STA program: the netlist walk flattened to index ops.

    Nets are interned to dense indices; every per-edge delay is stored as
    its nominal base ``intrinsic + R * C_load`` (the parenthesised
    subexpression :meth:`repro.tech.library.Cell.delay` evaluates before
    applying the voltage scale), so ``evaluate(vdd)`` replays the exact
    arithmetic of :class:`repro.sta.analysis.TimingAnalysis.run` --
    including arrival tie-breaking, capture selection and the critical-path
    trace -- without touching the netlist.
    """

    module_name: str = ""
    net_names: list = field(default_factory=list)
    #: [(net_idx, port_name)] in input_ports() order.
    port_launches: list = field(default_factory=list)
    #: [(q_net_idx, base_c2q, inst_name)] in cell_instances() order.
    seq_launches: list = field(default_factory=list)
    #: [(inst_name, (in_idx, ...), [(out_idx, base_delay), ...])] topo order.
    steps: list = field(default_factory=list)
    #: [(hold_nom, d_idx | None, setup_nom, inst_name)] for every seq cell.
    seq_captures: list = field(default_factory=list)
    #: [(net_idx, port_name)] in output_ports() order.
    port_captures: list = field(default_factory=list)
    #: inst_name -> (in_idx, ...) for critical-path tracing.
    trace_inputs: dict = field(default_factory=dict)

    @classmethod
    def compile(cls, module, library):
        """Flatten the STA walk over ``module`` into an index program."""
        from ..netlist.traverse import topological_instances
        from ..sta.delay import net_load
        from ..tech.library import CellKind

        index = {}
        names = []

        def intern(net):
            key = id(net)
            idx = index.get(key)
            if idx is None:
                idx = len(names)
                index[key] = idx
                names.append(net.name)
            return idx

        port_launches = [
            (intern(port.net), port.name) for port in module.input_ports()
        ]
        seq_launches = []
        for inst in module.cell_instances():
            if inst.cell.kind is CellKind.SEQUENTIAL:
                q_net = inst.connections.get("Q")
                if q_net is None:
                    continue
                base = inst.cell.intrinsic_delay \
                    + inst.cell.drive_resistance * net_load(q_net, library)
                seq_launches.append((intern(q_net), base, inst.name))

        steps = []
        for inst in topological_instances(module):
            in_idxs = []
            for pin_name in inst.input_pins():
                net = inst.connections.get(pin_name)
                if net is None or net.is_const:
                    continue
                in_idxs.append(intern(net))
            outs = []
            for pin_name in inst.output_pins():
                net = inst.connections.get(pin_name)
                if net is None:
                    continue
                base = inst.cell.intrinsic_delay \
                    + inst.cell.drive_resistance * net_load(net, library)
                outs.append((intern(net), base))
            steps.append((inst.name, tuple(in_idxs), outs))

        seq_captures = []
        for inst in module.cell_instances():
            if inst.cell.kind is not CellKind.SEQUENTIAL:
                continue
            d_net = inst.connections.get("D")
            seq_captures.append((
                inst.cell.hold,
                None if d_net is None else intern(d_net),
                inst.cell.setup,
                inst.name,
            ))
        port_captures = [
            (intern(port.net), port.name) for port in module.output_ports()
        ]

        return cls(
            module_name=module.name,
            net_names=names,
            port_launches=port_launches,
            seq_launches=seq_launches,
            steps=steps,
            seq_captures=seq_captures,
            port_captures=port_captures,
            trace_inputs={name: idxs for name, idxs, _ in steps},
        )

    def evaluate(self, library, *, vdd=None, temp_c=None):
        """:class:`~repro.sta.analysis.TimingResult` at ``vdd`` --
        bit-identical to ``TimingAnalysis(module, library).run(vdd)``."""
        from ..errors import TimingError
        from ..sta.analysis import TimingResult

        vdd = library.vdd_nom if vdd is None else vdd
        scale = library.delay_scale(vdd, temp_c)

        arrivals = {}
        trace = {}

        def arrive(idx, at, at_min, source):
            worst, best = arrivals.get(idx, (None, None))
            if worst is None or at > worst:
                trace[idx] = source
                worst = at
            best = at_min if best is None else min(best, at_min)
            arrivals[idx] = (worst, best)

        for idx, port_name in self.port_launches:
            arrive(idx, 0.0, 0.0, ("port", port_name))
        for idx, base, inst_name in self.seq_launches:
            c2q = base * scale
            arrive(idx, c2q, c2q, ("clk2q", inst_name))

        for inst_name, in_idxs, outs in self.steps:
            worst_in = 0.0
            best_in = None
            have_input = False
            for idx in in_idxs:
                entry = arrivals.get(idx)
                if entry is None:
                    continue
                have_input = True
                worst_in = max(worst_in, entry[0])
                best_in = entry[1] if best_in is None \
                    else min(best_in, entry[1])
            for idx, base in outs:
                d = base * scale
                base_w = worst_in if have_input else 0.0
                base_b = best_in if (have_input and best_in is not None) \
                    else 0.0
                arrive(idx, base_w + d, base_b + d, ("cell", inst_name))

        eval_delay = 0.0
        min_path = float("inf")
        setup = 0.0
        hold = 0.0
        worst_capture = None
        for hold_nom, d_idx, setup_nom, inst_name in self.seq_captures:
            hold = max(hold, hold_nom * scale)
            if d_idx is None:
                continue
            entry = arrivals.get(d_idx)
            if entry is None:
                continue
            if entry[0] > eval_delay:
                eval_delay = entry[0]
                setup = setup_nom * scale
                worst_capture = ("{}/D".format(inst_name), d_idx)
            min_path = min(min_path, entry[1])
        for idx, port_name in self.port_captures:
            entry = arrivals.get(idx)
            if entry is None:
                continue
            if entry[0] > eval_delay:
                eval_delay = entry[0]
                setup = 0.0
                worst_capture = ("port {}".format(port_name), idx)
            min_path = min(min_path, entry[1])

        if worst_capture is None:
            raise TimingError(
                "module {} has no capture points".format(self.module_name)
            )
        if min_path == float("inf"):
            min_path = 0.0

        path = self._trace_path(worst_capture, arrivals, trace)
        return TimingResult(
            eval_delay=eval_delay,
            setup=setup,
            hold=hold,
            min_path_delay=min_path,
            critical_path=path,
            vdd=vdd,
        )

    def _trace_path(self, capture, arrivals, trace):
        from ..sta.analysis import TimingPath

        name, idx = capture
        points = []
        seen = set()
        net = idx
        while net is not None and net in trace and net not in seen:
            seen.add(net)
            kind, inst_name = trace[net]
            at = arrivals[net][0]
            points.append((inst_name, self.net_names[net], at))
            if kind != "cell":
                break
            best = None
            for candidate in self.trace_inputs.get(inst_name, ()):
                entry = arrivals.get(candidate)
                if entry is None:
                    continue
                if best is None or entry[0] > arrivals[best][0]:
                    best = candidate
            net = best
        points.reverse()
        return TimingPath(
            delay=arrivals[capture[1]][0],
            points=points,
            capture=name,
        )


# ---------------------------------------------------------------------------
# the levelized gate-sim schedule
# ---------------------------------------------------------------------------

@dataclass
class GateSimTable:
    """The circuit's compiled levelized simulation schedule.

    Wraps a :class:`~repro.sim.compiled.CompiledSchedule`: the netlist
    lowered once to struct-of-arrays form (int-indexed gates/nets, flat
    truth tables, per-net capacitance) with its level-ordered evaluation
    plan.  The schedule pickles without the live module, so a bundle
    loaded from the on-disk cache replays vector workloads and the
    combinational :meth:`kernel` without re-lowering -- only the event-
    simulator *fallback* (feedback/sequential-special cases) needs the
    module, and :meth:`repro.session.DesignHandle.gate_sim` re-binds it.
    """

    schedule: object = None    # CompiledSchedule (module dropped on pickle)

    @classmethod
    def compile(cls, module, library):
        """Lower ``module``; never raises (feedback records its reason)."""
        from ..sim.compiled import compile_schedule

        return cls(schedule=compile_schedule(module, library))

    def kernel(self, library=None):
        """The compiled gate-sim :class:`~repro.runner.kernel.Kernel`
        callable (combinational circuits only), or ``None`` when the
        levelized engine does not apply."""
        from ..runner.kernel import CompiledKernel
        from ..sim.compiled import GateSimKernel

        schedule = self.schedule
        if schedule is None or schedule.soa is None \
                or schedule.soa.n_seq:
            return None
        return CompiledKernel(GateSimKernel(), schedule, library)


# ---------------------------------------------------------------------------
# the SCPG power model, without the transformed netlist
# ---------------------------------------------------------------------------

@dataclass
class ScpgModelTable:
    """Everything :meth:`ScpgPowerModel.from_scpg_design` reads, snapshot.

    The transformed netlist itself never survives into the bundle -- only
    its per-cell leakage table, the nominal SCPG timing, the rail totals
    and the isolation count.  ``build_model`` reproduces the constructor's
    arithmetic exactly, so the resulting model's ``__fingerprint__`` (and
    therefore every per-point result-cache key) is unchanged.
    """

    leakage: LeakageTable = field(default_factory=LeakageTable)
    timing_nominal: object = None      # ScpgTimingParams at sta_vdd
    sta_vdd: float = 0.0
    rail_c_rail: float = 0.0
    rail_n_gates: int = 0
    rail_params: object = None         # RailParams
    header_gate_cap: float = 0.0
    n_iso: int = 0

    @classmethod
    def compile(cls, scpg_design):
        """Snapshot an :class:`~repro.scpg.transform.ScpgDesign`."""
        return cls(
            leakage=LeakageTable.compile(scpg_design.flat.top),
            timing_nominal=scpg_design.timing,
            sta_vdd=scpg_design.sta.vdd,
            rail_c_rail=scpg_design.rail.c_rail,
            rail_n_gates=scpg_design.rail.n_gates,
            rail_params=scpg_design.rail.params,
            header_gate_cap=scpg_design.headers.gate_cap,
            n_iso=len(scpg_design.iso_instances),
        )

    def build_model(self, library, e_cycle, vdd=None, extra_alwayson=0.0):
        """A :class:`~repro.scpg.power_model.ScpgPowerModel` --
        bit-identical to ``from_scpg_design(scpg_design, e_cycle, ...)``."""
        from ..power.rails import VirtualRailModel
        from ..scpg.power_model import ScpgPowerModel

        lib = library
        vdd = lib.vdd_nom if vdd is None else vdd
        report = self.leakage.evaluate(lib, vdd=vdd)
        scale = lib.delay_scale(vdd)
        timing = self.timing_nominal.scaled(scale / lib.delay_scale(
            self.sta_vdd))
        energy_scale = lib.energy_scale(vdd)
        iso_cell = lib.cell("ISO_AND_X1")
        ctl_cap = self.n_iso * iso_cell.pin("ISO").capacitance
        out_cap = 0.5 * self.n_iso * iso_cell.c_internal
        return ScpgPowerModel(
            e_cycle=e_cycle * energy_scale,
            leak_comb=report.combinational,
            leak_alwayson=report.always_on + extra_alwayson,
            leak_header_off=report.headers,
            rail=VirtualRailModel.from_totals(
                self.rail_c_rail, self.rail_n_gates, self.rail_params,
                library=lib),
            header_gate_cap=self.header_gate_cap,
            timing=timing,
            vdd=vdd,
            e_iso_cycle=(ctl_cap + out_cap) * vdd * vdd,
        )


@dataclass
class DomainPartition:
    """The SCPG domain split, as names (reporting, not re-application)."""

    gated_module: str = ""
    header_cell: str = ""
    header_count: int = 0
    isolation_cells: list = field(default_factory=list)
    isolation_control: str = ""
    boundary_outputs: list = field(default_factory=list)
    area_overhead_pct: float = 0.0

    @classmethod
    def compile(cls, scpg_design):
        control = ""
        for domain in scpg_design.domains:
            control = getattr(domain, "isolation_control", "") or control
        return cls(
            gated_module=scpg_design.comb_module.name,
            header_cell=scpg_design.headers.cell.name,
            header_count=scpg_design.headers.count,
            isolation_cells=[i.name for i in scpg_design.iso_instances],
            isolation_control=control,
            boundary_outputs=[
                getattr(b, "name", str(b))
                for b in scpg_design.boundary_outputs
            ],
            area_overhead_pct=scpg_design.area_overhead_pct,
        )


# ---------------------------------------------------------------------------
# the bundle and its store
# ---------------------------------------------------------------------------

@dataclass
class CircuitArtifacts:
    """One circuit's precomputed evaluation tables, ready to pickle."""

    schema: str = ARTIFACT_SCHEMA
    fingerprint: str = ""
    design_name: str = ""
    timing: TimingTable = field(default_factory=TimingTable)
    leakage: LeakageTable = field(default_factory=LeakageTable)
    switching: SwitchedCapTable = field(default_factory=SwitchedCapTable)
    scpg: ScpgModelTable = field(default_factory=ScpgModelTable)
    partition: DomainPartition = field(default_factory=DomainPartition)
    gate_sim: GateSimTable = field(default_factory=GateSimTable)

    @classmethod
    def build(cls, design, fingerprint="", name=""):
        """Compile every table for ``design`` (one netlist walk each).

        The SCPG transform runs with the same vectorless
        ``energy_per_cycle`` the Session's default path feeds it, so
        header sizing -- and with it every downstream number -- matches.
        """
        from ..scpg.transform import _apply_scpg

        library = design.library
        top = design.top
        switching = SwitchedCapTable.compile(top, library)
        e_cycle, _ = switching.evaluate(library)
        scpg_design = _apply_scpg(design, energy_per_cycle=e_cycle)
        return cls(
            fingerprint=fingerprint,
            design_name=name,
            timing=TimingTable.compile(top, library),
            leakage=LeakageTable.compile(top),
            switching=switching,
            scpg=ScpgModelTable.compile(scpg_design),
            partition=DomainPartition.compile(scpg_design),
            gate_sim=GateSimTable.compile(top, library),
        )


class ArtifactStore:
    """Fingerprint-keyed bundle store: in-process memo + on-disk cache.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.runner.sqlite_store.SqliteStore`;
        bundles are shared across processes through it (same
        transactional, best-effort semantics as sweep results).
    stats:
        Optional :class:`~repro.runner.instrument.RunStats`; ``get``
        increments ``artifact_hits`` / ``artifact_misses``.
    journal:
        Optional :class:`~repro.runner.journal.RunJournal`; records
        ``artifact_hit`` / ``artifact_miss`` / ``artifact_built``.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every cache-missed
        build is wrapped in an ``artifact_build`` span.
    """

    def __init__(self, cache=None, stats=None, journal=None, tracer=None):
        self.cache = cache
        self.stats = stats
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._memo = {}

    def key_for(self, fingerprint):
        """On-disk cache key for one fingerprint (``None`` uncached)."""
        if self.cache is None:
            return None
        return self.cache.key_for(ARTIFACT_SCHEMA, fingerprint)

    def get(self, fingerprint, builder):
        """The bundle for ``fingerprint``, building (and storing) on miss.

        A disk entry is trusted only if it carries the same fingerprint
        it was filed under (a corrupt or hand-moved entry degrades to a
        rebuild, never to wrong numbers).
        """
        bundle = self._memo.get(fingerprint)
        if bundle is not None:
            self._record_hit(fingerprint, "memory")
            return bundle
        key = self.key_for(fingerprint)
        if key is not None:
            found, value = self.cache.lookup(key)
            if found and isinstance(value, CircuitArtifacts) \
                    and value.schema == ARTIFACT_SCHEMA \
                    and value.fingerprint == fingerprint:
                self._memo[fingerprint] = value
                self._record_hit(fingerprint, "disk")
                return value
        if self.stats is not None:
            self.stats.artifact_misses += 1
        self.journal.record("artifact_miss", fingerprint=fingerprint[:16])
        start = time.perf_counter()
        with self.tracer.span(
                "artifact_build", fingerprint=fingerprint[:16]) as span:
            bundle = builder()
            span.set(design=bundle.design_name)
        elapsed = time.perf_counter() - start
        self._memo[fingerprint] = bundle
        if key is not None:
            self.cache.writeback(key, bundle)
        self.journal.record(
            "artifact_built", fingerprint=fingerprint[:16],
            design=bundle.design_name, elapsed=elapsed)
        return bundle

    def _record_hit(self, fingerprint, source):
        if self.stats is not None:
            self.stats.artifact_hits += 1
        self.journal.record(
            "artifact_hit", fingerprint=fingerprint[:16], source=source)

    def __repr__(self):
        return "ArtifactStore(memo={}, cache={!r})".format(
            len(self._memo), self.cache)
