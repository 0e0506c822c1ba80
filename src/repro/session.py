"""The high-level facade: ``Session(...).design("mult16").sweep(...)``.

A :class:`Session` owns the three things every analysis needs -- a cell
library, an execution :class:`~repro.runner.Runner` (workers + result
store + stats), and the design registry -- and hands out
:class:`DesignHandle` objects that lazily build netlists, apply SCPG,
derive power models and run sweeps through the shared runner::

    from repro import Session

    session = Session(workers=4, store="~/.cache/repro/results.sqlite")
    handle = session.design("mult16")
    sweep = handle.sweep([1e4, 1e5, 1e6, 5e6])
    print(handle.minimum_energy_point().vdd)
    print(session.stats.render())

The CLI, the examples and the benchmark harness all run through this
facade; the lower-level modules (``repro.analysis``, ``repro.subvt``,
``repro.scpg``) remain importable directly and unchanged in behaviour.
"""

from __future__ import annotations

import math

from .errors import SupplyError
from .runner import DEFAULT_BACKOFF, DEFAULT_RETRIES, ArtifactStore, \
    Runner, WorkerPool, default_cache, module_fingerprint, open_store, \
    resolve_workers, stable_hash


def _check_vdd(vdd):
    """``vdd`` unchanged when it is ``None`` (nominal) or a positive
    finite supply; :class:`~repro.errors.SupplyError` otherwise."""
    if vdd is None:
        return None
    try:
        valid = math.isfinite(vdd) and vdd > 0
    except TypeError:
        valid = False
    if not valid:
        raise SupplyError(
            "supply voltage must be a positive finite number of volts "
            "(or None for nominal), got {!r}".format(vdd))
    return vdd


class Session:
    """Shared state for a sequence of experiments.

    Parameters
    ----------
    library:
        A :class:`~repro.tech.library.Library`; defaults to the synthetic
        90nm kit (``build_scl90()``), built lazily.
    liberty:
        Path of a Liberty-lite file to load instead (exclusive with
        ``library``).
    workers:
        Worker processes for grid evaluation: ``None`` serial, ``0`` one
        per core, ``N`` at most N.  A parallel session owns one
        :class:`~repro.runner.WorkerPool`, started lazily and reused by
        every grid it runs, so workers fork once -- after the first power
        model (and its artifact bundle) is built, which the forked
        workers then inherit copy-on-write.  :meth:`close` shuts it down.
    store:
        Persistent result store: a :class:`~repro.runner.SqliteStore`,
        the path of its SQLite database file, ``None``/``False`` for no
        store, or ``"auto"`` (default) for the store inside the
        ``REPRO_CACHE_DIR`` directory when that variable is set.  One
        WAL-mode file is safely shared by many processes and sessions --
        the backend :mod:`repro.serve` runs on, and the way several
        tenants sweeping overlapping grids dedupe each other's work.
        The store also keeps the per-circuit artifact bundles (see
        :meth:`DesignHandle.artifacts`); without one, bundles live in
        memory for the session's lifetime.
    journal:
        A :class:`~repro.runner.RunJournal` or a path; every grid the
        session runs appends its JSONL events there (default: none).
    retry_on / retries / backoff / timeout:
        Fault-tolerance policy forwarded to the session's
        :class:`~repro.runner.Runner` -- exception types retried with
        exponential backoff, and an optional per-point timeout.
    trace:
        Tracing: ``None``/``False`` (default) leaves the free no-op
        tracer in place; ``True`` traces into an in-memory sink
        (``session.tracer.sinks[0].lines``); a path traces to that JSONL
        file (closed by :meth:`close`); a :class:`~repro.obs.trace.
        Tracer` is used as-is (caller owns its sinks).
    metrics:
        Metrics: ``True`` creates a fresh :class:`~repro.obs.metrics.
        MetricsRegistry`, or pass a registry to share one across
        sessions; default ``None`` records live histograms nowhere (the
        :meth:`metrics` snapshot still works on demand).
    """

    def __init__(self, library=None, liberty=None, workers=None,
                 store="auto", journal=None, retry_on=(),
                 retries=DEFAULT_RETRIES, backoff=DEFAULT_BACKOFF,
                 timeout=None, trace=None, metrics=None):
        if library is not None and liberty is not None:
            raise ValueError("pass either library or liberty, not both")
        self._library = library
        self._liberty = liberty
        if isinstance(store, str) and store == "auto":
            store = default_cache()
        elif store is None or store is False:
            store = None
        else:
            store = open_store(store)
        tracer, self._owns_tracer = self._make_tracer(trace)
        self._registry = self._make_registry(metrics)
        self.pool = None
        if workers is not None and resolve_workers(workers) > 1:
            self.pool = WorkerPool(workers=workers)
        self.runner = Runner(workers=workers, cache=store,
                             retry_on=retry_on, retries=retries,
                             backoff=backoff, timeout=timeout,
                             journal=journal, tracer=tracer,
                             metrics=self._registry, pool=self.pool)
        self.artifacts = ArtifactStore(
            cache=self.runner.cache, stats=self.runner.stats,
            journal=self.runner.journal, tracer=self.runner.tracer)

    @staticmethod
    def _make_tracer(trace):
        """``(tracer, owned)`` for the ``trace=`` constructor argument."""
        if trace is None or trace is False:
            return None, False
        from .obs.trace import JsonlSink, MemorySink, Tracer

        if isinstance(trace, Tracer):
            return trace, False
        if trace is True:
            return Tracer(MemorySink()), True
        return Tracer(JsonlSink(trace)), True

    @staticmethod
    def _make_registry(metrics):
        if metrics is None or metrics is False:
            return None
        if metrics is True:
            from .obs.metrics import MetricsRegistry

            return MetricsRegistry()
        return metrics

    @property
    def library(self):
        """The session's cell library (built/loaded on first use)."""
        if self._library is None:
            if self._liberty is not None:
                from .tech.liberty import read_liberty

                self._library = read_liberty(self._liberty)
            else:
                from .tech.scl90 import build_scl90

                self._library = build_scl90()
        return self._library

    @property
    def stats(self):
        """Accumulated :class:`~repro.runner.RunStats` for this session."""
        return self.runner.stats

    @property
    def journal(self):
        """The session's :class:`~repro.runner.RunJournal` (or ``None``)."""
        return self.runner.journal

    @property
    def tracer(self):
        """The session's :class:`~repro.obs.trace.Tracer` (the shared
        no-op tracer unless ``trace=`` was given)."""
        return self.runner.tracer

    def metrics(self):
        """The session's :class:`~repro.obs.metrics.MetricsRegistry`,
        snapshotted from the current :attr:`stats` (and result cache) so
        every RunStats counter is up to date at the moment of the call.
        Creates a registry on the fly when the session runs without one
        (the live latency histograms are then simply empty)."""
        registry = self._registry
        if registry is None:
            from .obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        return registry.fill_from_stats(self.stats,
                                        cache=self.runner.cache)

    def close(self):
        """Close the journal, any session-owned trace sink and the
        session's warm pool (idempotent; the session stays usable --
        recording reopens the journal in append mode, and later parallel
        grids degrade to ephemeral per-grid pools with identical
        results)."""
        self.runner.close()
        if self._owns_tracer:
            self.runner.tracer.close()
        if self.pool is not None:
            self.pool.close()

    def designs(self):
        """Names the registry can build (see :meth:`design`)."""
        from .circuits import registry

        return registry.available_designs()

    def families(self):
        """Names of every generator family in the design database."""
        from .circuits.generators import available_families

        return available_families()

    def design(self, name, **params):
        """A :class:`DesignHandle` for a registry name, a
        :class:`~repro.circuits.generators.DesignKey`, a spec string like
        ``"multiplier(n=8)"`` or a Verilog path."""
        return DesignHandle(self, name, params)

    def expand_family(self, family, **axes):
        """Handles over a family's parameter grid.

        Each axis is a parameter name mapped to a value or an iterable of
        values; the cartesian product (declaration order, e.g.
        ``expand_family("multiplier", n=[4, 8, 16, 32])``) becomes one
        :class:`DesignHandle` per design key, ready for sweeps through
        this session's runner and artifact cache.
        """
        from .circuits.generators import expand_family

        return [self.design(key) for key in expand_family(family, **axes)]

    def techniques(self):
        """Names of every registered power-gating technique."""
        from .techniques import available_techniques

        return available_techniques()

    def compare_techniques(self, design, freqs=None, techniques=None,
                           vdd=None, **params):
        """Cross-technique comparison of one design (see
        :func:`repro.techniques.compare.run_comparison`).

        ``design`` is a registry name, a Verilog path or an existing
        :class:`DesignHandle`; every technique model evaluates through
        this session's runner (workers, cache, journal) under
        ``compare:<design>:<technique>`` labels.
        """
        from .techniques import run_comparison

        handle = design if isinstance(design, DesignHandle) \
            else self.design(design, **params)
        return run_comparison(handle, freqs=freqs,
                              techniques=techniques, vdd=_check_vdd(vdd))

    def __repr__(self):
        return "Session(library={!r}, runner={!r})".format(
            self._library if self._library is not None else "scl90(lazy)",
            self.runner)


class DesignHandle:
    """One design inside a session: lazily built, analysed on demand.

    Everything heavyweight -- the netlist, the SCPG transform, the STA
    run, the derived power models -- is computed at most once per handle;
    grid evaluations route through the session's runner (workers + cache).
    """

    def __init__(self, session, name, params):
        self.session = session
        # ``name`` may be a str (registry name, spec string, Verilog
        # path) or a DesignKey; the original spec is kept for resolution
        # while ``self.name`` stays a plain string for run labels.
        self._spec = name
        self.name = name if isinstance(name, str) else str(name)
        self.params = dict(params)
        self._design = None
        self._scpg = None
        self._sta = None
        self._switching = None
        self._power_model = None
        self._subvt_model = None
        self._artifacts = None

    # -- construction ---------------------------------------------------------

    @property
    def design(self):
        """The :class:`~repro.netlist.core.Design` (built on first use)."""
        if self._design is None:
            from .circuits import registry

            self._design = registry.resolve(
                self._spec, self.session.library, **self.params)
        return self._design

    @property
    def fingerprint(self):
        """Content digest of (netlist, library) for cache keys."""
        return stable_hash("design-v1",
                           module_fingerprint(self.design.top),
                           self.session.library)

    def netlist(self):
        """The design as structural Verilog text."""
        from .netlist.verilog import dumps_verilog

        return dumps_verilog(self.design)

    def scpg(self, **kwargs):
        """Apply sub-clock power gating (cached for default arguments)."""
        from .techniques import technique

        scpg = technique("scpg")
        if kwargs:
            return scpg.transform(self.design, **kwargs)
        if self._scpg is None:
            e_cycle, _ = self.switching()
            self._scpg = scpg.transform(self.design,
                                        energy_per_cycle=e_cycle)
        return self._scpg

    def artifacts(self):
        """This design's :class:`~repro.runner.artifacts.CircuitArtifacts`
        bundle: its compiled STA, switching, SCPG model table and
        simulation schedule.

        Served from the session's :class:`~repro.runner.artifacts.
        ArtifactStore` -- in-process memo first, then the session's
        store, then a one-time build -- and memoised per handle.
        """
        if self._artifacts is None:
            from .runner.artifacts import CircuitArtifacts

            design = self.design
            fp = self.fingerprint
            self._artifacts = self.session.artifacts.get(
                fp,
                lambda: CircuitArtifacts.build(
                    design, fingerprint=fp, name=design.top.name))
        return self._artifacts

    # -- analyses -------------------------------------------------------------
    #
    # Every method taking ``vdd`` reads ``None`` as the library's nominal
    # supply and raises SupplyError for a non-finite or non-positive one.

    def sta(self, vdd=None):
        """Timing analysis result (memoised at the nominal supply)."""
        vdd = _check_vdd(vdd)
        timing = self.artifacts().timing
        if vdd is not None:
            return timing.run(vdd)
        if self._sta is None:
            self._sta = timing.run()
        return self._sta

    def switching(self, vdd=None):
        """Vectorless ``(e_cycle, by_net)`` switching estimate."""
        vdd = _check_vdd(vdd)
        table = self.artifacts().switching
        if vdd is not None:
            return table.evaluate(self.session.library, vdd)
        if self._switching is None:
            self._switching = table.evaluate(self.session.library)
        return self._switching

    def leakage(self, vdd=None):
        """Leakage power report at ``vdd`` (default nominal)."""
        from .power.leakage import leakage_power

        return leakage_power(self.design.top, self.session.library,
                             vdd=_check_vdd(vdd))

    def leakage_axis(self, vdds, temp_c=None):
        """One leakage report per supply in ``vdds`` (``None`` entries
        mean nominal)."""
        from .power.leakage import leakage_power

        vdds = [_check_vdd(v) for v in vdds]
        return [leakage_power(self.design.top, self.session.library,
                              vdd=v, temp_c=temp_c) for v in vdds]

    def state_leakage_trace(self, states, vdd=None, temp_c=None):
        """Per-cycle state-dependent leakage across a co-sim trace
        (see :func:`repro.power.leakage.state_leakage_trace`).

        ``states`` is the ``(cycles, n_nets)`` matrix recorded by
        :meth:`cosim` / :class:`~repro.isa.trace.GateLevelCpu` with
        ``record_states=True``, or an iterable of net-value snapshots.
        """
        from .power.leakage import state_leakage_trace

        return state_leakage_trace(self.design.top, self.session.library,
                                   states, vdd=_check_vdd(vdd),
                                   temp_c=temp_c)

    def cosim(self, program, memory=None, max_cycles=200_000,
              group_size=10):
        """Closed-loop ISS-vs-netlist co-simulation of ``program`` (see
        :func:`repro.isa.trace.cosimulate`; the design must expose the
        M0-lite port interface).
        """
        from .isa.trace import cosimulate

        return cosimulate(self.design.top, program, memory,
                          max_cycles=max_cycles, group_size=group_size)

    def power_model(self):
        """An :class:`~repro.scpg.power_model.ScpgPowerModel` with the
        vectorless energy estimate and measured base leakage."""
        if self._power_model is None:
            e_cycle, _ = self.switching()
            model = self.artifacts().scpg.build_model(
                self.session.library, e_cycle)
            base = self.leakage()
            model.leak_comb_base = base.combinational
            model.leak_alwayson_base = base.always_on
            self._power_model = model
        return self._power_model

    def subvt_model(self):
        """A :class:`~repro.subvt.energy.SubvtModel` from the vectorless
        estimate, total leakage and the STA minimum period."""
        if self._subvt_model is None:
            from .subvt.energy import SubvtModel

            e_cycle, _ = self.switching()
            self._subvt_model = SubvtModel(
                self.session.library, e_cycle, self.leakage().total,
                self.sta().min_period)
        return self._subvt_model

    def gate_sim(self):
        """The design's compiled levelized simulation schedule
        (:class:`~repro.sim.compiled.CompiledSchedule`) from the artifact
        bundle."""
        return self.artifacts().gate_sim

    def activity(self, vectors, clock="clk", reset=0, group_size=None):
        """Simulate a clocked workload; returns a
        :class:`~repro.sim.compiled.CompiledRun` (toggle counts, final
        values, optional grouped :class:`~repro.sim.activity.
        ActivityTrace`) on the levelized engine."""
        return self.gate_sim().run_vectors(
            vectors, clock=clock, reset=reset, group_size=group_size)

    # -- experiments (through the session runner) ------------------------------

    def sweep(self, freqs, modes=None, model=None):
        """Frequency sweep of the SCPG power model over ``freqs``."""
        from .analysis.sweep import sweep as run_sweep

        model = self.power_model() if model is None else model
        label = "sweep:{}".format(self.name)
        if modes is None:
            return run_sweep(model, freqs, runner=self.session.runner,
                             label=label)
        return run_sweep(model, freqs, modes=modes,
                         runner=self.session.runner, label=label)

    def table(self, freqs):
        """Table I/II-style rows for ``freqs`` (list of mode dicts)."""
        from .analysis.tables import build_table

        return build_table(self.power_model(), freqs,
                           runner=self.session.runner,
                           label="sweep:{}".format(self.name))

    def convergence(self, mode=None, **kwargs):
        """Frequency where gating stops paying (see ``find_convergence``)."""
        from .analysis.sweep import find_convergence
        from .scpg.power_model import Mode

        return find_convergence(
            self.power_model(), mode=Mode.SCPG if mode is None else mode,
            runner=self.session.runner, **kwargs)

    def energy_sweep(self, **kwargs):
        """Sub-threshold energy/voltage sweep through the runner."""
        from .subvt.energy import energy_sweep

        return energy_sweep(self.subvt_model(),
                            runner=self.session.runner, **kwargs)

    def minimum_energy_point(self, **kwargs):
        """Sub-threshold minimum-energy point through the runner."""
        from .subvt.energy import minimum_energy_point

        return minimum_energy_point(self.subvt_model(),
                                    runner=self.session.runner, **kwargs)

    def power_report(self, freq_hz, vdd=None):
        """A :class:`~repro.power.report.PowerReport` at one operating
        point (vectorless dynamic estimate)."""
        from .power.dynamic import DynamicReport
        from .power.report import PowerReport

        vdd = _check_vdd(vdd)
        if vdd is None:
            vdd = self.session.library.vdd_nom
        e_cycle, by_net = self.switching(vdd=vdd)
        dyn = DynamicReport(vdd=vdd, freq_hz=freq_hz, cycles=1,
                            energy_per_cycle=e_cycle, glitch_factor=1.0,
                            by_net=by_net)
        return PowerReport(design=self.design.top.name, vdd=vdd,
                           freq_hz=freq_hz, leakage=self.leakage(vdd=vdd),
                           dynamic=dyn)

    def __repr__(self):
        return "DesignHandle({!r})".format(self.name)
