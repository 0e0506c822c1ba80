"""The outside-in layer ledger: spans around calls into each layer.

The benchmark does not change the program to time it.  Instead
:class:`Ledger` wraps the public functions of each layer -- the modules
under ``repro`` -- in :class:`repro.obs.trace.Tracer` spans collected by a
:class:`~repro.obs.trace.MemorySink`, and turns the span tree into
per-layer self-time and exact work counts.

Three rules keep the numbers honest:

* **every binding is patched.**  ``from .x import f`` copies ``f`` into
  the importer's namespace, so patching the defining module alone misses
  most calls.  :meth:`Ledger.install` replaces the function in every
  loaded module that binds it, and methods on their class (which every
  importer shares);
* **self-time, not inclusive time.**  A span's self-time is its duration
  minus that of its child spans, so nested layers are never counted
  twice and the self-times of all spans add up to the root span;
* **one span per entry into a quantity.**  A wrapped call made while a
  span of the same quantity is innermost (``stable_hash`` calling
  ``fingerprint``, the SCPG flow calling ``synthesize``) stays inside
  that span and is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SPAN = "unattributed"


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``owner`` is a module path, or
    ``module:Class`` for a method; ``quantity`` is ``<layer>.<name>``."""

    quantity: str
    owner: str
    attr: str
    #: Optional extra counter fed by each counted call:
    #: ``(counter name, fn(result) -> amount)``.
    tally: tuple = None

    @property
    def key(self):
        return "{}.{}".format(self.owner, self.attr)


def _cycles_returned(result):
    return int(result)


def _cycles_run(result):
    return int(result.cycles)


_SCPG = "repro.techniques.scpg:ScpgTechnique"
_CBTSTC = "repro.techniques.cbtstc:CbtstcTechnique"
_LECTOR = "repro.techniques.lector:LectorTechnique"

#: Every wrapped function.  Shadow evaluators that ``runner.artifacts``
#: keeps for STA, leakage and switching count under the quantity they
#: shadow, so replacing one with the other moves no metric name.
TARGETS = (
    Target("circuits.elaborate", "repro.circuits.registry", "build"),
    Target("circuits.elaborate", "repro.circuits.generators", "elaborate"),
    Target("flows.implement", "repro.flows.scpg_flow", "_run_scpg_flow"),
    Target("flows.implement", "repro.flows.traditional",
           "run_traditional_flow"),
    Target("flows.implement", "repro.flows.synthesis", "synthesize"),
    Target("flows.implement", "repro.flows.floorplan", "plan_design"),
    Target("flows.implement", "repro.flows.cts", "synthesize_clock_tree"),
    Target("flows.implement", "repro.flows.route", "estimate_routing"),
    Target("scpg.transform", "repro.scpg.transform", "_apply_scpg"),
    Target("scpg.model", "repro.scpg.power_model:ScpgPowerModel",
           "from_scpg_design"),
    Target("scpg.model", "repro.runner.artifacts:ScpgModelTable",
           "build_model"),
    Target("netlist.lower_soa", "repro.netlist.soa", "lower_soa"),
    Target("netlist.lower_leakage", "repro.netlist.soa", "lower_leakage"),
    Target("netlist.flatten", "repro.netlist.core:Design", "flatten"),
    Target("netlist.levelize", "repro.netlist.traverse",
           "topological_instances"),
    Target("sim.compile", "repro.sim.compiled", "compile_schedule"),
    Target("sim.vectors", "repro.sim.compiled:CompiledSchedule",
           "run_vectors", tally=("sim.vectors", _cycles_run)),
    Target("isa.cosim", "repro.isa.trace:GateLevelCpu", "run",
           tally=("isa.cosim_cycles", _cycles_returned)),
    Target("sta.run", "repro.sta.analysis:TimingAnalysis", "run"),
    Target("sta.run", "repro.runner.artifacts:TimingTable", "evaluate"),
    Target("power.switching", "repro.power.probabilistic",
           "vectorless_switching"),
    Target("power.switching", "repro.runner.artifacts:SwitchedCapTable",
           "evaluate"),
    Target("power.leakage", "repro.power.leakage", "leakage_power"),
    Target("power.leakage", "repro.runner.artifacts:LeakageTable",
           "evaluate"),
    Target("power.dynamic", "repro.power.dynamic", "dynamic_power"),
    Target("techniques.transform", "repro.techniques.base:Technique",
           "transform_for_compare"),
    Target("techniques.transform", _SCPG, "transform"),
    Target("techniques.transform", _SCPG, "transform_for_compare"),
    Target("techniques.transform", _CBTSTC, "transform"),
    Target("techniques.transform", _CBTSTC, "transform_for_compare"),
    Target("techniques.transform", _LECTOR, "transform"),
    Target("techniques.model", _SCPG, "sweep_model"),
    Target("techniques.model", _CBTSTC, "sweep_model"),
    Target("techniques.model", _LECTOR, "sweep_model"),
    Target("runner.artifact_build",
           "repro.runner.artifacts:CircuitArtifacts", "build"),
    Target("runner.grid", "repro.runner.core", "evaluate_grid"),
    Target("runner.fingerprint", "repro.runner.fingerprint", "fingerprint"),
    Target("runner.fingerprint", "repro.runner.fingerprint", "stable_hash"),
    Target("runner.store_put", "repro.runner.cache:ResultCache", "put"),
    Target("runner.store_put", "repro.runner.sqlite_store:SqliteStore",
           "put"),
    Target("runner.store_get", "repro.runner.cache:ResultCache", "lookup"),
    Target("runner.store_get", "repro.runner.sqlite_store:SqliteStore",
           "lookup"),
    Target("analysis.self", "repro.analysis.sweep", "sweep"),
    Target("analysis.self", "repro.analysis.sweep", "find_convergence"),
    Target("analysis.self", "repro.analysis.tables", "build_table"),
    Target("subvt.self", "repro.subvt.energy", "minimum_energy_point"),
    Target("subvt.self", "repro.subvt.energy", "energy_sweep"),
    Target("subvt.self", "repro.subvt.compare", "compare_with_scpg"),
)


def _resolve(owner):
    """``(namespace, is_class)`` for a target owner; the namespace is
    ``None`` when the module or class no longer exists."""
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, False
    if class_name:
        return getattr(module, class_name, None), True
    return module, False


def import_targets(targets=TARGETS):
    """Import every module a target lives in, so traced and untraced runs
    pay the same imports during set-up."""
    for target in targets:
        _resolve(target.owner)


def self_times(lines):
    """Self-time per span name from finished span lines.

    Each line needs ``id``, ``parent``, ``name`` and ``elapsed`` (the
    :class:`~repro.obs.trace.Span` line schema).  A span's self-time is
    its elapsed time minus the elapsed time of its direct children, so
    the values sum to the elapsed time of the root spans.
    """
    children = defaultdict(float)
    for line in lines:
        if line["parent"] is not None:
            children[line["parent"]] += line["elapsed"]
    out = defaultdict(float)
    for line in lines:
        out[line["name"]] += line["elapsed"] - children[line["id"]]
    return dict(out)


class Ledger:
    """Installs the span wrappers and summarises what they saw.

    Use as ``with ledger.installed(): with ledger.root(): <unit>``; then
    :meth:`summary` gives self-time per quantity, counted calls,
    tallies and which targets fired.
    """

    def __init__(self, targets=TARGETS):
        from repro.obs.trace import MemorySink, Tracer

        self.targets = tuple(targets)
        self.sink = MemorySink()
        self.tracer = Tracer(self.sink)
        self.fired = Counter()     # target key -> entries (incl. nested)
        self.calls = Counter()     # quantity -> counted entries
        self.tallies = Counter()   # tally name -> summed amount
        self.absent = []           # target keys missing at install
        self._open = []            # quantities of the open spans
        self._undo = []

    def _wrap(self, target, fn):
        ledger = self
        quantity = target.quantity
        tally = target.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger.fired[target.key] += 1
            if ledger._open and ledger._open[-1] == quantity:
                return fn(*args, **kwargs)
            ledger.calls[quantity] += 1
            ledger._open.append(quantity)
            try:
                with ledger.tracer.span(quantity):
                    result = fn(*args, **kwargs)
            finally:
                ledger._open.pop()
            if tally is not None:
                ledger.tallies[tally[0]] += tally[1](result)
            return result

        return wrapper

    def _set(self, namespace, name, value):
        self._undo.append((namespace, name, vars(namespace)[name]))
        setattr(namespace, name, value)

    def install(self):
        """Patch every target in its owner and in every module binding it.

        Methods are patched on the class that defines them (instances
        and subclasses share the class attribute).  Module functions are
        replaced in every loaded module whose namespace holds the same
        function object, which covers ``from ... import`` bindings;
        function-local imports read the defining module at call time.
        """
        if self._undo:
            raise RuntimeError("ledger already installed")
        functions = {}
        for target in self.targets:
            namespace, is_class = _resolve(target.owner)
            raw = None if namespace is None \
                else vars(namespace).get(target.attr)
            if raw is None:
                self.absent.append(target.key)
            elif not is_class:
                functions[id(raw)] = (raw, self._wrap(target, raw))
            elif isinstance(raw, classmethod):
                self._set(namespace, target.attr,
                          classmethod(self._wrap(target, raw.__func__)))
            else:
                self._set(namespace, target.attr, self._wrap(target, raw))
        for module in list(sys.modules.values()):
            names = getattr(module, "__dict__", None)
            if not isinstance(names, dict):
                continue
            for name, value in list(names.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        return self

    def uninstall(self):
        """Restore every patched binding."""
        while self._undo:
            namespace, name, value = self._undo.pop()
            setattr(namespace, name, value)

    @contextmanager
    def installed(self):
        """Install for the ``with`` body, uninstall after it."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def root(self):
        """The span enclosing the timed unit; its self-time is the time
        spent outside every wrapped call."""
        return self.tracer.span(ROOT_SPAN)

    def summary(self):
        """Self-times, counts and coverage of everything recorded."""
        lines = self.sink.lines
        roots = [line for line in lines if line["parent"] is None]
        inclusive = defaultdict(float)
        for line in lines:
            inclusive[line["name"]] += line["elapsed"]
        return {
            "self_s": self_times(lines),
            "inclusive_s": dict(inclusive),
            "calls": dict(self.calls),
            "tallies": dict(self.tallies),
            "fired": sorted(self.fired),
            "absent": list(self.absent),
            "spans": len(lines),
            "roots": [line["name"] for line in roots],
            "wall_s": sum(line["elapsed"] for line in roots),
        }


#: ``<metric>: (kind, source)``: ``self`` is a quantity's self-time,
#: ``calls`` its counted entries, ``tally`` a :attr:`Target.tally`,
#: ``stats`` a RunStats counter summed over the run's runners.
LAYER_SOURCES = {
    "circuits.elaborate_s": ("self", "circuits.elaborate"),
    "circuits.elaborate_calls": ("calls", "circuits.elaborate"),
    "flows.implement_s": ("self", "flows.implement"),
    "flows.runs": ("calls", "flows.implement"),
    "scpg.transform_s": ("self", "scpg.transform"),
    "scpg.transform_calls": ("calls", "scpg.transform"),
    "scpg.model_s": ("self", "scpg.model"),
    "netlist.lower_soa_s": ("self", "netlist.lower_soa"),
    "netlist.lower_soa_calls": ("calls", "netlist.lower_soa"),
    "netlist.lower_leakage_s": ("self", "netlist.lower_leakage"),
    "netlist.flatten_s": ("self", "netlist.flatten"),
    "netlist.levelize_s": ("self", "netlist.levelize"),
    "netlist.levelize_calls": ("calls", "netlist.levelize"),
    "sim.compile_s": ("self", "sim.compile"),
    "sim.compile_calls": ("calls", "sim.compile"),
    "sim.vectors_s": ("self", "sim.vectors"),
    "sim.vectors": ("tally", "sim.vectors"),
    "isa.cosim_s": ("self", "isa.cosim"),
    "isa.cosim_cycles": ("tally", "isa.cosim_cycles"),
    "sta.run_s": ("self", "sta.run"),
    "sta.runs": ("calls", "sta.run"),
    "power.switching_s": ("self", "power.switching"),
    "power.switching_calls": ("calls", "power.switching"),
    "power.leakage_s": ("self", "power.leakage"),
    "power.leakage_calls": ("calls", "power.leakage"),
    "power.dynamic_s": ("self", "power.dynamic"),
    "techniques.transform_s": ("self", "techniques.transform"),
    "techniques.transform_calls": ("calls", "techniques.transform"),
    "techniques.model_s": ("self", "techniques.model"),
    "runner.artifact_build_s": ("self", "runner.artifact_build"),
    "runner.artifact_builds": ("calls", "runner.artifact_build"),
    "runner.artifact_hits": ("stats", "artifact_hits"),
    "analysis.self_s": ("self", "analysis.self"),
    "subvt.self_s": ("self", "subvt.self"),
    "runner.grid_s": ("self", "runner.grid"),
    "runner.grids": ("calls", "runner.grid"),
    "runner.points": ("stats", "points"),
    "runner.fingerprint_s": ("self", "runner.fingerprint"),
    "runner.fingerprint_calls": ("calls", "runner.fingerprint"),
    "runner.store_put_s": ("self", "runner.store_put"),
    "runner.store_puts": ("calls", "runner.store_put"),
    "runner.store_get_s": ("self", "runner.store_get"),
    "runner.store_gets": ("calls", "runner.store_get"),
    "runner.cache_hits": ("stats", "cache_hits"),
    "runner.cache_misses": ("stats", "cache_misses"),
}

#: Metrics that count work: they must repeat exactly across runs of one
#: commit and seed.  Everything else in :func:`layer_metrics` is a time.
EXACT = tuple(name for name, (kind, _) in LAYER_SOURCES.items()
              if kind != "self") + ("runner.hit_ratio", "trace.spans")


def layer_metrics(summary, stats):
    """Per-layer metrics of one traced unit.

    ``summary`` is :meth:`Ledger.summary`; ``stats`` maps RunStats
    counter names to their totals over the unit's runners.
    """
    out = {}
    for name, (kind, source) in LAYER_SOURCES.items():
        if kind == "self":
            out[name] = summary["self_s"].get(source, 0.0)
        elif kind == "calls":
            out[name] = summary["calls"].get(source, 0)
        elif kind == "tally":
            out[name] = summary["tallies"].get(source, 0)
        else:
            out[name] = stats[source]
    cosim = summary["inclusive_s"].get("isa.cosim", 0.0)
    out["isa.cycles_per_s"] = out["isa.cosim_cycles"] / cosim \
        if cosim else 0.0
    lookups = stats["cache_hits"] + stats["cache_misses"]
    out["runner.hit_ratio"] = stats["cache_hits"] / lookups \
        if lookups else 0.0
    out["trace.unattributed_s"] = summary["self_s"].get(ROOT_SPAN, 0.0)
    out["trace.wall_s"] = summary["wall_s"]
    out["trace.spans"] = summary["spans"]
    return out


def layer_self_times(summary):
    """Self-time per layer (the root span's share under ``ROOT_SPAN``)."""
    out = defaultdict(float)
    for quantity, seconds in summary["self_s"].items():
        out[quantity.split(".", 1)[0]] += seconds
    return dict(out)
