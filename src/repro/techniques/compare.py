"""Cross-technique comparison: one design, every registered scheme.

``Session.compare_techniques("mult16")`` (and ``repro compare`` on the
command line) applies each requested technique to the same design --
named by a registry alias, a database :class:`~repro.circuits.
generators.DesignKey` or a spec string like ``"multiplier(n=8)"`` --
builds its uniform :class:`~repro.techniques.base.TechniqueModel`, and
evaluates all of them -- plus an ungated baseline -- over one frequency
grid through the session's runner.  Each technique model's
``_power_points`` is the grid's batch kernel, so the evaluations ride
the same chunked dispatch / content-addressed cache as the SCPG sweeps,
traced under ``compare:<design>:<technique>`` labels.

A session with a store also keeps each technique's *column* -- its
model and area overhead -- under a key formed before anything is
built: the design's identity (its design key or Verilog source, plus
the library), the technique's class, and the shared base figures (the
store adds the package source to every key).  The base figures come
from the design's artifact bundle, so a repeated comparison reads the
bundle and the columns back, builds no netlist and runs no transform;
only the grid points it has not seen are evaluated.

The result is a :class:`TechniqueComparison`: per-technique Fmax, area
overhead and per-frequency power breakdowns with savings against the
shared baseline -- the cross-scheme analogue of the paper's Table I/II.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ReproError
from ..runner import stable_hash, stable_hash_or_none
from .base import TechniqueBreakdown, TechniqueModel

#: Grid used when the caller gives no frequencies (spans the paper's
#: measurement points up to near the designs' convergence region).
DEFAULT_COMPARE_FREQS = (1e4, 1e5, 1e6, 5e6)


@dataclass
class BaselineModel(TechniqueModel):
    """The ungated reference every technique is scored against."""

    e_cycle: float
    leak_total: float
    t_eval: float
    t_setup: float
    vdd: float

    technique = "baseline"

    def __fingerprint__(self):
        return ("technique-baseline-v1", self.e_cycle, self.leak_total,
                self.t_eval, self.t_setup, self.vdd)

    def fmax(self):
        return 1.0 / (self.t_eval + self.t_setup)

    def breakdown(self, freq_hz):
        self._check_freq(freq_hz)
        return TechniqueBreakdown(
            technique="baseline", freq_hz=freq_hz,
            p_dynamic=self.e_cycle * freq_hz,
            p_overhead=0.0,
            p_leak=self.leak_total)


def _breakdown_point(model, freq_hz):
    """Module-level point function (workers unpickle it by reference)."""
    return model.breakdown(freq_hz)


def compare_cache_key(model):
    """Cache namespace for one technique model's breakdown evaluations
    (``None`` -- caching disabled -- without a content fingerprint)."""
    return stable_hash_or_none("technique-power-point", model)


@dataclass
class ColumnRecord:
    """One technique's stored comparison column, with the digest of the
    inputs it was built from."""

    column: str
    model: TechniqueModel
    area_overhead_pct: float


def _column_inputs(handle, e_cycle, base_leakage, base_sta, vdd):
    """What every column of one comparison is built from, besides the
    technique: the design fingerprint (identity + library), the base
    design's switched energy, leakage and timing, and the supply."""
    return (handle.fingerprint, e_cycle, base_leakage, base_sta.eval_delay,
            base_sta.setup, vdd)


@functools.lru_cache(maxsize=None)
def _module_source(module_name):
    """The code a technique's column is built by beyond the package
    (whose source every store key covers): ``""`` for a module inside
    the package, the SHA-256 of its own source for one outside it, or
    ``None`` when that source cannot be read.  Read once per process."""
    if module_name.partition(".")[0] == __name__.partition(".")[0]:
        return ""
    path = getattr(sys.modules.get(module_name), "__file__", None)
    if path is None or not path.endswith(".py"):
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _column_digest(tech, inputs):
    """Digest of one technique's column, formed from the comparison's
    ``inputs`` before any transform runs; ``None`` (build it, store
    nothing) without a store, or for a technique outside the package
    whose source cannot be read."""
    if inputs is None:
        return None
    cls = type(tech)
    source = _module_source(cls.__module__)
    if source is None:
        return None
    return stable_hash("technique-column", cls.__module__,
                       cls.__qualname__, source, inputs)


def _stored_column(store, column):
    """The record filed under ``column``, or ``None`` to build it: no
    key, an absent or corrupt entry, or a record of another digest."""
    if column is None:
        return None
    found, record = store.lookup(store.key_for(column))
    if found and isinstance(record, ColumnRecord) \
            and record.column == column:
        return record
    return None


@dataclass
class ComparisonEntry:
    """One technique's column of the comparison."""

    technique: str
    paper: str
    fmax_hz: float
    area_overhead_pct: float
    points: list = field(default_factory=list)   # TechniqueBreakdown|None
    savings_pct: list = field(default_factory=list)  # float|None

    def as_dict(self):
        """JSON-ready form (golden snapshots, ``--out`` files)."""
        return {
            "technique": self.technique,
            "paper": self.paper,
            "fmax_hz": self.fmax_hz,
            "area_overhead_pct": self.area_overhead_pct,
            "points": [
                None if b is None else {
                    "freq_hz": b.freq_hz,
                    "p_dynamic": b.p_dynamic,
                    "p_overhead": b.p_overhead,
                    "p_leak": b.p_leak,
                    "total": b.total,
                }
                for b in self.points
            ],
            "savings_pct": list(self.savings_pct),
        }


@dataclass
class TechniqueComparison:
    """Every requested technique on one design, over one grid."""

    design: str
    freqs: list
    baseline: ComparisonEntry
    entries: list = field(default_factory=list)

    def entry(self, technique):
        """The :class:`ComparisonEntry` for one technique name."""
        for e in self.entries:
            if e.technique == technique:
                return e
        raise KeyError(technique)

    @property
    def techniques(self):
        return [e.technique for e in self.entries]

    def as_dict(self):
        """JSON-ready form (golden snapshots, ``--out`` files)."""
        return {
            "design": self.design,
            "freqs": list(self.freqs),
            "baseline": self.baseline.as_dict(),
            "entries": [e.as_dict() for e in self.entries],
        }


def _eligible(technique, design):
    report = technique.check(design)
    report.raise_if_blocked()


def run_comparison(handle, freqs=None, techniques=None, vdd=None):
    """Compare techniques on one :class:`~repro.session.DesignHandle`.

    Parameters
    ----------
    handle:
        The design, inside its session (library + runner + caches).
    freqs:
        Frequency grid (default :data:`DEFAULT_COMPARE_FREQS`).
    techniques:
        Iterable of registry names (default: every registered
        technique, sorted).
    vdd:
        Operating supply (default: the library's nominal).

    Returns a :class:`TechniqueComparison`.  Grid points a technique
    cannot reach (above its Fmax) come back as ``None`` with a ``None``
    saving, exactly like infeasible points in the SCPG sweeps.
    """
    from . import available_techniques, technique as lookup

    session = handle.session
    lib = session.library
    runner = session.runner
    freqs = list(DEFAULT_COMPARE_FREQS if freqs is None else freqs)
    names = list(available_techniques() if techniques is None
                 else techniques)

    e_cycle, _ = handle.switching()
    base_leakage = handle.leakage()
    base_sta = handle.sta()

    def evaluate(model, label):
        return runner.run(_breakdown_point, freqs, context=model,
                          cache_key=compare_cache_key(model),
                          on_error=(ReproError,), label=label,
                          kernel=model._power_points)

    baseline_model = BaselineModel(
        e_cycle=e_cycle, leak_total=base_leakage.total,
        t_eval=base_sta.eval_delay, t_setup=base_sta.setup,
        vdd=lib.vdd_nom if vdd is None else vdd)
    base_points = evaluate(baseline_model,
                           "compare:{}:baseline".format(handle.name))
    baseline = ComparisonEntry(
        technique="baseline", paper="", fmax_hz=baseline_model.fmax(),
        area_overhead_pct=0.0, points=base_points,
        savings_pct=[0.0 if b is not None else None
                     for b in base_points])

    out = TechniqueComparison(design=handle.name, freqs=freqs,
                              baseline=baseline)
    store = runner.cache
    inputs = None if store is None else _column_inputs(
        handle, e_cycle, base_leakage, base_sta, vdd)
    for name in names:
        tech = lookup(name)
        column = _column_digest(tech, inputs)
        record = _stored_column(store, column)
        if record is None:
            _eligible(tech, handle.design)
            transformed = tech.compare_input(handle, e_cycle)
            record = ColumnRecord(
                column=column,
                model=tech.sweep_model(
                    transformed, library=lib, e_cycle=e_cycle,
                    base_leakage=base_leakage, base_sta=base_sta,
                    vdd=vdd),
                area_overhead_pct=getattr(transformed,
                                          "area_overhead_pct", 0.0))
            if column is not None:
                store.writeback(store.key_for(column), record)
        model = record.model
        points = evaluate(model,
                          "compare:{}:{}".format(handle.name, name))
        savings = [
            None if (b is None or ref is None) else b.saving_vs(ref)
            for b, ref in zip(points, base_points)
        ]
        out.entries.append(ComparisonEntry(
            technique=name, paper=tech.paper, fmax_hz=model.fmax(),
            area_overhead_pct=record.area_overhead_pct,
            points=points, savings_pct=savings))
    return out


def format_comparison(comparison):
    """The comparison as a readable text table."""
    lines = []
    lines.append("technique comparison: {}".format(comparison.design))
    header = "{:<10} {:>10} {:>8}".format("technique", "fmax", "area+%")
    for f in comparison.freqs:
        header += " {:>12}".format(_si(f) + "Hz")
    lines.append(header)
    lines.append("-" * len(header))

    def row(entry):
        line = "{:<10} {:>10} {:>8}".format(
            entry.technique, _si(entry.fmax_hz) + "Hz",
            "{:.2f}".format(entry.area_overhead_pct))
        for b, s in zip(entry.points, entry.savings_pct):
            if b is None:
                line += " {:>12}".format("--")
            elif entry.technique == "baseline":
                line += " {:>12}".format("{:.3g}W".format(b.total))
            else:
                line += " {:>12}".format(
                    "{:.3g}W/{:+.0f}%".format(b.total, s))
        return line

    lines.append(row(comparison.baseline))
    for entry in comparison.entries:
        lines.append(row(entry))
    lines.append("(per-point cells: average power / saving vs baseline; "
                 "-- = above Fmax)")
    return "\n".join(lines)


def _si(value):
    """Compact SI rendering of a frequency-ish value."""
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= scale:
            return "{:.3g}{}".format(value / scale, suffix)
    return "{:.3g}".format(value)
