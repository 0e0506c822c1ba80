"""The ``Technique`` plugin protocol.

SCPG is one point in the active-mode leakage design space; this module
defines the strategy interface every power-gating scheme implements so
the Session/runner/golden machinery stays technique-agnostic:

* :class:`Technique` -- one scheme: eligibility checks
  (:meth:`~Technique.check`), the netlist transform
  (:meth:`~Technique.transform`), a picklable per-technique artifact
  table (:meth:`~Technique.artifact_table`) and the uniform comparison
  model (:meth:`~Technique.sweep_model`).
* :class:`TechniqueModel` -- the frequency -> power surface every
  technique exposes: ``fmax()`` and ``breakdown(freq_hz)`` returning a
  :class:`TechniqueBreakdown`, with ``_power_points`` evaluating a whole
  frequency axis -- the batch kernel ``Session.compare_techniques``
  hands the runner, so comparisons ride the chunked runner exactly like
  the SCPG sweeps.
* :class:`EligibilityReport` -- the constraint-check outcome, with
  machine-readable issue codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError, TechniqueError


@dataclass
class EligibilityIssue:
    """One reason a technique cannot (or should not) be applied."""

    code: str
    message: str


@dataclass
class EligibilityReport:
    """Outcome of :meth:`Technique.check` for one design."""

    technique: str
    issues: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.issues

    def raise_if_blocked(self):
        """Raise :class:`~repro.errors.TechniqueError` on any issue."""
        if self.issues:
            raise TechniqueError(
                "design not eligible for technique {!r}: {}".format(
                    self.technique,
                    "; ".join(i.message for i in self.issues)))
        return self


@dataclass
class TechniqueBreakdown:
    """One operating point of one technique (W, J).

    The cross-technique analogue of
    :class:`~repro.scpg.power_model.PowerBreakdown`: three buckets that
    every scheme can populate -- useful switching, technique-induced
    overhead (control, rail recharge, ...), and leakage.
    """

    technique: str
    freq_hz: float
    p_dynamic: float
    p_overhead: float
    p_leak: float
    #: Average power (W).  Defaults to the three buckets' sum; adapters
    #: wrapping a finer-grained breakdown pass the original total so the
    #: uniform view stays bit-identical to the technique's native one
    #: (float addition is order-sensitive at the last ulp).
    total: float = None

    def __post_init__(self):
        if self.total is None:
            self.total = self.p_dynamic + self.p_overhead + self.p_leak

    @property
    def energy_per_op(self):
        """Energy per operation (J) -- one operation per clock cycle."""
        return self.total / self.freq_hz

    def saving_vs(self, other):
        """Percent power saving relative to ``other`` (positive = better)."""
        return 100.0 * (other.total - self.total) / other.total


class TechniqueModel:
    """Uniform frequency -> power surface of one applied technique.

    Concrete models are plain picklable scalar bundles (the chunked
    parallel runner ships them to worker processes) and implement
    ``__fingerprint__`` so evaluations land in the content-addressed
    result cache.
    """

    #: Registry key of the technique this model evaluates.
    technique = "technique"

    def fmax(self):
        """Highest feasible frequency (Hz) of the transformed design."""
        raise NotImplementedError

    def breakdown(self, freq_hz):
        """Power decomposition at ``freq_hz``; raises
        :class:`~repro.errors.TechniqueError` (or another
        :class:`~repro.errors.ReproError`) when infeasible."""
        raise NotImplementedError

    def _check_freq(self, freq_hz):
        if freq_hz <= 0:
            raise TechniqueError("frequency must be positive")
        fmax = self.fmax()
        if freq_hz > fmax * 1.0001:
            raise TechniqueError(
                "{:.3g} Hz exceeds {} Fmax {:.3g} Hz".format(
                    freq_hz, self.technique, fmax))

    def _power_points(self, freqs):
        """Batch-evaluate a frequency axis; ``None`` marks infeasible
        points.  Calls :meth:`breakdown` per point, so a subclass or
        instance override of it is honoured."""
        out = []
        for f in freqs:
            try:
                out.append(self.breakdown(f))
            except ReproError:
                out.append(None)
        return out


class Technique:
    """Strategy interface: one power-gating scheme as a plugin.

    Instances are stateless; register one per scheme with
    :func:`repro.techniques.register_technique`.  The protocol:

    ``check(design)``
        Cheap eligibility/constraint checks; returns an
        :class:`EligibilityReport`.
    ``transform(design, **options)``
        The netlist transform; returns a technique-specific bundle
        (e.g. :class:`~repro.scpg.transform.ScpgDesign`).
    ``artifact_table(transformed)``
        A picklable snapshot of the transform, able to rebuild the
        power model without the netlist (the per-technique analogue of
        :class:`~repro.scpg.power_model.ScpgModelTable`).
    ``compare_input(handle, e_cycle)``
        What ``sweep_model`` builds a comparison column from: by
        default the transform of the handle's design.
    ``sweep_model(transformed, *, library, e_cycle, base_leakage,
    base_sta, vdd)``
        The uniform :class:`TechniqueModel` used by
        ``Session.compare_techniques``.

    A technique that declares a :attr:`version` has its comparison
    column -- the model and the area overhead -- stored under a key
    formed before any transform runs, so a repeated comparison reads
    it back instead of rebuilding it.
    """

    #: Registry key (``repro compare --techniques <name>,...``).
    name = "technique"

    #: One-line citation of the scheme being reproduced.
    paper = ""

    #: Version tag of the comparison column, part of its store key.
    #: Declaring one says the column depends only on the key's inputs:
    #: the design, the base figures, the supply and the source code
    #: (digested automatically).  Bump it when the column comes to
    #: depend on anything else; ``None`` never stores the column.
    version = None

    def check(self, design, clock_port="clk"):
        raise NotImplementedError

    def transform(self, design, **options):
        raise NotImplementedError

    def compare_input(self, handle, e_cycle):
        """The ``transformed`` argument of :meth:`sweep_model` for a
        comparison of ``handle`` (a :class:`~repro.session.DesignHandle`)
        with the shared switched-energy estimate ``e_cycle``; its
        ``area_overhead_pct``, if any, is the column's.  The default
        transforms the handle's design and ignores ``e_cycle``; CBTSTC
        forwards it to its header sizing, and SCPG returns the model
        table the handle's artifact bundle already holds."""
        return self.transform(handle.design)

    def artifact_table(self, transformed):
        raise NotImplementedError

    def sweep_model(self, transformed, *, library, e_cycle, base_leakage,
                    base_sta, vdd=None):
        raise NotImplementedError

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, self.name)


def _flat_cell_instances(design):
    """Every instance of a flat design, or ``None`` when hierarchical."""
    instances = list(design.top.instances())
    if any(not inst.is_cell for inst in instances):
        return None
    return instances


def common_checks(technique, design, clock_port="clk",
                  needs_clock=True):
    """Eligibility issues every gating technique shares.

    A flat netlist, a clock port (for schemes that derive their control
    from the clock), and at least one gatable combinational cell.
    """
    from ..power.leakage import GATABLE_KINDS

    issues = []
    instances = _flat_cell_instances(design)
    if instances is None:
        issues.append(EligibilityIssue(
            "hierarchical",
            "design must be flat (call design.flatten() first)"))
        return EligibilityReport(technique, issues)
    if needs_clock and not design.top.has_port(clock_port):
        issues.append(EligibilityIssue(
            "no-clock",
            "design has no clock port {!r}".format(clock_port)))
    if not any(inst.cell.kind in GATABLE_KINDS for inst in instances):
        issues.append(EligibilityIssue(
            "no-gatable-logic",
            "design has no gatable combinational cells"))
    return EligibilityReport(technique, issues)
