"""Sub-clock power gating as a registered technique (the source paper).

The transform, flow and power model live in :mod:`repro.scpg` /
:mod:`repro.flows` exactly as before -- this module is the plugin
adapter: eligibility checks, the artifact table, and the uniform
comparison model.  The numbers are bit-identical to the pre-plugin
entry points because the adapter delegates to the same code.
"""

from __future__ import annotations

from ..scpg.power_model import Mode, ScpgModelTable, ScpgPowerModel
from ..scpg.transform import _apply_scpg
from .base import (
    Technique,
    TechniqueBreakdown,
    TechniqueModel,
    common_checks,
)


def _to_breakdown(b):
    """:class:`~repro.scpg.power_model.PowerBreakdown` -> the uniform
    :class:`TechniqueBreakdown` (same buckets, leakage folded)."""
    if b is None:
        return None
    return TechniqueBreakdown(
        technique="scpg", freq_hz=b.freq_hz,
        p_dynamic=b.p_dynamic, p_overhead=b.p_overhead,
        p_leak=b.leakage, total=b.total)


class ScpgCompareModel(TechniqueModel):
    """The SCPG power model behind the uniform technique surface.

    Wraps a pristine :class:`~repro.scpg.power_model.ScpgPowerModel`
    and evaluates one mode (SCPG-Max by default -- the paper's best
    configuration); the batch path rides ``_freq_batch`` so the numbers
    are bit-identical to the Table I/II sweeps.
    """

    technique = "scpg"

    def __init__(self, model, mode=Mode.SCPG_MAX):
        self.model = model
        self.mode = mode

    def __fingerprint__(self):
        return ("technique-scpg-v1", self.model, self.mode.value)

    def fmax(self):
        return self.model.feasible_fmax(self.mode)

    def breakdown(self, freq_hz):
        return _to_breakdown(self.model.power(freq_hz, self.mode))

    def _power_points(self, freqs):
        # ``_freq_batch`` bypasses ``breakdown`` and the inner model's
        # ``power``: a subclass or an instance override of either takes
        # the per-point loop instead.
        if type(self) is not ScpgCompareModel or "breakdown" in vars(self) \
                or type(self.model) is not ScpgPowerModel \
                or "power" in vars(self.model):
            return super()._power_points(freqs)
        values = self.model._freq_batch(list(freqs), self.mode)
        return [_to_breakdown(b) for b in values]


class ScpgTechnique(Technique):
    """The paper's sub-clock power gating, as the first plugin."""

    name = "scpg"
    paper = "Sub-clock power gating (DATE 2011)"
    version = "scpg-column-v1"

    def check(self, design, clock_port="clk"):
        return common_checks(self.name, design, clock_port=clock_port)

    def transform(self, design, **options):
        """Apply SCPG; see :func:`repro.scpg.transform._apply_scpg` for
        the options (``clock_port``, ``header_size``,
        ``energy_per_cycle``, ``rail_params``, ...)."""
        return _apply_scpg(design, **options)

    def compare_input(self, handle, e_cycle):
        """The :class:`~repro.scpg.power_model.ScpgModelTable` of the
        handle's artifact bundle: the bundle ran this same transform with
        the same vectorless ``e_cycle``."""
        return handle.artifacts().scpg

    def implement(self, design_builder, library, **options):
        """The full Fig. 5 implementation flow (synthesis, centred
        floorplan, CTS, routing) with a baseline comparison; see
        :func:`repro.flows.scpg_flow._run_scpg_flow`."""
        from ..flows.scpg_flow import _run_scpg_flow

        return _run_scpg_flow(design_builder, library, **options)

    def artifact_table(self, transformed):
        return ScpgModelTable.compile(transformed)

    def sweep_model(self, table, *, library, e_cycle, base_leakage,
                    base_sta, vdd=None):
        """The comparison model from an
        :class:`~repro.scpg.power_model.ScpgModelTable` (what
        :meth:`compare_input` returns), with the unmodified design's base
        leakage wired in -- the construction
        :meth:`~repro.scpg.power_model.ScpgPowerModel.from_scpg_design`
        runs."""
        model = table.build_model(library, e_cycle, vdd=vdd)
        model.leak_comb_base = base_leakage.combinational
        model.leak_alwayson_base = base_leakage.always_on
        return ScpgCompareModel(model)
