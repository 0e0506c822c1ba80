"""Pluggable power-gating techniques.

The paper's sub-clock power gating is one point in the active-mode
leakage design space.  This package makes the scheme a *strategy*: each
technique implements the :class:`~repro.techniques.base.Technique`
protocol (eligibility checks, netlist transform, artifact table,
uniform power model) and registers under a key, so the Session, the
runner and the golden machinery stay technique-agnostic::

    from repro.techniques import technique, available_techniques

    scpg = technique("scpg")
    report = scpg.check(design)          # EligibilityReport
    transformed = scpg.transform(design) # ScpgDesign

Shipped techniques:

``scpg``
    The source paper's sub-clock power gating (DATE 2011) -- clock-
    derived sleep within every cycle, headers on a split combinational
    domain.
``cbtstc``
    Cluster-based tunable sleep transistor cells (arXiv 1310.3203) --
    per-cluster sized and bias-tuned sleep transistors, activity-driven
    gating.
``lector``
    Leakage-control transistor insertion (arXiv 1805.07409) -- self-
    stacked gates, no sleep control at all.

``Session.compare_techniques`` / ``repro compare`` evaluate any subset
of the registry on one design over one frequency grid (see
:mod:`repro.techniques.compare`).
"""

from __future__ import annotations

from ..errors import RegistryError
from .base import (
    EligibilityIssue,
    EligibilityReport,
    Technique,
    TechniqueBreakdown,
    TechniqueModel,
)
from .cbtstc import CbtstcTechnique
from .compare import (
    DEFAULT_COMPARE_FREQS,
    TechniqueComparison,
    format_comparison,
    run_comparison,
)
from .lector import LectorTechnique
from .scpg import ScpgTechnique

__all__ = [
    "EligibilityIssue",
    "EligibilityReport",
    "Technique",
    "TechniqueBreakdown",
    "TechniqueModel",
    "register_technique",
    "technique",
    "available_techniques",
    "run_comparison",
    "format_comparison",
    "TechniqueComparison",
    "DEFAULT_COMPARE_FREQS",
    "ScpgTechnique",
    "CbtstcTechnique",
    "LectorTechnique",
]

_REGISTRY = {}


def register_technique(tech):
    """Register a :class:`~repro.techniques.base.Technique` instance
    under its :attr:`~repro.techniques.base.Technique.name`.

    Duplicate names are an error -- replacing a scheme silently would
    corrupt cross-technique comparisons and cached artifacts.
    """
    if not isinstance(tech, Technique):
        raise RegistryError(
            "register_technique needs a Technique instance, got {!r}"
            .format(tech))
    if tech.name in _REGISTRY:
        raise RegistryError(
            "technique {!r} is already registered".format(tech.name))
    _REGISTRY[tech.name] = tech
    return tech


def technique(name):
    """Look up a registered technique by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RegistryError(
            "unknown technique {!r}; available: {}".format(
                name, ", ".join(available_techniques()))) from None


def available_techniques():
    """Sorted names of every registered technique."""
    return sorted(_REGISTRY)


register_technique(ScpgTechnique())
register_technique(CbtstcTechnique())
register_technique(LectorTechnique())
