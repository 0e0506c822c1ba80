"""Per-circuit artifact bundles: compile once, evaluate many.

Every grid point of a sweep changes only the operating point (duty, VDD,
frequency), never the circuit.  So each analysis the Session runs on a
design keeps its circuit-shaped work in a compiled form, and the bundle
stores those forms together:

* ``timing`` -- the :class:`~repro.sta.analysis.TimingAnalysis` itself
  (the netlist lowered to its index program);
* ``switching`` -- the :class:`~repro.power.probabilistic.
  SwitchedCapacitance` (activity estimate and priced per-net loads);
* ``scpg`` -- the :class:`~repro.scpg.power_model.ScpgModelTable` of the
  SCPG transform (the transformed netlist's leakage lowering, nominal
  timing, rail model, isolation count and area overhead) -- also the
  SCPG column of a technique comparison;
* ``gate_sim`` -- the :class:`~repro.sim.compiled.CompiledSchedule`.

Each is the owning module's own compiled form, not a copy of its
arithmetic, so a bundle answers exactly what the module answers.  None
of them keeps a ``Net`` or ``Instance``, so a bundle pickles.

Bundles are keyed by the owning handle's content fingerprint (netlist +
library), so editing the circuit or the library *changes the key* and
stale bundles are simply never read again.  An :class:`ArtifactStore`
memoises bundles in-process and shares them across processes through the
same :class:`~repro.runner.sqlite_store.SqliteStore` the point results
use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..obs.trace import NULL_TRACER
# At module level, so ``repro.runner.artifacts.ScpgModelTable`` names the
# table a bundle stores (perfbench's layer ledger times ``build_model``
# under ``scpg.model`` through this binding).
from ..scpg.power_model import ScpgModelTable
from .journal import NULL_JOURNAL

#: Cache-key namespace (bump when the bundle's layout changes; a bundle
#: filed under another schema is ignored and rebuilt).
#: v4: the bundle stores TimingAnalysis, SwitchedCapacitance,
#: ScpgModelTable (with a LeakageSoa) and the CompiledSchedule; no
#: separate leakage table or domain partition.
#: v5: the CompiledSchedule's lowering carries no net capacitances.
#: v6: the ScpgModelTable carries the transform's area overhead.
ARTIFACT_SCHEMA = "circuit-artifacts-v6"


@dataclass
class CircuitArtifacts:
    """One circuit's compiled analyses, ready to pickle."""

    schema: str = ARTIFACT_SCHEMA
    fingerprint: str = ""
    design_name: str = ""
    timing: object = None       # TimingAnalysis
    switching: object = None    # SwitchedCapacitance
    scpg: object = None         # ScpgModelTable
    gate_sim: object = None     # CompiledSchedule

    @classmethod
    def build(cls, design, fingerprint="", name=""):
        """Compile every analysis of ``design`` once.

        The SCPG transform runs with the same vectorless
        ``energy_per_cycle`` the Session's default path feeds it, so
        header sizing -- and with it every downstream number -- matches.
        """
        from ..power.probabilistic import SwitchedCapacitance
        from ..scpg.transform import _apply_scpg
        from ..sim.compiled import schedule_for
        from ..sta.analysis import timing_for

        library = design.library
        top = design.top
        # Held here first, so the SCPG transform shares this lowering.
        timing = timing_for(top, library)
        switching = SwitchedCapacitance.compile(top, library)
        e_cycle, _ = switching.evaluate(library)
        scpg_design = _apply_scpg(design, energy_per_cycle=e_cycle)
        return cls(
            fingerprint=fingerprint,
            design_name=name,
            timing=timing,
            switching=switching,
            scpg=ScpgModelTable.compile(scpg_design),
            gate_sim=schedule_for(top),
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
