"""Per-run instrumentation: what the runner did.

A :class:`RunStats` accumulates across every grid the owning runner
executes -- points seen, points actually evaluated, cache hits/misses,
infeasible points, retries/timeouts/worker crashes -- so a report can
print one honest summary line for a whole figure regeneration, and
``to_dict()`` can ship the same numbers to a ``--stats-json`` file or a
CI artifact.  Where the time went is in the spans (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class RunStats:
    """Counters for one runner (or one run)."""

    points: int = 0           # grid points requested
    evaluated: int = 0        # points actually computed (not cache/memo)
    cache_hits: int = 0
    cache_misses: int = 0
    infeasible: int = 0       # points whose evaluation raised a soft error
    retries: int = 0          # extra evaluation attempts paid (all points)
    timeouts: int = 0         # attempts cut short by the per-point timeout
    crashes: int = 0          # worker pools lost to a dead worker
    artifact_hits: int = 0    # per-circuit artifact bundles served from cache
    artifact_misses: int = 0  # bundles that had to be built
    workers: int = 1          # widest worker pool used

    @property
    def hit_rate(self):
        """Cache hit fraction over all lookups (0.0 with no cache)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self):
        """All counters, and the derived ``hit_rate``, as plain
        JSON-serialisable data."""
        return dict(asdict(self), hit_rate=self.hit_rate)

    def render(self, prefix="runner"):
        """A compact multi-line summary (safe for stderr/report footers)."""
        lines = [
            "{}: {} points, {} evaluated, {} cache hits, "
            "{} cache misses, {} infeasible, workers {}".format(
                prefix, self.points, self.evaluated, self.cache_hits,
                self.cache_misses, self.infeasible, self.workers)
        ]
        if self.retries or self.timeouts or self.crashes:
            lines.append(
                "{}: {} retries, {} timeouts, {} worker crashes".format(
                    prefix, self.retries, self.timeouts, self.crashes))
        if self.artifact_hits or self.artifact_misses:
            lines.append(
                "{}: {} artifact hits, {} artifact misses".format(
                    prefix, self.artifact_hits, self.artifact_misses))
        return "\n".join(lines)
