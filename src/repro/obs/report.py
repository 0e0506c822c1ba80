"""Journal/trace replay: turn a run's JSONL record into a report.

``repro report run.jsonl`` (and :func:`render_report` underneath) reads
the append-only record a run left behind -- :class:`~repro.runner.
journal.RunJournal` events, :class:`~repro.obs.trace.Tracer` span lines,
or one file carrying both -- and answers the operator questions the raw
stream cannot: where did the time go per grid and per stage, what were
the cache and artifact hit ratios, and did anything behave anomalously
(straggler points, retry storms, cold-cache runs, crashes, hard
failures).

The parser is deliberately forgiving, like :func:`~repro.runner.journal.
read_journal`: unknown events are ignored, truncated files (a run killed
mid-write) produce a partial report flagged ``aborted`` rather than an
error, and journals written before a field existed degrade to "unknown"
instead of guessing.  Stdlib only -- this module must import without the
runner so the obs package stays dependency-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: A point is a straggler when it costs more than ``k`` x the p95 of its
#: grid (and more than a floor that keeps micro-second noise out).
DEFAULT_STRAGGLER_K = 3.0
_STRAGGLER_FLOOR_S = 1e-4
#: A grid suffered a retry storm when extra attempts exceed
#: ``max(3, RETRY_STORM_FRACTION * points)``.
RETRY_STORM_FRACTION = 0.05


def load_events(source):
    """Event dicts from a JSONL path (or pass a list through unchanged).

    Unparseable lines are skipped, mirroring ``read_journal`` -- a
    report over a crashed run's record must not itself crash.
    """
    if not isinstance(source, (str, bytes)) and not hasattr(source, "read"):
        return list(source)
    events = []
    f = source if hasattr(source, "read") else open(source)
    try:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
    finally:
        if f is not source:
            f.close()
    return events


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``None`` when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class GridRecord:
    """One ``run_start`` .. ``run_finish`` window of the journal."""

    label: str = None
    points: int = 0
    cached: int = 0
    pending: int = 0
    workers: int = 1
    cache: bool = None          # None: journal predates the field
    elapsed: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    ok: int = 0
    infeasible: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    requeued: int = 0
    failed: list = field(default_factory=list)
    batches: int = 0
    chunks: int = 0
    per_chunk: int = None       # None: not a pool run (or old journal)
    chunk_elapsed: list = field(default_factory=list)
    bisects: int = 0
    poisoned: int = 0
    finished: bool = False

    @property
    def evaluated(self):
        return len(self.elapsed)

    @property
    def total_s(self):
        return sum(self.elapsed)

    def p95(self):
        return percentile(self.elapsed, 0.95)

    def stragglers(self, k=DEFAULT_STRAGGLER_K):
        """``(index, elapsed, ratio)`` for points slower than ``k`` x p95."""
        if len(self.elapsed) < 4:
            return []
        p95 = self.p95()
        threshold = max(k * p95, _STRAGGLER_FLOOR_S)
        return [
            (idx, t, t / p95 if p95 else float("inf"))
            for idx, t in zip(self.indices, self.elapsed)
            if t > threshold
        ]


@dataclass
class Anomaly:
    """One flagged finding; ``kind`` is a stable machine-readable tag."""

    kind: str
    message: str

    def __str__(self):
        return "[{}] {}".format(self.kind, self.message)


class JournalReport:
    """Parsed + aggregated view of one journal/trace event stream."""

    def __init__(self, events, straggler_k=DEFAULT_STRAGGLER_K):
        self.straggler_k = straggler_k
        self.grids = []
        self.artifact_hits = 0
        self.artifact_misses = 0
        self.artifact_builds = []      # (design, elapsed)
        self.final_stats = None        # last run_finish stats dict
        self.spans = []                # raw span lines
        self._parse(events)

    # -- parsing -----------------------------------------------------------

    def _parse(self, events):
        current = None
        for ev in events:
            name = ev.get("event")
            if name == "run_start":
                if current is not None:
                    self.grids.append(current)   # aborted predecessor
                current = GridRecord(
                    label=ev.get("label"),
                    points=ev.get("points", 0),
                    cached=ev.get("cached", 0),
                    pending=ev.get("pending", 0),
                    workers=ev.get("workers", 1),
                    cache=ev.get("cache"),
                )
            elif name == "run_finish":
                if current is not None:
                    current.finished = True
                    self.grids.append(current)
                    current = None
                stats = ev.get("stats")
                if isinstance(stats, dict):
                    self.final_stats = stats
            elif name == "span":
                self.spans.append(ev)
            elif current is None:
                if name == "artifact_hit":
                    self.artifact_hits += 1
                elif name == "artifact_miss":
                    self.artifact_misses += 1
                elif name == "artifact_built":
                    self.artifact_builds.append(
                        (ev.get("design", "?"), ev.get("elapsed", 0.0)))
            elif name == "point_finished":
                current.elapsed.append(ev.get("elapsed", 0.0))
                current.indices.append(ev.get("index", -1))
                if ev.get("status") == "infeasible":
                    current.infeasible += 1
                else:
                    current.ok += 1
                current.retries += ev.get("attempts", 0)
                current.timeouts += ev.get("timeouts", 0)
            elif name == "point_failed":
                current.failed.append(ev)
                current.retries += ev.get("attempts", 0)
                current.timeouts += ev.get("timeouts", 0)
            elif name == "pool_crashed":
                current.crashes += 1
            elif name == "requeue_serial":
                current.requeued += ev.get("points", 0)
            elif name == "batch_started":
                current.batches += 1
            elif name == "chunks_planned":
                current.chunks += ev.get("chunks", 0)
                current.per_chunk = ev.get("per_chunk")
            elif name == "chunk_finished":
                current.chunk_elapsed.append(ev.get("elapsed", 0.0))
            elif name == "chunk_bisected":
                current.bisects += 1
            elif name == "chunk_failed":
                current.poisoned += 1
            elif name == "artifact_hit":
                self.artifact_hits += 1
            elif name == "artifact_miss":
                self.artifact_misses += 1
            elif name == "artifact_built":
                self.artifact_builds.append(
                    (ev.get("design", "?"), ev.get("elapsed", 0.0)))
        if current is not None:
            self.grids.append(current)

    # -- aggregation -------------------------------------------------------

    def by_label(self):
        """Grids folded per label, insertion-ordered ``{label: [runs]}``."""
        out = {}
        for grid in self.grids:
            out.setdefault(grid.label or "(unlabelled)", []).append(grid)
        return out

    def stage_seconds(self):
        """``{(label, stage): seconds}`` from span lines, or the final
        journalled stats' stage totals under the label ``"(all)"``.

        Stage spans are joined to their parent grid spans through the
        span ids, so per-design labels survive into the stage table when
        a trace was recorded alongside the journal.
        """
        if self.spans:
            grids = {s.get("id"): s for s in self.spans
                     if s.get("name") == "grid"}
            totals = {}
            for span in self.spans:
                if span.get("name") != "stage":
                    continue
                parent = grids.get(span.get("parent"))
                label = (parent or {}).get("label") or "(all)"
                key = (label, span.get("stage", "?"))
                totals[key] = totals.get(key, 0.0) \
                    + (span.get("elapsed") or 0.0)
            if totals:
                return totals
        if self.final_stats:
            return {("(all)", stage): seconds for stage, seconds
                    in self.final_stats.get("stages", {}).items()}
        return {}

    def anomalies(self):
        """Every flagged finding, stable order (see :class:`Anomaly`)."""
        out = []
        for n, grid in enumerate(self.grids):
            label = grid.label or "(unlabelled)"
            for idx, t, ratio in grid.stragglers(self.straggler_k):
                out.append(Anomaly(
                    "straggler",
                    "{} run {}: point {} took {:.6g} s = {:.1f} x p95 "
                    "({:.6g} s)".format(label, n, idx, t, ratio,
                                        grid.p95())))
            storm_floor = max(3, int(RETRY_STORM_FRACTION * grid.points))
            if grid.retries > storm_floor:
                out.append(Anomaly(
                    "retry-storm",
                    "{} run {}: {} extra attempts over {} points".format(
                        label, n, grid.retries, grid.points)))
            if grid.cache and grid.cached == 0 and grid.points >= 2:
                out.append(Anomaly(
                    "cold-cache",
                    "{} run {}: 0/{} points served from the result "
                    "cache".format(label, n, grid.points)))
            if grid.bisects:
                out.append(Anomaly(
                    "chunk-bisect",
                    "{} run {}: {} chunk bisection(s), {} poison "
                    "point(s) isolated".format(label, n, grid.bisects,
                                               grid.poisoned)))
            if grid.crashes:
                out.append(Anomaly(
                    "pool-crash",
                    "{} run {}: {} worker-pool crash(es), {} points "
                    "requeued serial".format(label, n, grid.crashes,
                                             grid.requeued)))
            if grid.timeouts:
                out.append(Anomaly(
                    "timeouts",
                    "{} run {}: {} attempt(s) hit the per-point "
                    "timeout".format(label, n, grid.timeouts)))
            for ev in grid.failed:
                out.append(Anomaly(
                    "hard-failure",
                    "{} run {}: point {} failed: {}".format(
                        label, n, ev.get("index"), ev.get("error"))))
            if not grid.finished:
                out.append(Anomaly(
                    "aborted",
                    "{} run {}: no run_finish recorded (killed "
                    "mid-run?)".format(label, n)))
        return out

    # -- rendering ---------------------------------------------------------

    def render(self):
        """The full plain-text report."""
        lines = []
        total_points = sum(g.points for g in self.grids)
        total_cached = sum(g.cached for g in self.grids)
        total_eval = sum(g.evaluated for g in self.grids)
        lines.append(
            "journal report: {} grid run(s), {} points "
            "({} cached, {} evaluated)".format(
                len(self.grids), total_points, total_cached, total_eval))

        if self.grids:
            lines.append("")
            lines.append("per-grid breakdown")
            header = ("{:<24} {:>4} {:>7} {:>7} {:>6} {:>6} {:>5} {:>4} "
                      "{:>9} {:>9} {:>9} {:>9}")
            lines.append(header.format(
                "label", "runs", "points", "cached", "eval", "infeas",
                "retry", "t/o", "total_s", "mean_ms", "p95_ms", "max_ms"))
            lines.append("-" * 108)
            for label, runs in self.by_label().items():
                elapsed = [t for g in runs for t in g.elapsed]
                mean = sum(elapsed) / len(elapsed) if elapsed else 0.0
                p95 = percentile(elapsed, 0.95) or 0.0
                lines.append(
                    ("{:<24} {:>4} {:>7} {:>7} {:>6} {:>6} {:>5} {:>4} "
                     "{:>9.4f} {:>9.3f} {:>9.3f} {:>9.3f}").format(
                        label[:24], len(runs),
                        sum(g.points for g in runs),
                        sum(g.cached for g in runs),
                        sum(g.evaluated for g in runs),
                        sum(g.infeasible for g in runs),
                        sum(g.retries for g in runs),
                        sum(g.timeouts for g in runs),
                        sum(elapsed), mean * 1e3, p95 * 1e3,
                        (max(elapsed) if elapsed else 0.0) * 1e3))

        chunked = [(label, runs) for label, runs in self.by_label().items()
                   if any(g.chunks for g in runs)]
        if chunked:
            lines.append("")
            lines.append("chunked dispatch")
            lines.append("{:<24} {:>7} {:>7} {:>8} {:>9} {:>7}".format(
                "label", "chunks", "size", "bisects", "mean_ms", "max_ms"))
            lines.append("-" * 66)
            for label, runs in chunked:
                elapsed = [t for g in runs for t in g.chunk_elapsed]
                sizes = {g.per_chunk for g in runs
                         if g.per_chunk is not None}
                lines.append(
                    "{:<24} {:>7} {:>7} {:>8} {:>9.3f} {:>7.3f}".format(
                        label[:24],
                        sum(g.chunks for g in runs),
                        "/".join(str(s) for s in sorted(sizes)) or "?",
                        sum(g.bisects for g in runs),
                        (sum(elapsed) / len(elapsed) if elapsed else 0.0)
                        * 1e3,
                        (max(elapsed) if elapsed else 0.0) * 1e3))

        stages = self.stage_seconds()
        if stages:
            total = sum(stages.values()) or 1.0
            lines.append("")
            lines.append("stage timings")
            lines.append("{:<24} {:<14} {:>10} {:>7}".format(
                "label", "stage", "seconds", "share"))
            lines.append("-" * 58)
            for (label, stage), seconds in sorted(
                    stages.items(), key=lambda kv: -kv[1]):
                lines.append("{:<24} {:<14} {:>10.4f} {:>6.1f}%".format(
                    label[:24], stage, seconds, 100.0 * seconds / total))

        lines.append("")
        lines.append("caches")
        if total_points:
            lines.append(
                "  result cache : {}/{} points served ({:.1f}%)".format(
                    total_cached, total_points,
                    100.0 * total_cached / total_points))
        else:
            lines.append("  result cache : no grid runs recorded")
        art_total = self.artifact_hits + self.artifact_misses
        if art_total:
            lines.append(
                "  artifacts    : {} hit(s), {} miss(es) "
                "({:.1f}%)".format(
                    self.artifact_hits, self.artifact_misses,
                    100.0 * self.artifact_hits / art_total))
            for design, elapsed in self.artifact_builds:
                lines.append(
                    "                 built {} in {:.4f} s".format(
                        design, elapsed))

        lines.append("")
        anomalies = self.anomalies()
        if anomalies:
            lines.append("anomalies ({})".format(len(anomalies)))
            for anomaly in anomalies:
                lines.append("  - {}".format(anomaly))
        else:
            lines.append("anomalies: none detected")
        return "\n".join(lines) + "\n"


def render_report(source, straggler_k=DEFAULT_STRAGGLER_K):
    """Text report for a JSONL path, file object or event list."""
    return JournalReport(load_events(source),
                         straggler_k=straggler_k).render()
