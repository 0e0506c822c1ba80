"""Trace replay: turn a run's JSONL record into a report.

``repro report run.jsonl`` (and :func:`render_report` underneath) reads
the :class:`~repro.obs.trace.Tracer` span lines a run left behind (a
``--trace`` file, a serve job's journal) and answers the operator
questions the raw stream cannot: where did the time go per grid, per
stage and per layer (the self-time of every span name), what were the
cache and artifact hit ratios, and did anything behave anomalously
(straggler points, retry storms, cold-cache runs, chunk bisections,
crashes, timeouts, hard failures, runs killed mid-grid).

One parser builds every section from the spans.  A grid is the window
between its ``grid`` span's opening line (``elapsed: null``) and its
closing line; the ``point``, ``batch`` and ``chunk`` spans in between
belong to the innermost open grid.  The parser is deliberately
forgiving: lines it does not know (job lifecycle lines, non-objects,
spans with a non-numeric ``elapsed``) are skipped, and a truncated file
(a run killed mid-write) produces a partial report whose unclosed grids
are flagged ``aborted``, naming the point that was in flight, rather
than an error.  Stdlib only -- this module must import without the
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
    """Line dicts from a JSONL path or file object (a list of dicts
    passes through).

    Torn lines and lines that are not JSON objects are skipped -- a
    report over a crashed run's record must not itself crash.
    """
    if not isinstance(source, (str, bytes)) and not hasattr(source, "read"):
        return [event for event in source if isinstance(event, dict)]
    events = []
    f = source if hasattr(source, "read") else open(source)
    try:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                events.append(event)
    finally:
        if f is not source:
            f.close()
    return events


def _elapsed(line):
    """A closed span line's seconds; ``None`` for an opening line or a
    value that is not a number."""
    value = line.get("elapsed")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return None


def self_times(spans):
    """``{(label, name): [spans, seconds]}`` of self-time over span lines.

    A span's self-time is its elapsed time minus its direct children's,
    so nested spans are charged once and the rows of a serial run sum to
    its root spans' wall-clock; overlapping pool chunks can outlast their
    parent, which is then clamped at zero.  A ``stage`` span's row is its
    stage under its ``grid`` span's label; any other row is ``"-"`` and
    the span name.  Opening lines and lines without a numeric
    ``elapsed`` are skipped.
    """
    spans = [span for span in spans if _elapsed(span) is not None]
    children, labels = {}, {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + _elapsed(span)
        if span.get("name") == "grid":
            labels[span.get("id")] = span.get("label")
    rows = {}
    for span in spans:
        if span.get("name") == "stage":
            key = (labels.get(span.get("parent")) or "(all)",
                   span.get("stage", "?"))
        else:
            key = ("-", span.get("name", "?"))
        row = rows.setdefault(key, [0, 0.0])
        row[0] += 1
        row[1] += max(0.0, _elapsed(span)
                      - children.get(span.get("id"), 0.0))
    return rows


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``None`` when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class GridRecord:
    """One ``grid`` span: its opening line .. its closing line."""

    label: str = None
    points: int = 0
    cached: int = 0
    pending: int = 0
    workers: int = 1
    cache: bool = None          # None: the grid never closed
    elapsed: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    ok: int = 0
    infeasible: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    requeued: int = 0
    failed: list = field(default_factory=list)     # failed point spans
    chunks: int = 0
    per_chunk: int = None       # None: not a pool run
    chunk_elapsed: list = field(default_factory=list)
    bisects: int = 0
    poisoned: int = 0
    finished: bool = False
    status: str = None          # "ok" | "failed" once closed
    error: str = None
    inflight: dict = field(default_factory=dict)   # open point id -> index
    span_id: int = None

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

    def close(self, line):
        """Fold in the grid's closing line."""
        self.finished = True
        self.inflight.clear()
        for name in ("label", "points", "cached", "pending", "workers",
                     "cache", "crashes", "requeued", "chunks",
                     "per_chunk", "status", "error"):
            if name in line:
                setattr(self, name, line[name])

    def add(self, name, line, elapsed):
        """Fold in one ``point``, ``batch`` or ``chunk`` span."""
        status = line.get("status")
        if name == "point":
            self.inflight.pop(line.get("id"), None)
            self.retries += line.get("attempts", 0)
            self.timeouts += line.get("timeouts", 0)
            if status == "failed":
                self.failed.append(line)
                return
            self.elapsed.append(elapsed)
            self.indices.append(line.get("index", -1))
            if status == "infeasible":
                self.infeasible += 1
            else:
                self.ok += 1
        elif name == "batch" and status != "failed":
            # A kernel call's points share its time evenly; a failed
            # call's points re-run as point spans.
            points = line.get("points", 0)
            self.elapsed += [elapsed / points] * points
            self.indices += [-1] * points
            self.infeasible += line.get("infeasible", 0)
            self.ok += points - line.get("infeasible", 0)
        elif name == "chunk":
            if status == "bisected":
                self.bisects += 1
            elif status == "poison":
                self.poisoned += 1
            else:
                self.chunk_elapsed.append(elapsed)


@dataclass
class Anomaly:
    """One flagged finding; ``kind`` is a stable machine-readable tag."""

    kind: str
    message: str

    def __str__(self):
        return "[{}] {}".format(self.kind, self.message)


class JournalReport:
    """Parsed + aggregated view of one trace's span lines."""

    def __init__(self, events, straggler_k=DEFAULT_STRAGGLER_K):
        self.straggler_k = straggler_k
        self.grids = []
        self.artifact_hits = 0
        self.artifact_builds = []      # (design, elapsed)
        self.spans = []                # closed span lines
        self._parse(events)

    @property
    def artifact_misses(self):
        return len(self.artifact_builds)

    # -- parsing -----------------------------------------------------------

    def _parse(self, events):
        open_grids = []                # innermost last
        for line in events:
            if not isinstance(line, dict) or line.get("event") != "span":
                continue
            name = line.get("name")
            if line.get("elapsed") is None:         # an opening line
                if name == "grid":
                    grid = GridRecord(label=line.get("label"),
                                      points=line.get("points", 0),
                                      span_id=line.get("id"))
                    open_grids.append(grid)
                    self.grids.append(grid)
                elif name == "point" and open_grids:
                    open_grids[-1].inflight[line.get("id")] = \
                        line.get("index")
                continue
            elapsed = _elapsed(line)
            if elapsed is None:
                continue
            self.spans.append(line)
            if name == "grid":
                self._close_grid(open_grids, line)
            elif name == "artifact_hit":
                self.artifact_hits += 1
            elif name == "artifact_build":
                self.artifact_builds.append(
                    (line.get("design", "?"), elapsed))
            elif name in ("point", "batch", "chunk") and open_grids:
                open_grids[-1].add(name, line, elapsed)

    def _close_grid(self, open_grids, line):
        """Close the innermost open grid with this span id (grids left
        open inside it were killed); a closing line without an opening
        one still counts as a grid."""
        for depth in range(len(open_grids) - 1, -1, -1):
            if open_grids[depth].span_id == line.get("id"):
                grid = open_grids[depth]
                del open_grids[depth:]
                break
        else:
            grid = GridRecord(span_id=line.get("id"))
            self.grids.append(grid)
        grid.close(line)

    # -- aggregation -------------------------------------------------------

    def by_label(self):
        """Grids folded per label, insertion-ordered ``{label: [runs]}``."""
        out = {}
        for grid in self.grids:
            out.setdefault(grid.label or "(unlabelled)", []).append(grid)
        return out

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
            for line in grid.failed:
                out.append(Anomaly(
                    "hard-failure",
                    "{} run {}: point {} failed: {}".format(
                        label, n, line.get("index"), line.get("error"))))
            if grid.status == "failed" and not grid.failed:
                out.append(Anomaly(
                    "hard-failure",
                    "{} run {}: grid failed: {}".format(label, n,
                                                        grid.error)))
            if not grid.finished:
                inflight = "".join(
                    "; point {} in flight".format(index)
                    for index in grid.inflight.values())
                out.append(Anomaly(
                    "aborted",
                    "{} run {}: the grid span never closed (killed "
                    "mid-run?){}".format(label, n, inflight)))
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

        timings = self_times(self.spans)
        if timings:
            total = sum(seconds for _, seconds in timings.values()) or 1.0
            lines.append("")
            lines.append("timings (self-time per span)")
            lines.append("{:<24} {:<22} {:>7} {:>10} {:>7}".format(
                "label", "span", "spans", "seconds", "share"))
            lines.append("-" * 74)
            for (label, name), (count, seconds) in sorted(
                    timings.items(), key=lambda kv: -kv[1][1]):
                lines.append("{:<24} {:<22} {:>7} {:>10.4f} {:>6.1f}%"
                             .format(label[:24], name[:22], count, seconds,
                                     100.0 * seconds / total))

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
