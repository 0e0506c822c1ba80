"""The sweep job service: FIFO scheduling over one warm Session.

:class:`SweepService` is the engine behind the HTTP front-end (and
usable directly, which is how most of the test suite drives it): clients
:meth:`~SweepService.submit` :class:`~repro.serve.jobs.JobSpec` objects,
a single worker thread executes them strictly in submission order
through one shared :class:`~repro.Session`, and each job's progress
streams into its own JSONL journal under the service's spool directory:
lifecycle lines (``job_submitted``, ``job_started``, ``job_accounting``,
``job_finished`` / ``job_failed`` / ``job_cancelled``) around the
tracer spans of the job's grids.

Why one worker thread and not a pool of them: the runner already
parallelises *inside* a grid (``Session(workers=N)`` forks a warm
:class:`~repro.runner.WorkerPool`), and the process-wide fork lock in
:mod:`repro.runner.core` serialises concurrent grids anyway.  Serial
jobs over a parallel runner keeps ordering fair (strict FIFO -- the
load tests assert started-timestamps are monotone with submission),
keeps per-job cache accounting exact (the stats deltas around a job
belong to that job alone), and loses no throughput.

Cross-job dedupe is the point of the shared session: every sweep point
is content-addressed through the session's result cache (an
:class:`~repro.runner.SqliteStore` when serving for real), so two
tenants submitting overlapping grids each pay only for the points the
other has not already computed.  Each finished job reports its own
``cache_hits`` / ``cache_misses`` and the derived ``dedupe`` ratio.
"""

from __future__ import annotations

import itertools
import os
import queue
import tempfile
import threading
import time

from ..errors import ServeError
from ..obs.trace import JsonlSink, Tracer
from .jobs import JobSpec, sweep_to_dict, table_rows_to_dicts

#: Monotone job-id source, process-wide so two services in one process
#: (a test fixture and the CLI, say) never mint colliding ids.
_JOB_IDS = itertools.count(1)


def _lifecycle(sink, event, **fields):
    """Append one job lifecycle line to a job journal."""
    sink.emit(dict(fields, t=time.time(), event=event))


class Job:
    """One submitted job: spec, lifecycle state and (eventually) result.

    States move ``queued -> running -> done | failed``, or
    ``queued -> cancelled``; a running job cannot be cancelled (the
    runner offers no preemption and a half-torn grid helps nobody).
    All mutation happens under the owning service's lock.
    """

    def __init__(self, job_id, spec, journal_path):
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.journal_path = journal_path
        self.submitted = time.time()
        self.started = None
        self.finished = None
        self.error = None
        self.result = None
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def dedupe(self):
        """Fraction of this job's cache lookups served by earlier work
        (its own earlier points or any other job's)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def latency(self):
        """Submit-to-finish seconds (``None`` until terminal)."""
        if self.finished is None:
            return None
        return self.finished - self.submitted

    def status_dict(self):
        """JSON-ready status (everything but the result payload)."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "latency": self.latency,
            "error": self.error,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "dedupe": self.dedupe,
            "journal": self.journal_path,
        }

    def __repr__(self):
        return "Job({!r}, {}, {})".format(self.id, self.spec.kind,
                                          self.state)


class SweepService:
    """FIFO job execution over one shared :class:`~repro.Session`.

    Parameters
    ----------
    session:
        The :class:`~repro.Session` jobs execute through; when ``None``
        the service builds its own from ``session_kwargs`` (with
        ``metrics=True`` unless overridden) and closes it on
        :meth:`close`.
    spool:
        Directory for per-job journals (``job-<id>.jsonl``); a temp
        directory is created when omitted.
    start:
        Start the worker thread immediately (default).  ``start=False``
        leaves submissions queued -- how the cancellation tests pin a
        job in the queued state deterministically.
    """

    def __init__(self, session=None, spool=None, start=True,
                 **session_kwargs):
        if session is None:
            session_kwargs.setdefault("metrics", True)
            from ..session import Session

            session = Session(**session_kwargs)
            self._owns_session = True
        elif session_kwargs:
            raise ValueError(
                "pass either session or session kwargs, not both")
        else:
            self._owns_session = False
        self.session = session
        if spool is None:
            spool = tempfile.mkdtemp(prefix="repro-serve-")
        os.makedirs(spool, exist_ok=True)
        self.spool = str(spool)
        self._jobs = {}
        self._order = []
        self._queue = queue.Queue()
        self._lock = threading.Lock()
        self._handles = {}
        self._worker = None
        self._closed = False
        if start:
            self.start()

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Start the worker thread (idempotent)."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._drain, name="repro-serve-worker", daemon=True)
            self._worker.start()

    def close(self, timeout=30.0):
        """Stop the worker after the current job, cancel everything still
        queued, and close a service-owned session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for job in self._jobs.values():
                if job.state == "queued":
                    self._finish(job, "cancelled")
        if self._worker is not None and self._worker.is_alive():
            self._queue.put(None)
            self._worker.join(timeout=timeout)
        if self._owns_session:
            self.session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- client surface --------------------------------------------------------

    def submit(self, spec):
        """Queue one job; returns its :class:`Job` immediately.

        ``spec`` is a :class:`~repro.serve.jobs.JobSpec` or the dict
        form (validated through :meth:`JobSpec.from_dict`).
        """
        if self._closed:
            raise ServeError("service is closed")
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        job_id = "job-{:06d}".format(next(_JOB_IDS))
        path = os.path.join(self.spool, job_id + ".jsonl")
        job = Job(job_id, spec, path)
        sink = JsonlSink(path)
        _lifecycle(sink, "job_submitted", id=job_id, kind=spec.kind,
                   tenant=spec.tenant, spec=spec.to_dict())
        sink.close()
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
        self._queue.put(job_id)
        return job

    def get(self, job_id):
        """The :class:`Job` for an id; unknown ids raise
        :class:`~repro.errors.ServeError`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError("unknown job id {!r}".format(job_id))
        return job

    def jobs(self, tenant=None):
        """All jobs in submission order (optionally one tenant's)."""
        with self._lock:
            out = [self._jobs[job_id] for job_id in self._order]
        if tenant is not None:
            out = [job for job in out if job.spec.tenant == tenant]
        return out

    def cancel(self, job_id):
        """Cancel a queued job; returns its :class:`Job`.

        Only the queued state is cancellable -- a running grid cannot be
        preempted, and terminal states stay what they are; both raise
        :class:`~repro.errors.ServeError` so the HTTP layer can say why.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state != "queued":
                raise ServeError(
                    "job {!r} is {}, only queued jobs cancel".format(
                        job_id, job.state))
            self._finish(job, "cancelled")
        return job

    def counts(self):
        """``{state: count}`` over every job the service has seen."""
        out = {state: 0 for state in
               ("queued", "running", "done", "failed", "cancelled")}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def render_metrics(self):
        """Prometheus text: the session's full registry (runner stats +
        result-cache counters) plus the serve-level series -- jobs by
        state, the cross-job dedupe ratio, and a job-latency histogram."""
        registry = self.session.metrics()
        hits = misses = 0
        latencies = []
        for state, count in self.counts().items():
            registry.gauge("repro_serve_jobs",
                           "jobs by lifecycle state",
                           state=state).set(count)
        with self._lock:
            for job in self._jobs.values():
                hits += job.cache_hits
                misses += job.cache_misses
                if job.latency is not None:
                    latencies.append(job.latency)
        lookups = hits + misses
        registry.gauge(
            "repro_serve_dedupe_ratio",
            "fraction of job cache lookups served by earlier work").set(
            hits / lookups if lookups else 0.0)
        hist = registry.histogram("repro_serve_job_seconds",
                                  "submit-to-finish job latency")
        # Snapshot semantics, like fill_from_stats: rebuild rather than
        # double-count on repeated scrapes.
        hist.__init__(hist.name, help=hist.help, labels=hist.labels,
                      buckets=hist.bounds)
        for latency in latencies:
            hist.observe(latency)
        return registry.render()

    # -- execution -------------------------------------------------------------

    def _drain(self):
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            with self._lock:
                if job is None or job.state != "queued":
                    continue  # cancelled while queued
                job.state = "running"
                job.started = time.time()
            self._run_job(job)

    def _run_job(self, job):
        """Run one job with the session's tracer swapped for one writing
        the job's journal, so its grids' spans land there."""
        sink = JsonlSink(job.journal_path)
        runner, artifacts = self.session.runner, self.session.artifacts
        previous = runner.tracer
        runner.tracer = artifacts.tracer = Tracer(sink)
        stats = self.session.stats
        hits0, misses0 = stats.cache_hits, stats.cache_misses
        _lifecycle(sink, "job_started", id=job.id, kind=job.spec.kind,
                   tenant=job.spec.tenant)
        try:
            result, error = self._execute(job.spec), None
        except Exception as exc:
            result = None
            error = "{}: {}".format(type(exc).__name__, exc)
        # Accounting lands *before* the terminal-state flip: a client
        # that sees "done" sees this job's final hit/miss numbers.
        job.cache_hits = stats.cache_hits - hits0
        job.cache_misses = stats.cache_misses - misses0
        runner.tracer = artifacts.tracer = previous
        _lifecycle(sink, "job_accounting", id=job.id,
                   cache_hits=job.cache_hits,
                   cache_misses=job.cache_misses, dedupe=job.dedupe)
        sink.close()
        with self._lock:
            if error is None:
                job.result = result
                self._finish(job, "done")
            else:
                job.error = error
                self._finish(job, "failed")

    def _finish(self, job, state):
        """Move a job to a terminal state and write its journal's last
        line (caller holds the lock)."""
        job.state = state
        job.finished = time.time()
        event = {"done": "job_finished", "failed": "job_failed",
                 "cancelled": "job_cancelled"}[state]
        sink = JsonlSink(job.journal_path)
        _lifecycle(sink, event, id=job.id, error=job.error)
        sink.close()

    def _handle(self, design, params):
        """Memoised :class:`~repro.session.DesignHandle` so repeat jobs
        on one design reuse its built netlist/model, not just its cached
        sweep points."""
        key = (design, tuple(sorted(params.items())))
        handle = self._handles.get(key)
        if handle is None:
            handle = self.session.design(design, **params)
            self._handles[key] = handle
        return handle

    def _execute(self, spec):
        if spec.kind == "sweep":
            handle = self._handle(spec.design, spec.params)
            data = handle.sweep(list(spec.freqs),
                                modes=spec.mode_objects())
            return sweep_to_dict(data)
        if spec.kind == "compare":
            comparison = self.session.compare_techniques(
                self._handle(spec.design, spec.params),
                freqs=list(spec.freqs) or None,
                techniques=list(spec.techniques)
                if spec.techniques else None,
                vdd=spec.vdd)
            return comparison.as_dict()
        # family_sweep: one Table-style block per design in the family's
        # expanded parameter grid.
        handles = self.session.expand_family(spec.family, **spec.axes)
        freqs = list(spec.freqs) or None
        out = {"family": spec.family, "designs": []}
        for handle in handles:
            rows = handle.table(freqs) if freqs else handle.table(
                _DEFAULT_TABLE_FREQS)
            out["designs"].append({
                "design": handle.name,
                "rows": table_rows_to_dicts(rows),
            })
        return out

    def __repr__(self):
        counts = self.counts()
        return "SweepService({} jobs, {} done, {} queued)".format(
            len(self._jobs), counts["done"], counts["queued"])


#: Fallback grid for family_sweep jobs submitted without freqs: the
#: paper's Table I/II operating points.
_DEFAULT_TABLE_FREQS = (1e4, 1e5, 1e6, 5e6)
