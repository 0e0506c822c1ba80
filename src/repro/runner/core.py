"""Grid evaluation: fan sweep points over workers, through the store.

:func:`evaluate_grid` is the one primitive every analysis rides on.  It
takes a plain function (and optionally a batch kernel) and a list of
points and returns one result per point, in point order, regardless of
how the work was scheduled:

* **two executors** -- a grid runs either in-process (one kernel batch
  call, or the per-point loop) or as chunks on a
  :class:`~repro.runner.pool.WorkerPool`.  With ``workers > 1`` every
  pending point travels in a chunk: a kernel grid ships contiguous
  chunks (adaptive size ``pending / (4 * workers)``, clamped to
  ``[CHUNK_FLOOR, CHUNK_CAP]``) and runs the *kernel* inside the
  worker; a fn-only grid ships chunks of one point that run under the
  full per-point retry/timeout/``on_error`` policy inside the worker.
  A session's warm pool serves the grid when one is given; otherwise
  the grid starts an ephemeral pool that it owns and closes.
  Submission is bounded: at most :data:`MAX_INFLIGHT_PER_WORKER`
  ``* workers`` chunks are in flight, so a 10k-point grid never
  enqueues everything up front;
* **two state transports** -- an ephemeral pool started with ``fork``
  inherits the grid state copy-on-write (closures and unpicklable case
  studies work); a warm pool and ``spawn`` platforms receive it as one
  pickled blob per grid, unpickled once per worker per grid epoch.
  State that can neither be inherited nor pickled runs in-process with
  identical results;
* **poison isolation** -- a chunk that raises is bisected and
  resubmitted until the poison point is isolated, journaled, and re-run
  in the parent under the per-point policy after every healthy chunk
  has landed; an in-process kernel call that raises falls back to the
  per-point loop.  Either way the poison's siblings lose nothing;
* **caching** -- with a :class:`~repro.runner.sqlite_store.SqliteStore`
  and a ``cache_key`` describing the heavy context, each point is looked
  up before evaluation and **flushed back incrementally** as its result
  arrives, so an abort, a hard error or a dead worker never loses paid
  work.  Soft-error (infeasible) points are stored too, as an explicit
  marker;
* **soft errors** -- exception types in ``on_error`` map to ``None``
  results (the convention the sweep code has always used for infeasible
  operating points); anything else propagates;
* **fault tolerance** -- exception types in ``retry_on`` (and per-point
  timeouts) are retried with exponential backoff before counting; a
  worker killed under the pool (OOM, SIGKILL) is detected instead of
  hanging the run: completed chunks are salvaged, the pool restarts and
  the remainder is re-run in-process, so the sweep still returns
  results bit-identical to an all-serial run;
* **observability** -- a :class:`~repro.runner.journal.RunJournal`
  records every point finished/retried, every chunk
  submitted/finished/bisected, crashes and stage totals as append-only
  JSONL; traces nest ``chunk`` spans between ``stage`` and ``point``.

:class:`Runner` bundles a worker count, a store, a retry policy, a
journal, an optional warm pool and a
:class:`~repro.runner.instrument.RunStats` into one reusable policy
object; :class:`CachedEvaluator` is its point-at-a-time sibling for
search loops (bisection, golden section) that cannot batch.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from ..errors import PointTimeoutError, RunnerError
from ..obs.trace import NULL_TRACER
from .fingerprint import fingerprint
from .instrument import RunStats
from .journal import NULL_JOURNAL, RunJournal
from .pool import WorkerPool, _start_method, resolve_workers
from .sqlite_store import open_store


class _NoContext:
    """Sentinel type: "no shared context" (``fn(point)``, not
    ``fn(context, point)``).  The sentinel is the *class itself*, not an
    instance: classes pickle by reference, so the ``context is
    _NO_CONTEXT`` identity test still holds inside workers that received
    the grid state as a pickled blob."""


_NO_CONTEXT = _NoContext

#: Stored for points whose evaluation raised a soft error, so
#: deterministic infeasibility is a warm-store no-op like any other result.
INFEASIBLE_MARKER = "__repro:infeasible__"

#: Default retry policy: up to 2 extra attempts, 50 ms base backoff.
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.05

#: Bounded submission: at most this many chunks in flight per worker
#: (the "k" in "k * workers").
MAX_INFLIGHT_PER_WORKER = 4

#: Adaptive chunk sizing for kernel grids: aim for this many chunks per
#: worker (so a straggling chunk rebalances instead of serialising the
#: tail) ...
CHUNK_SHARDS_PER_WORKER = 4
#: ... clamped to this many points per chunk.  The floor keeps the
#: per-chunk IPC amortised over several points even on tiny grids; the
#: cap bounds how much work one dead worker can lose.
CHUNK_FLOOR = 4
CHUNK_CAP = 2048

#: ``(epoch, (fn, kernel, context, policy))`` of one grid.  The parent
#: sets it immediately before an ephemeral ``fork`` pool starts, so the
#: workers inherit it; a worker sets its own copy when it unpickles a
#: grid's blob, so a warm pool reused across many grids unpickles each
#: grid's state once per worker, not once per chunk.  Guarded by
#: :data:`_FORK_LOCK` in the parent so threaded callers get a clean
#: error instead of silently racing on the slot.
_GRID_STATE = None
_FORK_LOCK = threading.Lock()

#: Monotonic id per dispatched grid state (the key of :data:`_GRID_STATE`).
_STATE_EPOCHS = itertools.count(1)


def _state_blob(state):
    """``pickle.dumps(state)``, or ``None`` when any piece refuses."""
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def _call(fn, context, point):
    if context is _NO_CONTEXT:
        return fn(point)
    return fn(context, point)


@contextmanager
def _point_alarm(timeout):
    """Bound one evaluation attempt to ``timeout`` seconds (best effort).

    Uses ``SIGALRM``/``ITIMER_REAL``, so it only engages on Unix, in the
    main thread, and when no other real-time timer is pending (e.g. a
    ``pytest-timeout`` signal guard); anywhere else it is a no-op rather
    than a wrong answer.  Pool workers always qualify: POSIX clears
    interval timers across ``fork`` and the task runs in the worker's
    main thread.
    """
    if not timeout or not hasattr(signal, "setitimer") \
            or threading.current_thread() is not threading.main_thread() \
            or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        yield
        return

    def _expired(signum, frame):
        raise PointTimeoutError(
            "point evaluation exceeded {:.3g} s".format(timeout))

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _eval_point(fn, context, point, on_error, retry_on, retries, backoff,
                timeout, tracer=NULL_TRACER):
    """One point through the retry/timeout policy.

    Returns the outcome ``(value, status, attempts, timeouts)`` where
    ``status`` is ``"ok"``, ``"soft"`` (infeasible) or ``"hard"``
    (``value`` is the exception, re-raised by :func:`_record_point` after
    the counters and journal have seen it), ``attempts`` is the number of
    *extra* attempts paid and ``timeouts`` how many attempts the alarm
    cut short.  Exceptions outside ``retry_on``/``on_error`` -- and
    retryable ones once retries are exhausted, unless they also appear in
    ``on_error`` -- are the hard ones.  ``tracer`` (in-process only;
    workers always pass the no-op default) gets one ``attempt`` span per
    try.
    """
    caught = None
    attempts = 0
    ntimeouts = 0
    for attempt in range(retries + 1):
        attempts = attempt
        with tracer.span("attempt", n=attempt):
            try:
                with _point_alarm(timeout):
                    return _call(fn, context, point), "ok", attempt, \
                        ntimeouts
            except PointTimeoutError as exc:
                ntimeouts += 1
                caught = exc
            except retry_on as exc:
                caught = exc
            except on_error:
                return None, "soft", attempt, ntimeouts
            except Exception as exc:
                return exc, "hard", attempt, ntimeouts
        if attempt < retries and backoff:
            time.sleep(backoff * (2 ** attempt))
    if on_error and isinstance(caught, on_error):
        return None, "soft", attempts, ntimeouts
    return caught, "hard", attempts, ntimeouts


def _kernel_outcomes(kernel, points):
    """One kernel call over ``points`` as per-point outcomes (``None``
    marks an infeasible point; kernels pay no retries)."""
    values = list(kernel(points))
    if len(values) != len(points):
        raise RunnerError(
            "batch kernel returned {} results for {} points".format(
                len(values), len(points)))
    return [(value, "ok" if value is not None else "soft", 0, 0)
            for value in values]


def _grid_state(epoch, blob):
    """The grid state a chunk task evaluates against: the inherited or
    memoised slot when it belongs to this grid, else ``blob`` unpickled
    once and memoised under the grid's epoch."""
    global _GRID_STATE
    slot = _GRID_STATE
    if slot is not None and slot[0] == epoch:
        return slot[1]
    if blob is None:
        raise RunnerError("grid state was neither inherited nor shipped")
    state = pickle.loads(blob)
    _GRID_STATE = (epoch, state)
    return state


def _chunk_eval(task):
    """One contiguous chunk of points inside a pool worker.

    Returns ``(outcomes, elapsed)`` with one outcome per point.  A
    kernel grid runs the kernel once and lets any exception propagate to
    the parent, which bisects the chunk; a fn grid runs each point
    through :func:`_eval_point`, so retries, timeouts and ``on_error``
    apply inside the worker exactly as in-process.
    """
    items, epoch, blob = task
    fn, kernel, context, policy = _grid_state(epoch, blob)
    start = time.perf_counter()
    if kernel is not None:
        outcomes = _kernel_outcomes(kernel, [point for _, point in items])
    else:
        outcomes = [_eval_point(fn, context, point, *policy)
                    for _, point in items]
    return outcomes, time.perf_counter() - start


def _chunk_points(npending, nworkers):
    """Points per kernel chunk: :data:`CHUNK_SHARDS_PER_WORKER` chunks
    per worker, clamped to ``[CHUNK_FLOOR, CHUNK_CAP]``."""
    target = -(-npending // (CHUNK_SHARDS_PER_WORKER * max(nworkers, 1)))
    return max(CHUNK_FLOOR, min(CHUNK_CAP, target))


def evaluate_grid(fn, points, workers=None, context=_NO_CONTEXT,
                  cache=None, cache_key=None, on_error=(), stats=None,
                  retry_on=(), retries=DEFAULT_RETRIES,
                  backoff=DEFAULT_BACKOFF, timeout=None, journal=None,
                  label=None, kernel=None, tracer=None, metrics=None,
                  pool=None):
    """Evaluate ``fn`` over ``points``; returns results in point order.

    Parameters
    ----------
    fn:
        ``fn(point)`` -- or ``fn(context, point)`` when ``context`` is
        given.  Return values must be picklable when ``workers > 1``.
    points:
        The grid.  Points must be fingerprintable when caching and
        picklable when running parallel.
    workers:
        ``None`` -> in-process; ``0`` -> one per core; ``N`` -> at most N
        pool workers.  ``fork`` pools are preferred; platforms without
        ``fork`` use ``spawn`` pools (grid state pickled once), and
        where neither works -- or the state is unpicklable under spawn
        -- the grid runs in-process with identical results.
    context:
        Heavy shared state -- models, libraries and case studies go
        here.  Inherited copy-on-write by the workers of an ephemeral
        fork pool (never pickled); shipped as one pickled blob per grid
        to a warm pool or spawn workers.
    cache / cache_key:
        A :class:`~repro.runner.sqlite_store.SqliteStore` plus a digest
        of everything that defines the evaluation besides the point
        itself.  Caching is skipped unless both are given.  Each result
        is written back as it arrives, so an aborted run keeps
        everything it paid for.
    on_error:
        Exception types that mean "this point is infeasible"; they yield
        ``None`` results instead of propagating.
    stats:
        A :class:`RunStats` to accumulate into (one is created -- and
        discarded -- when omitted).
    retry_on / retries / backoff:
        Exception types considered transient; each matching failure is
        retried up to ``retries`` extra times with ``backoff * 2**n``
        seconds between attempts.  An exception still raised after the
        last attempt propagates -- unless it also appears in
        ``on_error``, in which case the point degrades to infeasible.
    timeout:
        Per-point wall-clock bound in seconds (best effort; see
        :class:`~repro.errors.PointTimeoutError`).  Timed-out attempts
        are retried like ``retry_on`` failures.
    journal:
        A :class:`~repro.runner.journal.RunJournal` (or a path -- opened
        and closed for this run) receiving JSONL events for every point.
    label:
        Short name for this grid in the journal (``"sweep"``,
        ``"energy_sweep"``, ...).
    kernel:
        Optional batch kernel ``kernel(pending_points)`` -- usually a
        model's own batch method (``ScpgPowerModel._power_points``,
        ``SubvtModel._supply_batch``, ``TechniqueModel._power_points``,
        ``CompiledSchedule.evaluate``), but any callable of that shape
        works -- that evaluates a list of points in one pass, returning
        one value per point with ``None`` marking infeasible points.
        In-process runs feed it every missed point at once; pool runs
        shard the missed points into contiguous chunks and run the
        kernel inside the workers, so it must be picklable (a bound
        method of a picklable model is).  It must produce results
        bit-identical to ``fn`` per point, with ``on_error`` exceptions
        already mapped to ``None``.
        The retry/timeout policy does not apply inside a kernel call
        (kernels are pure arithmetic) -- but a kernel that raises is
        routed around: the poison point is isolated and re-run through
        ``fn`` under the full per-point policy.  Per-point store
        writeback and journal events are preserved on every path.
    tracer:
        A :class:`~repro.obs.trace.Tracer` producing nested spans
        (``grid`` -> ``stage`` -> [``chunk`` | ``batch`` ->] ``point``
        -> ``attempt``).  Defaults to the no-op
        :data:`~repro.obs.trace.NULL_TRACER`, whose cost is held under
        2 % of a sweep point by ``benchmarks/test_obs_overhead.py``.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; the run observes
        per-point latency (``repro_point_seconds``) and, on the pool,
        queue wait (``repro_queue_wait_seconds``), per-chunk latency
        (``repro_chunk_seconds``) and the chosen chunk size
        (``repro_points_per_chunk``) into it.  Counters are *not* incremented
        live -- export them by snapshotting ``stats`` via
        ``fill_from_stats`` so the two ledgers cannot drift.
    pool:
        A warm :class:`~repro.runner.pool.WorkerPool` to dispatch chunks
        on instead of starting an ephemeral pool for this grid --
        workers stay warm across grids.  A closed pool, or grid state
        that will not pickle, makes the grid use an ephemeral pool
        instead (results identical).
    """
    points = list(points)
    stats = RunStats() if stats is None else stats
    stats.points += len(points)
    on_error = tuple(on_error)
    retry_on = tuple(retry_on)
    use_cache = cache is not None and cache_key is not None
    tracer = NULL_TRACER if tracer is None else tracer
    point_hist = None
    if metrics is not None:
        point_hist = metrics.histogram(
            "repro_point_seconds",
            "wall-clock per evaluated grid point")

    owns_journal = isinstance(journal, (str, os.PathLike))
    if owns_journal:
        journal = RunJournal(journal)
    elif journal is None:
        journal = NULL_JOURNAL

    results = [None] * len(points)
    keys = [None] * len(points)
    pending = []
    try:
        with tracer.span("grid", label=label,
                         points=len(points)) as grid_span:
            if use_cache:
                with stats.stage("cache"), \
                        tracer.span("stage", stage="cache"):
                    for index, point in enumerate(points):
                        key = cache.key_for(cache_key,
                                            fingerprint(point))
                        keys[index] = key
                        hit, value = cache.lookup(key)
                        if hit:
                            stats.cache_hits += 1
                            if isinstance(value, str) \
                                    and value == INFEASIBLE_MARKER:
                                stats.infeasible += 1
                                value = None
                            results[index] = value
                        else:
                            stats.cache_misses += 1
                            pending.append((index, point))
            else:
                pending = list(enumerate(points))

            if use_cache:
                def flush(index, soft):
                    value = INFEASIBLE_MARKER if soft \
                        else results[index]
                    cache.writeback(keys[index], value)
            else:
                def flush(index, soft):
                    pass

            nworkers = min(resolve_workers(workers),
                           max(len(pending), 1))
            stats.workers = max(stats.workers, nworkers)
            journal.record("run_start", label=label, points=len(points),
                           cached=len(points) - len(pending),
                           pending=len(pending), workers=nworkers,
                           cache=use_cache)
            grid_span.set(cached=len(points) - len(pending),
                          pending=len(pending), workers=nworkers)
            errored = set()
            if pending:
                with stats.stage("evaluate"), \
                        tracer.span("stage", stage="evaluate"):
                    run = _GridRun(fn, kernel, context,
                                   (on_error, retry_on, retries, backoff,
                                    timeout),
                                   results, errored, stats, journal, flush,
                                   tracer, metrics, point_hist, label)
                    leftover = pending
                    if nworkers > 1:
                        leftover = run.on_pool(pending, nworkers, pool)
                    if leftover:
                        run.in_process(leftover)
                stats.evaluated += len(pending)
                stats.infeasible += len(errored)
            journal.record("run_finish", label=label,
                           stats=stats.to_dict())
    finally:
        if owns_journal:
            journal.close()
    return results


_SPAN_STATUS = {"ok": "ok", "soft": "infeasible", "hard": "failed"}


class _GridRun:
    """The state of one grid's evaluation and its two executors:
    :meth:`in_process` and :meth:`on_pool`.  Both fold every finished
    point through :meth:`_record_point`, so results, store writeback,
    counters and journal lines do not depend on where a point ran."""

    def __init__(self, fn, kernel, context, policy, results, errored,
                 stats, journal, flush, tracer, metrics, point_hist,
                 label):
        self.fn = fn
        self.kernel = kernel
        self.context = context
        self.policy = policy
        self.results = results
        self.errored = errored
        self.stats = stats
        self.journal = journal
        self.flush = flush
        self.tracer = tracer
        self.metrics = metrics
        self.point_hist = point_hist
        self.label = label
        #: Hard failures that came back from pool workers, recorded --
        #: and raised -- only after every other chunk has landed.
        self.failed = []

    # -- recording -------------------------------------------------------------

    def _record_point(self, index, outcome, elapsed):
        """Fold one finished point into the run state.

        Hard failures are re-raised here -- *after* the retry/timeout
        counters and the journal have recorded them, so an aborted run's
        stats and black box still tell the truth.
        """
        value, status, attempts, ntimeouts = outcome
        stats, journal = self.stats, self.journal
        stats.retries += attempts
        stats.timeouts += ntimeouts
        if status == "hard":
            journal.record("point_failed", index=index, attempts=attempts,
                           timeouts=ntimeouts, error=repr(value))
            raise value
        self.results[index] = value
        soft = status == "soft"
        if soft:
            self.errored.add(index)
        if attempts:
            journal.record("point_retried", index=index, attempts=attempts)
        journal.record("point_finished", index=index,
                       status="infeasible" if soft else "ok",
                       attempts=attempts, timeouts=ntimeouts,
                       elapsed=round(elapsed, 6))
        self.flush(index, soft)

    def _record_shared(self, items, outcomes, elapsed, chunk_span=None):
        """Record the points of one kernel call or chunk; their
        ``elapsed`` is the call's wall-clock split evenly, since points
        are not timed individually inside it.  A chunk's points also get
        spans under ``chunk_span``, and its hard failures are deferred
        to :attr:`failed`.  Returns the infeasible count."""
        share = round(elapsed / len(items), 6) if items else 0.0
        parent = getattr(chunk_span, "span_id", None)
        nsoft = 0
        for (index, _), outcome in zip(items, outcomes):
            status = outcome[1]
            nsoft += status == "soft"
            if chunk_span is not None:
                self.tracer.record("point", share, parent_id=parent,
                                   index=index,
                                   status=_SPAN_STATUS[status],
                                   attempts=outcome[2])
            if self.point_hist is not None:
                self.point_hist.observe(share)
            if status == "hard" and chunk_span is not None:
                self.failed.append((index, outcome, share))
                continue
            self._record_point(index, outcome, share)
        return nsoft

    # -- in-process executor ---------------------------------------------------

    def in_process(self, pending):
        """One kernel batch call when a kernel was given, else the
        per-point loop.  A kernel that raises (other than breaking its
        own length contract) hands the batch to the per-point loop, which
        isolates the poison under the full policy."""
        if self.kernel is None:
            self._run_serial(pending)
            return
        try:
            self._run_batch(pending)
        except RunnerError:
            raise
        except Exception as exc:
            self.journal.record("batch_failed", label=self.label,
                                points=len(pending), error=repr(exc))
            self._run_serial(pending)

    def _run_serial(self, pending):
        tracer = self.tracer
        for index, point in pending:
            self.journal.record("point_started", index=index)
            start = time.perf_counter()
            with tracer.span("point", index=index) as span:
                outcome = _eval_point(self.fn, self.context, point,
                                      *self.policy, tracer)
                span.set(status=_SPAN_STATUS[outcome[1]],
                         attempts=outcome[2])
            elapsed = time.perf_counter() - start
            if self.point_hist is not None:
                self.point_hist.observe(elapsed)
            self._record_point(index, outcome, elapsed)

    def _run_batch(self, pending):
        """All of ``pending`` through one kernel call.  The trace gets
        one ``batch`` span for the call; the journal one
        ``point_finished`` line per point."""
        pts = [point for _, point in pending]
        self.journal.record("batch_started", label=self.label,
                            points=len(pts))
        start = time.perf_counter()
        with self.tracer.span("batch", label=self.label, points=len(pts)):
            outcomes = _kernel_outcomes(self.kernel, pts)
        elapsed = time.perf_counter() - start
        nsoft = self._record_shared(pending, outcomes, elapsed)
        self.journal.record("batch_finished", label=self.label,
                            points=len(pts), ok=len(pts) - nsoft,
                            infeasible=nsoft, elapsed=round(elapsed, 6))

    # -- pool executor ---------------------------------------------------------

    def on_pool(self, pending, nworkers, pool):
        """Shard ``pending`` into chunks and run them on a pool.

        A warm ``pool`` receives the grid state as a blob; without one
        (or when the state will not pickle) an ephemeral pool is started
        for this grid -- fork workers inherit the state, spawn workers
        get the blob.  A chunk that raises is bisected and resubmitted
        until the poison point is isolated at size 1; isolated points
        re-run in the parent under the per-point policy *after* every
        healthy chunk has landed.

        A point that failed hard inside a worker is raised only after
        the other chunks have landed (and the isolated points re-run), so
        its siblings are kept.

        Returns the points left for the in-process executor: none on
        completion, the unfinished ones after a pool crash, or all of
        them when no worker can be reached (nested caller, unpicklable
        state under spawn).
        """
        global _GRID_STATE
        method = _start_method()
        if method is None:
            return pending
        state = (self.fn, self.kernel, self.context, self.policy)
        blob = None
        warm = pool is not None and not pool.closed
        if warm:
            blob = _state_blob(state)
            warm = blob is not None
        if not warm:
            blob = None if method == "fork" else _state_blob(state)
            if method != "fork" and blob is None:
                return pending
        if not _FORK_LOCK.acquire(blocking=False):
            raise RunnerError(
                "another thread is already running a parallel "
                "evaluate_grid; concurrent callers must use workers=None")
        epoch = next(_STATE_EPOCHS)
        try:
            if not warm:
                pool = WorkerPool(workers=nworkers, method=method)
                if blob is None:
                    _GRID_STATE = (epoch, state)
            return self._dispatch(pending, pool, warm, epoch, blob)
        finally:
            if not warm:
                pool.close()
            _GRID_STATE = None
            _FORK_LOCK.release()

    def _dispatch(self, pending, pool, warm, epoch, blob):
        journal = self.journal
        executor = pool.executor()
        nworkers = pool.workers
        size = 1 if self.kernel is None \
            else _chunk_points(len(pending), nworkers)
        chunk_hist = wait_hist = None
        if self.metrics is not None:
            chunk_hist = self.metrics.histogram(
                "repro_chunk_seconds",
                "wall-clock per dispatched chunk")
            wait_hist = self.metrics.histogram(
                "repro_queue_wait_seconds",
                "submit-to-result latency minus evaluation time "
                "(pool executor)")
            self.metrics.gauge(
                "repro_points_per_chunk",
                "points per chunk in the most recent pool grid"
            ).set(size)
        ids = itertools.count(1)
        backlog = deque((next(ids), pending[lo:lo + size])
                        for lo in range(0, len(pending), size))
        nchunks = len(backlog)
        journal.record("chunks_planned", label=self.label,
                       points=len(pending), chunks=nchunks,
                       per_chunk=size, workers=nworkers, warm=warm)
        limit = MAX_INFLIGHT_PER_WORKER * nworkers
        inflight = {}
        poisoned = []
        peak = 0
        try:
            while backlog or inflight:
                while backlog and len(inflight) < limit:
                    # Peek, submit, then pop: a submit refused by a pool
                    # that just broke must leave the chunk in the backlog
                    # for the salvage.
                    chunk_id, items = backlog[0]
                    fut = executor.submit(_chunk_eval,
                                          (items, epoch, blob))
                    backlog.popleft()
                    inflight[fut] = (chunk_id, items, time.perf_counter())
                    journal.record("chunk_submitted", chunk=chunk_id,
                                   points=len(items), first=items[0][0],
                                   last=items[-1][0])
                peak = max(peak, len(inflight))
                ready, _ = wait(list(inflight),
                                return_when=FIRST_COMPLETED)
                for fut in ready:
                    chunk_id, items, submit_t = inflight.pop(fut)
                    try:
                        outcomes, elapsed = fut.result()
                    except BrokenProcessPool:
                        inflight[fut] = (chunk_id, items, submit_t)
                        raise
                    except Exception as exc:
                        self._split(chunk_id, items, exc, ids, backlog,
                                    poisoned)
                        continue
                    self._record_chunk(chunk_id, items, outcomes, elapsed,
                                       submit_t, wait_hist, chunk_hist)
        except BrokenProcessPool:
            leftover = self._salvage(inflight, backlog, wait_hist,
                                     chunk_hist)
            self.stats.crashes += 1
            journal.record("pool_crashed", workers=nworkers,
                           completed=len(pending) - len(leftover)
                           - len(poisoned),
                           remaining=len(leftover) + len(poisoned))
            pool.restart()
            self._finish(poisoned)
            if leftover:
                journal.record("requeue_serial", points=len(leftover))
            return leftover
        journal.record("pool_finished", workers=nworkers,
                       method=pool.method, points=len(pending),
                       chunks=nchunks, inflight_peak=peak,
                       inflight_limit=limit)
        if poisoned:
            journal.record("requeue_serial", points=len(poisoned))
        self._finish(poisoned)
        return []

    def _finish(self, poisoned):
        """Re-run the isolated points in-process, then raise the first
        deferred worker failure (after the journal has seen it)."""
        if poisoned:
            self._run_serial(sorted(poisoned))
        for index, outcome, elapsed in sorted(self.failed,
                                              key=lambda f: f[0]):
            self._record_point(index, outcome, elapsed)

    def _split(self, chunk_id, items, exc, ids, backlog, poisoned):
        """A chunk raised: isolate a single point as poison, or bisect
        and put both halves at the front of the backlog."""
        if len(items) == 1:
            self.journal.record("chunk_failed", chunk=chunk_id,
                                index=items[0][0], error=repr(exc))
            poisoned.append(items[0])
            return
        mid = len(items) // 2
        left, right = next(ids), next(ids)
        self.journal.record("chunk_bisected", chunk=chunk_id,
                            points=len(items), into=[left, right],
                            error=repr(exc))
        backlog.appendleft((right, items[mid:]))
        backlog.appendleft((left, items[:mid]))

    def _record_chunk(self, chunk_id, items, outcomes, elapsed, submit_t,
                      wait_hist=None, chunk_hist=None):
        """Fold one finished chunk into the run state: a ``chunk`` span
        parenting its point spans (the worker never traces; both are
        recorded here from the worker-reported wall-clock), queue-wait
        accounting and the per-point contract of :meth:`_record_shared`.
        Queue wait is arrival minus submission minus evaluation, floored
        at zero (clock jitter must not produce negative waits)."""
        wait_s = max(time.perf_counter() - submit_t - elapsed, 0.0)
        span = self.tracer.record("chunk", elapsed, chunk=chunk_id,
                                  points=len(items), wait=round(wait_s, 6))
        if chunk_hist is not None:
            chunk_hist.observe(elapsed)
        if wait_hist is not None:
            wait_hist.observe(wait_s)
        nsoft = self._record_shared(items, outcomes, elapsed,
                                    chunk_span=span)
        self.journal.record("chunk_finished", chunk=chunk_id,
                            points=len(items),
                            ok=sum(o[1] == "ok" for o in outcomes),
                            infeasible=nsoft, elapsed=round(elapsed, 6),
                            wait=round(wait_s, 6))

    def _salvage(self, inflight, backlog, wait_hist, chunk_hist):
        """After a pool crash: record every chunk whose result arrived,
        return the points of the rest (plus the never-submitted backlog)
        for the in-process requeue, in point order."""
        leftover = []
        for fut, (chunk_id, items, submit_t) in inflight.items():
            payload = None
            if fut.done() and not fut.cancelled():
                try:
                    payload = fut.result(timeout=0)
                except BaseException:
                    payload = None
            if payload is None:
                leftover.extend(items)
            else:
                self._record_chunk(chunk_id, items, *payload, submit_t,
                                   wait_hist, chunk_hist)
        for _, items in backlog:
            leftover.extend(items)
        leftover.sort(key=lambda item: item[0])
        return leftover


class CachedEvaluator:
    """Point-at-a-time evaluation with memoisation and the shared store.

    For search loops that cannot batch their points up front.  Results are
    memoised in process and, when the owning :class:`Runner` has a cache
    and the evaluator a ``cache_key``, persisted like grid results.
    Exceptions always propagate (a search loop must see infeasibility);
    cached infeasible markers are treated as misses for the same reason --
    on *both* ledgers, so ``stats.hit_rate`` and the cache's own counters
    agree.

    ``calls`` counts actual underlying evaluations -- the number a
    convergence search pays after caching, which tests assert on.
    """

    def __init__(self, fn, cache=None, cache_key=None, stats=None):
        self.fn = fn
        self.cache = cache if cache_key is not None else None
        self.cache_key = cache_key
        self.stats = RunStats() if stats is None else stats
        self.calls = 0
        self._memo = {}

    def __call__(self, point):
        token = fingerprint(point)
        self.stats.points += 1
        if token in self._memo:
            self.stats.cache_hits += 1
            return self._memo[token]
        key = None
        if self.cache is not None:
            key = self.cache.key_for(self.cache_key, token)
            hit, value = self.cache.lookup(key)
            if hit and isinstance(value, str) \
                    and value == INFEASIBLE_MARKER:
                # The search loop must recompute, so the persisted
                # marker counts as a miss in the cache's ledger too.
                self.cache.reclassify_hit_as_miss()
                hit = False
            if hit:
                self.stats.cache_hits += 1
                self._memo[token] = value
                return value
            self.stats.cache_misses += 1
        value = self.fn(point)
        self.calls += 1
        self.stats.evaluated += 1
        self._memo[token] = value
        if key is not None:
            self.cache.put(key, value)
        return value


class Runner:
    """One execution policy -- workers, cache, retries, journal, stats --
    reused across runs.

    ``cache`` may be a :class:`~repro.runner.sqlite_store.SqliteStore`,
    the path of its database file, or ``None`` (no caching); ``journal``
    a :class:`~repro.runner.journal.RunJournal` or a path (opened once,
    shared by every run).  ``retry_on`` / ``retries`` / ``backoff`` /
    ``timeout`` set the fault-tolerance policy every grid run under this
    runner inherits.  ``pool`` may be a
    :class:`~repro.runner.pool.WorkerPool` whose warm workers serve
    every parallel grid (the runner does not own it -- whoever built the
    pool closes it).  All grids and evaluators created through one
    runner accumulate into the same :class:`RunStats`, so a report can
    summarise a whole figure regeneration in one line.
    """

    def __init__(self, workers=None, cache=None, stats=None, retry_on=(),
                 retries=DEFAULT_RETRIES, backoff=DEFAULT_BACKOFF,
                 timeout=None, journal=None, tracer=None, metrics=None,
                 pool=None):
        self.workers = workers
        if isinstance(cache, (str, os.PathLike)):
            cache = open_store(cache)
        self.cache = cache
        self.stats = RunStats() if stats is None else stats
        self.retry_on = tuple(retry_on)
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        if isinstance(journal, (str, os.PathLike)):
            journal = RunJournal(journal)
        self.journal = journal
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.pool = pool

    def run(self, fn, points, context=_NO_CONTEXT, cache_key=None,
            on_error=(), label=None, kernel=None):
        """:func:`evaluate_grid` under this runner's policy."""
        return evaluate_grid(
            fn, points, workers=self.workers, context=context,
            cache=self.cache, cache_key=cache_key, on_error=on_error,
            stats=self.stats, retry_on=self.retry_on,
            retries=self.retries, backoff=self.backoff,
            timeout=self.timeout, journal=self.journal, label=label,
            kernel=kernel, tracer=self.tracer, metrics=self.metrics,
            pool=self.pool)

    def evaluator(self, fn, cache_key=None):
        """A :class:`CachedEvaluator` sharing this runner's cache/stats."""
        return CachedEvaluator(fn, cache=self.cache, cache_key=cache_key,
                               stats=self.stats)

    def close(self):
        """Flush and close the journal, if any (idempotent).  The pool,
        when one was passed in, belongs to its creator and stays warm."""
        if self.journal is not None:
            self.journal.close()

    def __repr__(self):
        return "Runner(workers={!r}, cache={!r})".format(
            self.workers, self.cache)
