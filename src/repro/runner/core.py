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
  resubmitted until the poison point is isolated, recorded, and re-run
  in the parent under the per-point policy after every healthy chunk
  has landed; an in-process kernel call that raises falls back to the
  per-point loop.  Either way the poison's siblings lose nothing;
* **caching** -- with a :class:`~repro.runner.sqlite_store.SqliteStore`
  and a ``cache_key`` describing the heavy context, the grid is read
  with one batched lookup and its misses are **written back per
  batch** -- one transaction per in-process batch or landed pool chunk,
  and a last one when the grid ends or aborts -- so a hard error or a
  dead worker never loses paid work.  Soft-error (infeasible) points
  are stored too, as an explicit marker;
* **soft errors** -- exception types in ``on_error`` map to ``None``
  results (the convention the sweep code has always used for infeasible
  operating points); anything else propagates;
* **fault tolerance** -- exception types in ``retry_on`` (and per-point
  timeouts) are retried with exponential backoff before counting; a
  worker killed under the pool (OOM, SIGKILL) is detected instead of
  hanging the run: completed chunks are salvaged, the pool restarts and
  the remainder is re-run in-process, so the sweep still returns
  results bit-identical to an all-serial run;
* **observability** -- tracer spans are the run's one record: a
  ``grid`` span (its cache use, dispatch plan, crash and requeue
  counts and final ``status``), ``stage`` spans, ``batch`` and
  ``chunk`` spans (``status`` ok, bisected or poison), and one
  ``point`` span per evaluated point (status, attempts, timeouts,
  error).  The ``grid`` span and the in-process ``point`` span also
  write a line when they open, so a killed run's trace shows what was
  in flight.

:class:`Runner` bundles a worker count, a store, a retry policy, a
tracer, an optional warm pool and a
:class:`~repro.runner.instrument.RunStats` into one reusable policy
object; :class:`CachedEvaluator` is its point-at-a-time sibling for
search loops (bisection, golden section) that cannot batch, writing a
search's new points in one transaction when the search ends.
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
from .pool import WorkerPool, _start_method, resolve_workers
from .sqlite_store import STORE_ERRORS, open_store


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


def _write(cache, unsaved):
    """Move the ``(key, value)`` pairs of ``unsaved`` to ``cache`` in one
    transaction, best effort: a store-side problem must not fail the run
    that paid for the points (they are then simply not stored)."""
    if unsaved:
        items = unsaved[:]
        del unsaved[:]
        try:
            cache.put_many(items)
        except STORE_ERRORS:
            pass


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
    (``value`` is the exception, re-raised by
    :meth:`_GridRun._record_point` after the counters and the trace have
    seen it), ``attempts`` is the number of *extra* attempts paid and
    ``timeouts`` how many attempts the alarm cut short.  Exceptions
    outside ``retry_on``/``on_error`` -- and retryable ones once retries
    are exhausted, unless they also appear in ``on_error`` -- are the
    hard ones.  ``tracer`` (in-process only; workers always pass the
    no-op default) gets one ``attempt`` span per try.
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
                  backoff=DEFAULT_BACKOFF, timeout=None, label=None,
                  kernel=None, tracer=None, metrics=None, pool=None):
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
        itself.  Caching is skipped unless both are given.  Results are
        written back per batch or landed chunk, and when the grid ends
        or aborts, so an aborted run keeps everything it paid for.
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
    label:
        Short name for this grid in the trace (``"sweep"``,
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
        ``fn`` under the full per-point policy.  Store writeback and
        the per-point counts are preserved on every path.
    tracer:
        A :class:`~repro.obs.trace.Tracer` producing nested spans
        (``grid`` -> ``stage`` -> [``chunk`` ->] ``point`` ->
        ``attempt``, or ``stage`` -> ``batch`` for one kernel call),
        the run's only record (see ``docs/api.md`` for every span's
        attributes).  Defaults to the no-op
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

    results = [None] * len(points)
    keys = None
    pending = []
    run = None
    with tracer.span("grid", announce=True, label=label,
                     points=len(points)) as grid_span:
        try:
            if use_cache:
                with tracer.span("stage", stage="cache"):
                    key_of = cache.key_maker(cache_key)
                    keys = [key_of(point) for point in points]
                    found = cache.lookup_many(keys)
                    for index, (hit, value) in enumerate(found):
                        if hit:
                            stats.cache_hits += 1
                            if isinstance(value, str) \
                                    and value == INFEASIBLE_MARKER:
                                stats.infeasible += 1
                                value = None
                            results[index] = value
                        else:
                            stats.cache_misses += 1
                            pending.append((index, points[index]))
            else:
                pending = list(enumerate(points))

            nworkers = min(resolve_workers(workers),
                           max(len(pending), 1))
            stats.workers = max(stats.workers, nworkers)
            grid_span.set(cache=use_cache,
                          cached=len(points) - len(pending),
                          pending=len(pending), workers=nworkers)
            errored = set()
            if pending:
                with tracer.span("stage", stage="evaluate"):
                    run = _GridRun(fn, kernel, context,
                                   (on_error, retry_on, retries, backoff,
                                    timeout),
                                   results, errored, stats,
                                   cache if use_cache else None, keys,
                                   tracer, grid_span, metrics,
                                   point_hist, label)
                    leftover = pending
                    if nworkers > 1:
                        leftover = run.on_pool(pending, nworkers, pool)
                    if leftover:
                        run.in_process(leftover)
                stats.evaluated += len(pending)
                stats.infeasible += len(errored)
            grid_span.set(status="ok")
        except BaseException as exc:
            grid_span.set(status="failed", error=repr(exc))
            raise
        finally:
            if run is not None:
                _write(cache, run.unsaved)
    return results


_SPAN_STATUS = {"ok": "ok", "soft": "infeasible", "hard": "failed"}


def _point_attrs(outcome):
    """The attributes of a finished point's span."""
    value, status, attempts, ntimeouts = outcome
    attrs = {"status": _SPAN_STATUS[status], "attempts": attempts,
             "timeouts": ntimeouts}
    if status == "hard":
        attrs["error"] = repr(value)
    return attrs


class _GridRun:
    """The state of one grid's evaluation and its two executors:
    :meth:`in_process` and :meth:`on_pool`.  Both fold every finished
    point through :meth:`_record_point`, so results, store writeback and
    counters do not depend on where a point ran.  Finished points wait
    in :attr:`unsaved` for the write after their kernel batch or chunk
    (or when the grid ends or aborts).  Dispatch facts (chunk plan,
    crashes, requeues) go on the grid's span, ``grid_span``."""

    def __init__(self, fn, kernel, context, policy, results, errored,
                 stats, cache, keys, tracer, grid_span, metrics,
                 point_hist, label):
        self.fn = fn
        self.kernel = kernel
        self.context = context
        self.policy = policy
        self.results = results
        self.errored = errored
        self.stats = stats
        self.cache = cache
        self.keys = keys
        self.unsaved = []
        self.tracer = tracer
        self.grid_span = grid_span
        self.metrics = metrics
        self.point_hist = point_hist
        self.label = label
        #: Hard failures that came back from pool workers, recorded --
        #: and raised -- only after every other chunk has landed.
        self.failed = []

    # -- recording -------------------------------------------------------------

    def _record_point(self, index, outcome):
        """Fold one finished point into the run state.

        Hard failures are re-raised here -- *after* the retry/timeout
        counters have counted them (and the point's span has recorded
        them), so an aborted run's stats and trace still tell the truth.
        """
        value, status, attempts, ntimeouts = outcome
        stats = self.stats
        stats.retries += attempts
        stats.timeouts += ntimeouts
        if status == "hard":
            raise value
        self.results[index] = value
        soft = status == "soft"
        if soft:
            self.errored.add(index)
        if self.cache is not None:
            self.unsaved.append(
                (self.keys[index], INFEASIBLE_MARKER if soft else value))

    def _record_shared(self, items, outcomes, elapsed, chunk_span=None):
        """Record the points of one kernel call or chunk; each point's
        latency is the call's wall-clock split evenly, since points are
        not timed individually inside it.  A chunk's points also get
        spans under ``chunk_span``, and its hard failures are deferred
        to :attr:`failed`."""
        share = round(elapsed / len(items), 6) if items else 0.0
        parent = getattr(chunk_span, "span_id", None)
        for (index, _), outcome in zip(items, outcomes):
            if chunk_span is not None:
                self.tracer.record("point", share, parent_id=parent,
                                   index=index, **_point_attrs(outcome))
            if self.point_hist is not None:
                self.point_hist.observe(share)
            if outcome[1] == "hard" and chunk_span is not None:
                self.failed.append((index, outcome))
                continue
            self._record_point(index, outcome)

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
        except Exception:
            self._run_serial(pending)

    def _run_serial(self, pending):
        tracer = self.tracer
        for index, point in pending:
            start = time.perf_counter()
            with tracer.span("point", announce=True, index=index) as span:
                outcome = _eval_point(self.fn, self.context, point,
                                      *self.policy, tracer)
                span.set(**_point_attrs(outcome))
            if self.point_hist is not None:
                self.point_hist.observe(time.perf_counter() - start)
            self._record_point(index, outcome)

    def _run_batch(self, pending):
        """All of ``pending`` through one kernel call, traced as one
        ``batch`` span carrying the call's ok/infeasible counts (or
        ``status="failed"`` and the error when the kernel raised)."""
        pts = [point for _, point in pending]
        start = time.perf_counter()
        with self.tracer.span("batch", label=self.label,
                              points=len(pts)) as span:
            try:
                outcomes = _kernel_outcomes(self.kernel, pts)
            except Exception as exc:
                span.set(status="failed", error=repr(exc))
                raise
            nsoft = sum(outcome[1] == "soft" for outcome in outcomes)
            span.set(status="ok", ok=len(pts) - nsoft, infeasible=nsoft)
        self._record_shared(pending, outcomes,
                            time.perf_counter() - start)
        _write(self.cache, self.unsaved)

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
        limit = MAX_INFLIGHT_PER_WORKER * nworkers
        self.grid_span.set(chunks=len(backlog), per_chunk=size, warm=warm,
                           method=pool.method, inflight_limit=limit)
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
                        self._split(chunk_id, items, submit_t, exc, ids,
                                    backlog, poisoned)
                        continue
                    self._record_chunk(chunk_id, items, outcomes, elapsed,
                                       submit_t, wait_hist, chunk_hist)
        except BrokenProcessPool:
            leftover = self._salvage(inflight, backlog, wait_hist,
                                     chunk_hist)
            self.stats.crashes += 1
            self.grid_span.set(crashes=1, inflight_peak=peak,
                               requeued=len(leftover) + len(poisoned))
            pool.restart()
            self._finish(poisoned)
            return leftover
        self.grid_span.set(inflight_peak=peak, requeued=len(poisoned))
        self._finish(poisoned)
        return []

    def _finish(self, poisoned):
        """Re-run the isolated points in-process, then raise the first
        deferred worker failure (after its span has recorded it)."""
        if poisoned:
            self._run_serial(sorted(poisoned))
        for index, outcome in sorted(self.failed, key=lambda f: f[0]):
            self._record_point(index, outcome)

    def _split(self, chunk_id, items, submit_t, exc, ids, backlog,
               poisoned):
        """A chunk raised: isolate a single point as poison, or bisect
        and put both halves at the front of the backlog.  Either way
        the chunk's span records it, timed from submission."""
        attrs = dict(chunk=chunk_id, points=len(items), error=repr(exc))
        if len(items) == 1:
            poisoned.append(items[0])
            attrs.update(status="poison", index=items[0][0])
        else:
            mid = len(items) // 2
            left, right = next(ids), next(ids)
            backlog.appendleft((right, items[mid:]))
            backlog.appendleft((left, items[:mid]))
            attrs.update(status="bisected", into=[left, right])
        self.tracer.record("chunk", time.perf_counter() - submit_t,
                           **attrs)

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
                                  points=len(items), status="ok",
                                  wait=round(wait_s, 6))
        if chunk_hist is not None:
            chunk_hist.observe(elapsed)
        if wait_hist is not None:
            wait_hist.observe(wait_s)
        self._record_shared(items, outcomes, elapsed, chunk_span=span)
        _write(self.cache, self.unsaved)

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
    and the evaluator a ``cache_key``, persisted like grid results: the
    points a search evaluated are written in one transaction when it
    leaves the evaluator's ``with`` block (or calls :meth:`flush`).
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
        self._key_of = None if self.cache is None \
            else self.cache.key_maker(cache_key)
        self.unsaved = []

    def __call__(self, point):
        # With a store the entry key doubles as the memo token.
        token = fingerprint(point) if self.cache is None \
            else self._key_of(point)
        self.stats.points += 1
        if token in self._memo:
            self.stats.cache_hits += 1
            return self._memo[token]
        if self.cache is not None:
            hit, value = self.cache.lookup(token)
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
        if self.cache is not None:
            self.unsaved.append((token, value))
        return value

    def flush(self):
        """Write the points evaluated since the last flush."""
        _write(self.cache, self.unsaved)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.flush()


class Runner:
    """One execution policy -- workers, cache, retries, tracer, stats --
    reused across runs.

    ``cache`` may be a :class:`~repro.runner.sqlite_store.SqliteStore`,
    the path of its database file, or ``None`` (no caching); ``tracer``
    a :class:`~repro.obs.trace.Tracer` shared by every run.
    ``retry_on`` / ``retries`` / ``backoff`` / ``timeout`` set the
    fault-tolerance policy every grid run under this runner inherits.
    ``pool`` may be a :class:`~repro.runner.pool.WorkerPool` whose warm
    workers serve every parallel grid (the runner does not own it --
    whoever built the pool closes it).  All grids and evaluators created
    through one runner accumulate into the same :class:`RunStats`, so a
    report can summarise a whole figure regeneration in one line.
    """

    def __init__(self, workers=None, cache=None, stats=None, retry_on=(),
                 retries=DEFAULT_RETRIES, backoff=DEFAULT_BACKOFF,
                 timeout=None, tracer=None, metrics=None, pool=None):
        self.workers = workers
        if isinstance(cache, (str, os.PathLike)):
            cache = open_store(cache)
        self.cache = cache
        self.stats = RunStats() if stats is None else stats
        self.retry_on = tuple(retry_on)
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
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
            timeout=self.timeout, label=label,
            kernel=kernel, tracer=self.tracer, metrics=self.metrics,
            pool=self.pool)

    def evaluator(self, fn, cache_key=None):
        """A :class:`CachedEvaluator` sharing this runner's cache/stats
        (a context manager: leaving it writes the search's points)."""
        return CachedEvaluator(fn, cache=self.cache, cache_key=cache_key,
                               stats=self.stats)

    def __repr__(self):
        return "Runner(workers={!r}, cache={!r})".format(
            self.workers, self.cache)
