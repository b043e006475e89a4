"""The ``repro serve`` job service: validation, dispatch, result store.

:class:`JobService` is the transport-independent core behind the HTTP
app (:mod:`repro.serve.app`): callers ``submit()`` jobs on the event
loop and await their futures.  A kernel whose cost the request caps
bound to a few milliseconds (behavioral distance, detect on a small
image) runs to completion inside ``submit()`` itself, where it costs
less than any hand-off; every other kernel is queued, and a small set
of dispatcher coroutines pops it off the
:class:`~repro.serve.admission.AdmissionQueue` and runs it in a thread
pool, so the loop keeps serving while it computes
(:func:`_runs_on_loop`).  Kernel fan-out rides the library's
persistent :class:`~repro.core.parallel.WorkerPool` -- one pool reused
across all requests -- whose rounds are serialized internally, so
concurrent jobs are safe and the pool's crash/timeout recovery (plus
the service's default retry budget) keeps a killed worker from failing
a request.

One submission takes at most one of these paths, in order:

1. **coalesce** -- an identical request (same workload fingerprint from
   :mod:`repro.core.cache`) is already queued or running on a kernel
   thread: join it as a follower and receive a copy of its result,
   zero additional executions (``serve.coalesced``).  Only queued jobs
   attract joins: a bounded job finishes inside ``submit()``, before
   anything could join it, and its twins replay it from the store;
2. **result store** -- the content-addressed
   :class:`~repro.core.cache.ResultCache` holds the answer (memory or
   disk tier, shared across tenants -- the fingerprint, not the tenant,
   addresses results): finish immediately (``serve.cache_hits``, plus
   the cache's own ``cache.hits``);
3. **run at submit** -- a bounded kernel runs on the calling thread and
   the job comes back finished: no queue slot, no quota unit;
4. **admit** -- enter the priority queue, subject to depth and tenant
   quota (:mod:`repro.serve.admission`).

Results are plain JSON documents, so they cache, coalesce, and ship
over HTTP identically.  Failures are never cached and never shared
beyond the followers of the failed execution.
"""

import asyncio
import concurrent.futures
import copy
import itertools
import time

import numpy as np

from ..core import cache as result_cache
from ..core import telemetry, tracing
from ..core.exceptions import (JobValidationError, ParallelError,
                               ReproError)
from ..core.parallel import resolve_workers
from ..core.resilience import resolve_retry
from .admission import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_PRIORITY,
    DEFAULT_TENANT_QUOTA,
    MAX_PRIORITY,
    MIN_PRIORITY,
    AdmissionQueue,
)
from .jobs import DONE, FAILED, RUNNING, JobTable

#: Request size caps -- admission control starts at validation: a
#: request the service would choke on is a 400, not a wedged worker.
MAX_DIMACS_CHARS = 200_000
#: Order finding for n needs 3 * bit_length(n - 1) qubits: at most 18
#: up to 64 (one attempt at n = 63 takes ~0.7 s on a 2-vCPU host),
#: while n = 65 needs 21 (one attempt took 11 s there) and n above 512
#: needs 30, a 16 GiB statevector.
MAX_FACTOR_N = 64
MAX_PAIRS_PER_REQUEST = 8192
MAX_IMAGE_PIXELS = 65_536
MAX_ATTEMPTS = 64
MAX_STEPS = 5_000_000

KINDS = ("solve", "factor", "distance", "detect")

#: Distinct tenants tracked individually in /v1/stats before new ones
#: fold into the "other" bucket, so a caller inventing tenant names
#: cannot grow the stats without bound.
MAX_STAT_TENANTS = 64


class ServeConfig:
    """Tunable knobs for one :class:`JobService`.

    Parameters
    ----------
    workers : int, "auto", or None
        Worker processes for each kernel's fan-out path (the shared
        persistent pool; see ``docs/parallelism.md``).
    timeout : float or None
        Per-chunk wall-clock budget handed to every kernel-thread job;
        must be positive.  It is enforced even at ``workers=1`` (the
        pool path kills a wedged chunk), which is exactly what a
        service needs.
    retries : int
        Attempts per failed chunk (the kernels' ``retry=``), at least
        1; the default 2 means one retry, so a crashed/killed worker
        recovers without caller involvement.
    cache : None, False, path, or ResultCache
        The multi-tenant result store: one entry per successful
        request, keyed by the request's fingerprint.  It is the only
        cache on the serve path -- the kernels run with ``cache=False``,
        so they write no entries of their own.  ``None`` (default) uses
        a fresh memory-only :class:`~repro.core.cache.ResultCache`;
        ``False`` disables result reuse entirely.  Give the store a
        disk budget via ``ResultCache(max_disk_bytes=...)`` or
        ``REPRO_CACHE_DISK_BYTES`` (see ``docs/caching.md``).
    queue_depth, tenant_quota : int
        Admission bounds (:mod:`repro.serve.admission`).
    job_concurrency : int
        Dispatcher coroutines / kernel threads running kernel-thread
        jobs at once.  A bounded job runs at submission and holds none
        of them.  Pool rounds are serialized internally, so this bounds
        queueing ahead of the pool, not parallelism inside it.

    ``workers``, ``timeout`` and ``retries`` apply to the jobs that run
    on a kernel thread; the few-millisecond kernels that run at
    submission take none of them (see :func:`_runs_on_loop`).
    """

    def __init__(self, workers=None, timeout=None, retries=2, cache=None,
                 queue_depth=DEFAULT_MAX_DEPTH,
                 tenant_quota=DEFAULT_TENANT_QUOTA, job_concurrency=2):
        # Workers, timeout and retries are checked here so a bad value
        # fails at startup rather than in every job.
        self.workers = resolve_workers(workers)
        if timeout is not None and not timeout > 0:
            raise ParallelError("timeout must be positive, got %r"
                                % (timeout,))
        self.timeout = timeout
        self.retries = int(retries)
        resolve_retry(self.retries)
        self.cache = cache
        self.queue_depth = int(queue_depth)
        self.tenant_quota = tenant_quota
        self.job_concurrency = max(1, int(job_concurrency))


# -- request validation -----------------------------------------------------

def _require(condition, message):
    if not condition:
        raise JobValidationError(message)


def _int_param(params, name, default, low, high):
    value = params.get(name, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             "%r must be an integer" % name)
    _require(low <= value <= high,
             "%r must be in [%d, %d], got %d" % (name, low, high, value))
    return value


def _numbers_only(values):
    """True when every item of ``values`` is an int or a float (no bool).

    Checks the set of types, so the per-value work is one ``type()``.
    """
    return all(issubclass(kind, (int, float)) and not issubclass(kind, bool)
               for kind in set(map(type, values)))


def _finite_floats(values, message):
    """``values`` (numbers already checked) as one float64 array.

    Raises :class:`JobValidationError` with ``message`` unless every
    value is finite: Python's ``json`` reads ``NaN`` and ``Infinity``,
    and an integer too large for a float raises ``OverflowError`` in
    the conversion.
    """
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise JobValidationError(message) from None
    _require(np.isfinite(array).all(), message)
    return array


def validate_request(kind, params):
    """Canonical parameters for ``(kind, params)``, or raise
    :class:`~repro.core.exceptions.JobValidationError`.

    The canonical form is what gets fingerprinted, so two requests that
    mean the same workload always share a cache key regardless of JSON
    spelling (e.g. ``2`` vs ``2.0`` intensities).  Intensities and the
    threshold must be finite, so no answer carries a NaN.  Pairs and
    images come back as lists of floats.
    """
    canonical = _validated(kind, params)
    for name in ("pairs", "image"):
        if name in canonical:
            canonical[name] = canonical[name].tolist()
    return canonical


def _validated(kind, params):
    """:func:`validate_request`'s canonical form, with the pairs or image
    kept as the one float64 array validation built, for the fingerprint
    and the kernel to share."""
    _require(kind in KINDS,
             "unknown job kind %r; expected one of %s" % (kind,
                                                          ", ".join(KINDS)))
    _require(isinstance(params, dict), "params must be an object")
    if kind == "solve":
        dimacs = params.get("dimacs")
        _require(isinstance(dimacs, str) and dimacs.strip(),
                 "'dimacs' must be a non-empty DIMACS CNF string")
        _require(len(dimacs) <= MAX_DIMACS_CHARS,
                 "'dimacs' exceeds %d characters" % MAX_DIMACS_CHARS)
        return {
            "dimacs": dimacs,
            "attempts": _int_param(params, "attempts", 4, 1, MAX_ATTEMPTS),
            "max_steps": _int_param(params, "max_steps", 500_000, 1,
                                    MAX_STEPS),
            "seed": _int_param(params, "seed", 0, 0, 2**63 - 1),
        }
    if kind == "factor":
        n = params.get("n")
        _require(isinstance(n, int) and not isinstance(n, bool),
                 "'n' must be an integer")
        _require(4 <= n <= MAX_FACTOR_N,
                 "'n' must be in [4, %d]" % MAX_FACTOR_N)
        return {"n": n,
                "seed": _int_param(params, "seed", 0, 0, 2**63 - 1)}
    if kind == "distance":
        pairs = params.get("pairs")
        _require(isinstance(pairs, list) and pairs,
                 "'pairs' must be a non-empty list of [a, b] pairs")
        _require(len(pairs) <= MAX_PAIRS_PER_REQUEST,
                 "'pairs' exceeds %d pairs" % MAX_PAIRS_PER_REQUEST)
        _require(all(isinstance(pair, (list, tuple)) and len(pair) == 2
                     for pair in pairs)
                 and _numbers_only(itertools.chain.from_iterable(pairs)),
                 "each pair must be [a, b] with numeric intensities")
        canonical = _finite_floats(
            pairs, "'pairs' intensities must be finite numbers")
        mode = params.get("mode", "behavioral")
        _require(mode in ("behavioral", "physical"),
                 "'mode' must be 'behavioral' or 'physical'")
        return {"pairs": canonical, "mode": mode}
    # detect
    image = params.get("image")
    _require(isinstance(image, list) and image
             and all(isinstance(row, list) and row for row in image),
             "'image' must be a non-empty 2-D list of intensities")
    width = len(image[0])
    _require(all(len(row) == width for row in image),
             "'image' rows must all have the same length")
    _require(len(image) * width <= MAX_IMAGE_PIXELS,
             "'image' exceeds %d pixels" % MAX_IMAGE_PIXELS)
    _require(_numbers_only(itertools.chain.from_iterable(image)),
             "'image' values must be numeric")
    canonical = _finite_floats(
        image, "'image' values must be finite numbers")
    threshold = params.get("threshold", 30.0)
    message = "'threshold' must be a positive, finite number"
    _require(_numbers_only([threshold])
             and _finite_floats(threshold, message) > 0, message)
    return {"image": canonical,
            "threshold": float(threshold),
            "n": _int_param(params, "n", 9, 1, 16)}


def _fingerprint_meta(kind, params):
    """Fingerprint meta of :func:`_validated` params: bulky payloads
    enter as content hashes.

    The pairs and image hash as the float64 arrays validation built, by
    their raw bytes (:func:`~repro.core.cache.array_fingerprint`), which
    also pins their shape.
    """
    meta = dict(params)
    if kind == "solve":
        meta["dimacs"] = result_cache.digest(params["dimacs"])
    elif kind == "distance":
        meta["pairs"] = result_cache.array_fingerprint(params["pairs"])
        meta["count"] = len(params["pairs"])
    elif kind == "detect":
        meta["image"] = result_cache.array_fingerprint(params["image"])
        meta["shape"] = list(params["image"].shape)
    return meta


# -- kernel runners ---------------------------------------------------------
#
# Every runner passes ``cache=False``: the service's result store already
# keeps each successful result under the request's fingerprint, and
# kernel-level entries keyed inside one request could serve no other.
# ``options`` are the kernel's ``workers``, ``timeout`` and ``retry``
# from the :class:`ServeConfig` for a job on a kernel thread, and none
# (the kernel's inline path) for a job run at submission.  The pairs and
# the image arrive as the float64 arrays :func:`_validated` built.


def _run_solve(params, options):
    from ..core.cnf import parse_dimacs
    from ..memcomputing.solver import solve_portfolio

    formula = parse_dimacs(params["dimacs"])
    portfolio = solve_portfolio(
        formula, attempts=params["attempts"], rng=params["seed"],
        cache=False, max_steps=params["max_steps"], **options)
    best = portfolio.best
    if best is None:
        raise ReproError("every portfolio member failed")
    assignment = None
    if best.satisfied:
        assignment = {str(var): bool(val)
                      for var, val in sorted(best.assignment.items())}
    return {"satisfied": bool(best.satisfied), "assignment": assignment,
            "steps": int(best.steps), "attempts": int(portfolio.attempts)}


def _run_factor(params, options):
    from ..quantum.algorithms.shor import shor_factor

    result = shor_factor(params["n"], rng=params["seed"], cache=False,
                         **options)
    factors = None
    if result.succeeded:
        factors = sorted(int(factor) for factor in result.factors)
    return {"n": params["n"], "succeeded": bool(result.succeeded),
            "factors": factors, "method": str(result.method)}


def _run_detect(params, options):
    from ..oscillators.fast.oscillator_fast import OscillatorFastDetector

    detector = OscillatorFastDetector(threshold=params["threshold"],
                                      n=params["n"])
    corners = detector.detect(params["image"], cache=False, **options)
    return {"corners": [[int(row), int(col)] for row, col in corners],
            "count": len(corners)}


def _run_distance(params, options):
    from ..oscillators.distance import OscillatorDistanceUnit

    unit = OscillatorDistanceUnit(mode=params["mode"])
    # measure_pairs already returns a list of Python floats.
    measures = unit.measure_pairs(params["pairs"], cache=False, **options)
    return {"measures": measures, "count": len(measures),
            "mode": params["mode"]}


_RUNNERS = {"solve": _run_solve, "factor": _run_factor,
            "detect": _run_detect, "distance": _run_distance}


def _runs_on_loop(job):
    """Whether ``job``'s kernel runs at submission, on the event loop.

    A job runs inside :meth:`JobService.submit` when its kernel is one
    chunk of an RNG-free kernel whose cost the request caps bound; every
    other job is queued for a kernel thread.  Measured on a 2-vCPU
    host: an empty ``run_in_executor`` round trip costs ~140 us, and
    with the GIL passing between the loop and the kernel threads the
    server spent ~1.5 ms of CPU per distance request (a ~25 us kernel)
    and 1.3-1.9 ms per 10x10 detect, against ~0.95 and 1.1-1.3 ms with
    those kernels on the loop.  Queued for a dispatcher coroutine
    rather than run at submission, a 64-pair distance request cost
    440-565 us in process instead of 269-358 us (its payload then also
    converted three times), and waited out a running solve whenever
    every dispatcher held one.  The loop stalls for as long as the
    kernel runs, so only bounded kernels qualify:

    * behavioral distance: ``measure_pairs`` inline, one
      ``measure_batch`` on at most :data:`MAX_PAIRS_PER_REQUEST` pairs
      (``MIN_CHUNK_PAIRS``, one chunk), ~2-4 ms at the cap, of the
      ~17-35 ms the whole 8,192-pair request holds the loop;
    * detect on at most ``MIN_CHUNK_PIXELS`` (1,024) interior pixels,
      one chunk: ~5-8 ms median for a 38x38 noise image, the slowest.

    Physical distance (~2.2 s per pair), larger detect (a 256x256
    image costs ~160 ms) and solve and factor (no cap bounds them) stay
    on kernel threads, where ``--workers``, ``--timeout`` and
    ``--retries`` bound them.  A loop-run kernel needs no retry (it
    reruns the same arithmetic in process) and no finite check (the
    validated inputs are finite, so are the answers).
    """
    if job.kind == "distance":
        return job.params["mode"] == "behavioral"
    if job.kind == "detect":
        from ..oscillators.fast.oscillator_fast import MIN_CHUNK_PIXELS

        rows, cols = job.params["image"].shape
        return max(0, rows - 6) * max(0, cols - 6) <= MIN_CHUNK_PIXELS
    return False


def _run_on_loop(job):
    """``job``'s result, computed on the calling thread
    (:func:`_runs_on_loop` holds for it) on the kernel's inline path."""
    return _RUNNERS[job.kind](job.params, {})


def _run_traced(trace_id, fn, *args):
    """Run ``fn`` under the request's trace id.

    ``run_in_executor`` does not copy the submitting task's context, so
    the id is re-installed explicitly; every span the kernel (and the
    worker pool beneath it) opens then carries the request's trace.
    """
    with tracing.use_trace(trace_id):
        return fn(*args)


class JobService:
    """The transport-independent core of ``repro serve``."""

    def __init__(self, config=None):
        self.config = config if config is not None else ServeConfig()
        self.table = JobTable()
        self.queue = AdmissionQueue(max_depth=self.config.queue_depth,
                                    tenant_quota=self.config.tenant_quota)
        # In-flight queued primaries by workload fingerprint; an
        # identical submission joins one instead of executing again.
        self._inflight = {}
        if self.config.cache is False:
            self.cache = None
        elif self.config.cache is None:
            self.cache = result_cache.ResultCache()
        else:
            self.cache = result_cache.resolve_cache(self.config.cache)
        # Plain-int mirrors of the serve.* telemetry (always on, so
        # /v1/stats and the benchmarks work without a live registry).
        self.requests = 0
        self.coalesced = 0
        self.cache_hits = 0
        # Always 0 -- no job rides along in another job's execution --
        # and kept because /v1/stats clients read the field.
        self.batched = 0
        self.executions = 0
        self.completed = 0
        self.failed = 0
        # Per-tenant mirrors for /v1/stats: past MAX_STAT_TENANTS
        # distinct tenants, new ones fold into the "other" bucket.
        self.tenant_stats = {}
        self._kernel_options = {"workers": self.config.workers,
                                "timeout": self.config.timeout,
                                "retry": self.config.retries}
        self._dispatchers = []
        self._executor = None
        self._own_registry = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Install instruments, start the dispatcher coroutines."""
        if self._dispatchers:
            return
        if not telemetry.enabled():
            # The service is long-running and its observability
            # endpoints need numbers, so it installs its own registry
            # when the embedding process left telemetry off.
            self._own_registry = telemetry.MetricsRegistry()
            telemetry.set_registry(self._own_registry)
        loop = asyncio.get_running_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.job_concurrency,
            thread_name_prefix="repro-serve")
        self._dispatchers = [loop.create_task(self._dispatch_loop())
                             for _ in range(self.config.job_concurrency)]

    async def close(self):
        """Stop dispatching; running kernels finish, queued jobs fail."""
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        while self.queue.depth:
            job = await self.queue.pop()    # does not wait: depth > 0
            self._fail(job, ReproError("service shut down"))
            self._release(job)
        if self._own_registry is not None \
                and telemetry.get_registry() is self._own_registry:
            telemetry.set_registry(None)
            self._own_registry = None

    # -- submission (event-loop side) --------------------------------------

    def submit(self, kind, params, tenant="anon", priority=None,
               trace_id=None):
        """Accept one request; returns its :class:`Job`.

        A job whose kernel is bounded (:func:`_runs_on_loop`) runs here,
        on the calling thread, and comes back finished -- done, or
        failed with the kernel's error -- as do store hits; any other
        job comes back queued or, joined to an identical one, coalesced.
        Raises :class:`~repro.core.exceptions.JobValidationError` (bad
        request), :class:`~repro.core.exceptions.QueueFullError`, or
        :class:`~repro.core.exceptions.QuotaError` (backpressure).
        Must be called on the service's event loop.  ``trace_id`` is
        the request's end-to-end trace identity (the HTTP layer mints
        one per request); when absent the service mints its own, so
        every job always has one.
        """
        if priority is None:
            priority = DEFAULT_PRIORITY
        if not (isinstance(priority, int) and not isinstance(priority, bool)
                and MIN_PRIORITY <= priority <= MAX_PRIORITY):
            raise JobValidationError(
                "'priority' must be an integer in [%d, %d]"
                % (MIN_PRIORITY, MAX_PRIORITY))
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise JobValidationError(
                "'tenant' must be a non-empty string of <= 64 characters")
        params = _validated(kind, params)
        if trace_id is None:
            trace_id = tracing.new_trace_id()
        registry = telemetry.get_registry()
        self.requests += 1
        self._tenant_bucket(tenant)["requests"] += 1
        if registry.enabled:
            registry.counter("serve.requests").inc()
            registry.counter("serve.requests.%s" % kind).inc()
        with tracing.use_trace(trace_id), \
                telemetry.span("cache.fingerprint", kind="serve.%s" % kind):
            doc = result_cache.fingerprint("serve.%s" % kind,
                                           _fingerprint_meta(kind, params))
            key = result_cache.cache_key(doc)
        job = self.table.create(kind, params, tenant, priority, key, doc,
                                trace_id=trace_id)
        job.future = asyncio.get_event_loop().create_future()

        # submit() is synchronous on the event loop, so a real stack
        # span is safe here (it cannot interleave with another task's).
        with tracing.use_trace(trace_id), \
                telemetry.span("serve.admission", job=job.id, kind=kind,
                               tenant=tenant) as admission:
            primary = self._inflight.get(key)
            if primary is not None and not primary.finished:
                # The follower keeps the primary's trace id, so a request
                # that never executed still points at the trace that did.
                job.coalesced_with = primary.id
                job.joined_trace = primary.trace_id
                primary.followers.append(job)
                self.coalesced += 1
                self._tenant_bucket(tenant)["coalesced"] += 1
                if registry.enabled:
                    registry.counter("serve.coalesced").inc()
                    telemetry.event("serve.coalesce", job=job.id,
                                    primary=primary.id,
                                    primary_trace=primary.trace_id)
                if admission:
                    admission.set_attr("outcome", "coalesced")
                return job

            if self.cache is not None:
                hit, value = self.cache.lookup(key, doc)
                if hit:
                    job.cached = True
                    self.cache_hits += 1
                    self._tenant_bucket(tenant)["cache_hits"] += 1
                    if registry.enabled:
                        registry.counter("serve.cache_hits").inc()
                    self._settle(job, DONE, result=value)
                    self.table.prune()
                    if admission:
                        admission.set_attr("outcome", "cache_hit")
                    return job

            # A bounded job finishes before anything could join it, so it
            # takes no queue slot, no quota unit and no in-flight entry.
            inline = _runs_on_loop(job)
            if not inline:
                try:
                    self.queue.push(job)
                except ReproError:
                    self.table.drop(job.id)
                    if admission:
                        admission.set_attr("outcome", "rejected")
                    raise
                self._inflight[key] = job
            if admission:
                admission.set_attr("outcome",
                                   "inline" if inline else "queued")
        if inline:
            start = self._begin(job)
            try:
                result = _run_traced(job.trace_id, _run_on_loop, job)
            except Exception as error:  # noqa: BLE001 -- the job absorbs it
                self._end(job, start, error=error)
            else:
                self._end(job, start, result=result)
        return job

    # -- dispatch (event loop and kernel threads) --------------------------

    async def _dispatch_loop(self):
        """Run queued jobs, one at a time, on a kernel thread."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.pop()
            start = self._begin(job)
            try:
                result = await loop.run_in_executor(
                    self._executor, _run_traced, job.trace_id,
                    _RUNNERS[job.kind], job.params, self._kernel_options)
            except asyncio.CancelledError:
                self._fail(job, ReproError("service shut down"))
                self._release(job)
                raise
            except Exception as error:  # noqa: BLE001 -- jobs absorb it
                self._end(job, start, error=error)
            else:
                self._end(job, start, result=result)
            self._release(job)

    def _begin(self, job):
        """Mark ``job`` running and count its execution; returns the
        ``(wall, perf)`` start of its dispatch span."""
        job.state = RUNNING
        job.started_at = time.monotonic()
        self.executions += 1
        self._tenant_bucket(job.tenant)["executions"] += 1
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter("serve.executions").inc()
        return time.time(), time.perf_counter()

    def _end(self, job, start, result=None, error=None):
        """Settle ``job`` from its run, emit its dispatch span, prune."""
        if error is None:
            self._finish(job, result)
        else:
            self._fail(job, error)
        registry = telemetry.get_registry()
        if registry.enabled:
            self._emit_dispatch_span(registry, job,
                                     "ok" if error is None else "error",
                                     start)
        self.table.prune()

    def _release(self, job):
        """A queued job left the service: stop attracting joins to it
        and return its tenant's quota unit."""
        self._inflight.pop(job.key, None)
        self.queue.release(job.tenant)

    def _emit_dispatch_span(self, registry, job, status, start):
        """Span event for one execution, under the job's trace.

        Built by hand rather than with a stack span: a kernel-thread
        dispatch straddles an ``await``, so other tasks' spans could
        interleave with a real per-thread span stack.
        """
        start_ts, start_perf = start
        duration = time.perf_counter() - start_perf
        registry.histogram("serve.dispatch.seconds").observe(duration)
        event = {
            "type": "span",
            "name": "serve.dispatch",
            "ts": start_ts,
            "duration_s": duration,
            "depth": 0,
            "parent": None,
            "status": status,
            "attrs": {"job": job.id, "kind": job.kind, "jobs": 1},
        }
        if job.trace_id is not None:
            event["trace"] = job.trace_id
        registry.emit(event)

    # -- completion --------------------------------------------------------

    def _finish(self, job, result):
        if self.cache is not None:
            with tracing.use_trace(job.trace_id):
                self.cache.store(job.key, job.doc, result)
        self._settle(job, DONE, result=result)
        for follower in job.followers:
            self._settle(follower, DONE, result=copy.deepcopy(result))

    def _fail(self, job, error):
        detail = "%s: %s" % (type(error).__name__, error)
        self._settle(job, FAILED, error=detail)
        for follower in job.followers:
            self._settle(follower, FAILED, error=detail)

    def _settle(self, job, state, result=None, error=None):
        registry = telemetry.get_registry()
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.monotonic()
        self.table.mark_finished(job)
        if state == DONE:
            self.completed += 1
            self._tenant_bucket(job.tenant)["completed"] += 1
            if registry.enabled:
                registry.counter("serve.completed").inc()
        else:
            self.failed += 1
            self._tenant_bucket(job.tenant)["failed"] += 1
            if registry.enabled:
                registry.counter("serve.failures").inc()
        if registry.enabled:
            latency = job.finished_at - job.submitted_at
            registry.histogram("serve.latency_seconds").observe(latency)
            registry.histogram(
                "serve.latency.%s" % job.kind).observe(latency)
        if job.future is not None and not job.future.done():
            job.future.set_result(job)

    # -- introspection -----------------------------------------------------

    def _tenant_bucket(self, tenant):
        """The per-tenant stats dict, folding past the cardinality cap."""
        bucket = self.tenant_stats.get(tenant)
        if bucket is None:
            if len(self.tenant_stats) >= MAX_STAT_TENANTS \
                    and tenant != "other":
                return self._tenant_bucket("other")
            bucket = self.tenant_stats[tenant] = {
                "requests": 0, "coalesced": 0, "cache_hits": 0,
                "executions": 0, "completed": 0, "failed": 0,
            }
        return bucket

    def stats(self):
        """JSON-able service statistics (the /v1/stats body)."""
        executed = max(1, self.executions)
        return {
            "requests": self.requests,
            "executions": self.executions,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "batched": self.batched,
            "completed": self.completed,
            "failed": self.failed,
            "queue_depth": self.queue.depth,
            "jobs": self.table.stats(),
            "coalesce_ratio": (self.coalesced + self.cache_hits)
            / max(1, self.requests),
            "requests_per_execution": self.requests / executed,
            "tenants": {tenant: dict(bucket)
                        for tenant, bucket
                        in sorted(self.tenant_stats.items())},
        }
