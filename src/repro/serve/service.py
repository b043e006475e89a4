"""The ``repro serve`` job service: validation, dispatch, result store.

:class:`JobService` is the transport-independent core behind the HTTP
app (:mod:`repro.serve.app`): callers ``submit()`` jobs on the event
loop and await their futures; a small set of dispatcher coroutines pops
admitted jobs off the :class:`~repro.serve.admission.AdmissionQueue`
and runs the kernels in a thread pool, so the loop keeps serving while
kernels compute.  Kernel fan-out rides the library's persistent
:class:`~repro.core.parallel.WorkerPool` -- one pool reused across all
requests -- whose rounds are serialized internally, so concurrent jobs
are safe and the pool's crash/timeout recovery (plus the service's
default retry budget) keeps a killed worker from failing a request.

One submission takes at most one of these paths, in order:

1. **coalesce** -- an identical request (same workload fingerprint from
   :mod:`repro.core.cache`) is already in flight: join it as a
   follower, zero additional executions (``serve.coalesced``);
2. **result store** -- the content-addressed
   :class:`~repro.core.cache.ResultCache` holds the answer (memory or
   disk tier, shared across tenants -- the fingerprint, not the tenant,
   addresses results): finish immediately (``serve.cache_hits``, plus
   the cache's own ``cache.hits``);
3. **admit** -- enter the priority queue, subject to depth and tenant
   quota (:mod:`repro.serve.admission`); compatible queued distance
   jobs may later merge into one vectorized call
   (:mod:`repro.serve.coalesce`).

Results are plain JSON documents, so they cache, coalesce, and ship
over HTTP identically.  Failures are never cached and never shared
beyond the followers of the failed execution.
"""

import asyncio
import concurrent.futures
import copy
import time

import numpy as np

from ..core import cache as result_cache
from ..core import telemetry, tracing
from ..core.exceptions import (JobValidationError, ParallelError,
                               ReproError)
from ..core.parallel import resolve_workers
from ..core.resilience import resolve_retry
from . import slo as slo_module
from . import jobs as jobs_module
from .admission import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_PRIORITY,
    DEFAULT_TENANT_QUOTA,
    MAX_PRIORITY,
    MIN_PRIORITY,
    AdmissionQueue,
)
from .coalesce import Coalescer, DistanceBatcher
from .jobs import DONE, FAILED, RUNNING, JobTable

#: Request size caps -- admission control starts at validation: a
#: request the service would choke on is a 400, not a wedged worker.
MAX_DIMACS_CHARS = 200_000
MAX_FACTOR_N = 1_000_000
MAX_PAIRS_PER_REQUEST = 8192
MAX_IMAGE_PIXELS = 65_536
MAX_ATTEMPTS = 64
MAX_STEPS = 5_000_000

KINDS = ("solve", "factor", "distance", "detect")

#: Distinct tenants tracked individually in /v1/stats before new ones
#: fold into the "other" bucket (mirrors telemetry.MAX_LABEL_SETS).
MAX_STAT_TENANTS = 64


class ServeConfig:
    """Tunable knobs for one :class:`JobService`.

    Parameters
    ----------
    workers : int, "auto", or None
        Worker processes for each kernel's fan-out path (the shared
        persistent pool; see ``docs/parallelism.md``).
    timeout : float or None
        Per-chunk wall-clock budget handed to every kernel; must be
        positive.  It is enforced even at ``workers=1`` (the pool path
        kills a wedged chunk), which is exactly what a service needs.
    retries : int
        Attempts per failed chunk (the kernels' ``retry=``), at least
        1; the default 2 means one retry, so a crashed/killed worker
        recovers without caller involvement.
    cache : None, False, path, or ResultCache
        The multi-tenant result store: one entry per successful
        request, keyed by the request's fingerprint.  It is the only
        cache on the serve path -- the kernels run with ``cache=False``,
        so they write no entries of their own.  ``None`` (default) uses
        the active cache (``REPRO_CACHE_DIR``) or, when there is none, a
        fresh memory-only :class:`~repro.core.cache.ResultCache`;
        ``False`` disables result reuse entirely.  Give the store a
        disk budget via ``ResultCache(max_disk_bytes=...)`` or
        ``REPRO_CACHE_DISK_BYTES`` (see ``docs/caching.md``).
    queue_depth, tenant_quota : int
        Admission bounds (:mod:`repro.serve.admission`).
    batch_pairs : int
        Budget for merging compatible distance jobs into one vectorized
        call (:class:`~repro.serve.coalesce.DistanceBatcher`).
    job_concurrency : int
        Dispatcher coroutines / kernel threads running jobs at once.
        Pool rounds are serialized internally, so this bounds queueing
        ahead of the pool, not parallelism inside it.
    retention : int
        Finished jobs kept for status polling.
    slo : None, path, or SloSpec
        Declarative latency/error objectives (:mod:`repro.serve.slo`);
        a path is loaded eagerly so a bad spec fails at startup, not at
        the first ``GET /v1/slo``.
    flight_dir : None or path
        Directory for flight-recorder dumps: a bounded ring of recent
        trace events written out when a job fails or a pool worker is
        restarted (:class:`repro.core.tracing.FlightRecorder`).
    flight_events : int
        Ring capacity for the flight recorder.
    """

    def __init__(self, workers=None, timeout=None, retries=2, cache=None,
                 queue_depth=DEFAULT_MAX_DEPTH,
                 tenant_quota=DEFAULT_TENANT_QUOTA,
                 batch_pairs=4096, job_concurrency=2,
                 retention=jobs_module.DEFAULT_RETENTION,
                 slo=None, flight_dir=None, flight_events=256):
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
        self.batch_pairs = int(batch_pairs)
        self.job_concurrency = max(1, int(job_concurrency))
        self.retention = int(retention)
        if isinstance(slo, (str, bytes)):
            slo = slo_module.load_slo(slo)
        self.slo = slo
        self.flight_dir = flight_dir
        self.flight_events = int(flight_events)


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


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_request(kind, params):
    """Canonical parameters for ``(kind, params)``, or raise
    :class:`~repro.core.exceptions.JobValidationError`.

    The canonical form is what gets fingerprinted, so two requests that
    mean the same workload always share a cache key regardless of JSON
    spelling (e.g. ``2`` vs ``2.0`` intensities).
    """
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
        canonical = []
        for pair in pairs:
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2
                     and all(_number(v) for v in pair),
                     "each pair must be [a, b] with numeric intensities")
            canonical.append([float(pair[0]), float(pair[1])])
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
    _require(all(_number(value) for row in image for value in row),
             "'image' values must be numeric")
    threshold = params.get("threshold", 30.0)
    _require(_number(threshold) and threshold > 0,
             "'threshold' must be a positive number")
    return {"image": [[float(v) for v in row] for row in image],
            "threshold": float(threshold),
            "n": _int_param(params, "n", 9, 1, 16)}


def _fingerprint_meta(kind, params):
    """Fingerprint meta: bulky payloads enter as content hashes.

    The canonical pairs and image hash as float64 arrays by their raw
    bytes (:func:`~repro.core.cache.array_fingerprint`), which also
    pins their shape.
    """
    meta = dict(params)
    if kind == "solve":
        meta["dimacs"] = result_cache.digest(params["dimacs"])
    elif kind == "distance":
        meta["pairs"] = result_cache.array_fingerprint(
            np.asarray(params["pairs"], dtype=float))
        meta["count"] = len(params["pairs"])
    elif kind == "detect":
        meta["image"] = result_cache.array_fingerprint(
            np.asarray(params["image"], dtype=float))
        meta["shape"] = [len(params["image"]), len(params["image"][0])]
    return meta


# -- kernel runners (executed on the service's thread pool) -----------------
#
# Every runner passes ``cache=False``: the service's result store already
# keeps each successful result under the request's fingerprint, and
# kernel-level entries keyed inside one request could serve no other.

def _run_solve(params, config):
    from ..core.cnf import parse_dimacs
    from ..memcomputing.solver import solve_portfolio

    formula = parse_dimacs(params["dimacs"])
    portfolio = solve_portfolio(
        formula, attempts=params["attempts"], rng=params["seed"],
        workers=config.workers, timeout=config.timeout,
        retry=config.retries, cache=False, max_steps=params["max_steps"])
    best = portfolio.best
    if best is None:
        raise ReproError("every portfolio member failed")
    assignment = None
    if best.satisfied:
        assignment = {str(var): bool(val)
                      for var, val in sorted(best.assignment.items())}
    return {"satisfied": bool(best.satisfied), "assignment": assignment,
            "steps": int(best.steps), "attempts": int(portfolio.attempts)}


def _run_factor(params, config):
    from ..quantum.algorithms.shor import shor_factor

    result = shor_factor(params["n"], rng=params["seed"],
                         workers=config.workers, timeout=config.timeout,
                         retry=config.retries, cache=False)
    factors = None
    if result.succeeded:
        factors = sorted(int(factor) for factor in result.factors)
    return {"n": params["n"], "succeeded": bool(result.succeeded),
            "factors": factors, "method": str(result.method)}


def _run_detect(params, config):
    from ..oscillators.fast.oscillator_fast import OscillatorFastDetector

    image = np.asarray(params["image"], dtype=float)
    detector = OscillatorFastDetector(threshold=params["threshold"],
                                      n=params["n"])
    corners = detector.detect(image, workers=config.workers,
                              timeout=config.timeout,
                              retry=config.retries, cache=False)
    return {"corners": [[int(row), int(col)] for row, col in corners],
            "count": len(corners)}


def _run_distance_single(params, config):
    from ..oscillators.distance import OscillatorDistanceUnit

    unit = OscillatorDistanceUnit(mode=params["mode"])
    measures = unit.measure_pairs(
        params["pairs"], workers=config.workers, timeout=config.timeout,
        retry=config.retries, cache=False)
    return {"measures": [float(value) for value in measures],
            "count": len(measures), "mode": params["mode"]}


def _run_distance_batch(mode, pair_lists):
    """One vectorized ``measure_batch`` call covering every job's pairs.

    Bit-identical to per-job evaluation (the PR 7 equivalence tier
    guarantees ``measure_batch == measure`` element-wise), so batching
    never changes results -- only how many kernel invocations happen.
    """
    from ..oscillators.distance import OscillatorDistanceUnit

    unit = OscillatorDistanceUnit(mode=mode)
    flat = np.asarray([pair for pairs in pair_lists for pair in pairs],
                      dtype=float).reshape(-1, 2)
    values = unit.measure_batch(flat[:, 0], flat[:, 1])
    results, offset = [], 0
    for pairs in pair_lists:
        block = values[offset:offset + len(pairs)]
        results.append({"measures": [float(value) for value in block],
                        "count": len(pairs), "mode": mode})
        offset += len(pairs)
    return results


_RUNNERS = {"solve": _run_solve, "factor": _run_factor,
            "detect": _run_detect, "distance": _run_distance_single}


def _run_traced(trace_id, fn, *args):
    """Run ``fn`` on an executor thread under the request's trace id.

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
        self.table = JobTable(retention=self.config.retention)
        self.queue = AdmissionQueue(max_depth=self.config.queue_depth,
                                    tenant_quota=self.config.tenant_quota)
        self.coalescer = Coalescer()
        self.batcher = DistanceBatcher(max_pairs=self.config.batch_pairs)
        if self.config.cache is False:
            self.cache = None
        else:
            self.cache = result_cache.resolve_cache(self.config.cache)
            if self.cache is None:
                self.cache = result_cache.ResultCache()
        # Plain-int mirrors of the serve.* telemetry (always on, so
        # /v1/stats and the benchmarks work without a live registry).
        self.requests = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.batched = 0
        self.executions = 0
        self.completed = 0
        self.failed = 0
        # Per-tenant mirrors for /v1/stats, bounded like the label
        # cardinality cap: past MAX_STAT_TENANTS distinct tenants, new
        # ones fold into the "other" bucket.
        self.tenant_stats = {}
        self._dispatchers = []
        self._executor = None
        self._own_registry = None
        self._flight = None
        # History backing windowed SLO burn rates (only kept when some
        # objective actually declares a window).
        self._slo_window = None
        if self.config.slo is not None and any(
                objective.window_s is not None
                for objective in self.config.slo.objectives):
            self._slo_window = slo_module.SnapshotWindow()
        self._closing = False

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
        registry = telemetry.get_registry()
        if self.config.flight_dir and registry.enabled \
                and hasattr(registry, "add_sink"):
            self._flight = tracing.FlightRecorder(
                self.config.flight_dir,
                capacity=self.config.flight_events)
            registry.add_sink(self._flight)
        self._closing = False
        loop = asyncio.get_running_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.job_concurrency,
            thread_name_prefix="repro-serve")
        self._dispatchers = [loop.create_task(self._dispatch_loop())
                             for _ in range(self.config.job_concurrency)]

    async def close(self):
        """Stop dispatching; running kernels finish, queued jobs fail."""
        self._closing = True
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        while self.queue.depth:
            job = self.queue.take_matching(lambda _job: True, 1)[0]
            self._fail(job, ReproError("service shut down"))
        if self._flight is not None:
            registry = telemetry.get_registry()
            if hasattr(registry, "remove_sink"):
                registry.remove_sink(self._flight)
            self._flight = None
        if self._own_registry is not None \
                and telemetry.get_registry() is self._own_registry:
            telemetry.set_registry(None)
            self._own_registry = None

    # -- submission (event-loop side) --------------------------------------

    def submit(self, kind, params, tenant="anon", priority=None,
               trace_id=None):
        """Accept one request; returns its :class:`Job`.

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
        params = validate_request(kind, params)
        if trace_id is None:
            trace_id = tracing.new_trace_id()
        registry = telemetry.get_registry()
        labels = {"tenant": tenant, "kind": kind}
        self.requests += 1
        self._tenant_bucket(tenant)["requests"] += 1
        if registry.enabled:
            registry.counter("serve.requests").inc()
            registry.counter("serve.requests.%s" % kind).inc()
            registry.counter("serve.requests", labels=labels).inc()
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
            primary = self.coalescer.primary_for(key)
            if primary is not None and not primary.finished:
                self.coalescer.join(primary, job)
                self.coalesced += 1
                self._tenant_bucket(tenant)["coalesced"] += 1
                if registry.enabled:
                    registry.counter("serve.coalesced").inc()
                    registry.counter("serve.coalesced", labels=labels).inc()
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
                        registry.counter("serve.cache_hits",
                                         labels=labels).inc()
                    self._settle(job, DONE, result=value)
                    self.table.prune()
                    if admission:
                        admission.set_attr("outcome", "cache_hit")
                    return job

            try:
                self.queue.push(job)
            except ReproError:
                self.table.drop(job.id)
                if admission:
                    admission.set_attr("outcome", "rejected")
                raise
            self.coalescer.register(key, job)
            if admission:
                admission.set_attr("outcome", "queued")
            return job

    # -- dispatch (event-loop + thread-pool side) --------------------------

    async def _dispatch_loop(self):
        loop = asyncio.get_running_loop()
        while True:
            lead = await self.queue.pop()
            batch = self.batcher.gather(lead, self.queue)
            registry = telemetry.get_registry()
            if len(batch) > 1:
                self.batched += len(batch) - 1
                if registry.enabled:
                    registry.counter("serve.batched").inc(len(batch) - 1)
                    registry.histogram("serve.batch_pairs").observe(
                        sum(len(job.params["pairs"]) for job in batch))
                for rider in batch[1:]:
                    # The lead's trace is the one that executes; riders
                    # keep their own id but record whose ride they took.
                    rider.joined_trace = lead.trace_id
                    self._tenant_bucket(rider.tenant)["batched"] += 1
                    if registry.enabled:
                        registry.counter(
                            "serve.batched",
                            labels={"tenant": rider.tenant,
                                    "kind": rider.kind}).inc()
            for job in batch:
                job.state = RUNNING
                job.started_at = time.monotonic()
            self.executions += 1
            self._tenant_bucket(lead.tenant)["executions"] += 1
            if registry.enabled:
                registry.counter("serve.executions").inc()
                registry.counter("serve.executions",
                                 labels={"tenant": lead.tenant,
                                         "kind": lead.kind}).inc()
            dispatch_start = (time.time(), time.perf_counter())
            status = "ok"
            try:
                if len(batch) > 1:
                    results = await loop.run_in_executor(
                        self._executor, _run_traced, lead.trace_id,
                        _run_distance_batch, lead.params["mode"],
                        [job.params["pairs"] for job in batch])
                else:
                    results = [await loop.run_in_executor(
                        self._executor, _run_traced, lead.trace_id,
                        _RUNNERS[lead.kind], lead.params, self.config)]
            except asyncio.CancelledError:
                for job in batch:
                    self._fail(job, ReproError("service shut down"))
                raise
            except Exception as error:  # noqa: BLE001 -- jobs absorb it
                status = "error"
                for job in batch:
                    self._fail(job, error)
            else:
                for job, result in zip(batch, results):
                    self._finish(job, result)
            if registry.enabled:
                self._emit_dispatch_span(registry, lead, batch, status,
                                         dispatch_start)
            self.table.prune()

    def _emit_dispatch_span(self, registry, lead, batch, status, start):
        """Span event for one dispatch, under the lead job's trace.

        Built by hand rather than with a stack span: the dispatch
        straddles an ``await``, so other tasks' spans could interleave
        with a real per-thread span stack.
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
            "attrs": {"job": lead.id, "kind": lead.kind,
                      "jobs": len(batch)},
        }
        if lead.trace_id is not None:
            event["trace"] = lead.trace_id
        registry.emit(event)

    # -- completion --------------------------------------------------------

    def _finish(self, job, result):
        if self.cache is not None:
            with tracing.use_trace(job.trace_id):
                self.cache.store(job.key, job.doc, result)
        self._settle(job, DONE, result=result)
        for follower in job.followers:
            self._settle(follower, DONE, result=copy.deepcopy(result))
        self.coalescer.resolve(job.key)
        self.queue.release(job.tenant)

    def _fail(self, job, error):
        detail = "%s: %s" % (type(error).__name__, error)
        self._settle(job, FAILED, error=detail)
        for follower in job.followers:
            self._settle(follower, FAILED, error=detail)
        self.coalescer.resolve(job.key)
        self.queue.release(job.tenant)
        if self._flight is not None and not self._closing:
            self._flight.dump("job-failed-%s" % job.id)

    def _settle(self, job, state, result=None, error=None):
        registry = telemetry.get_registry()
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.monotonic()
        outcome = "ok" if state == DONE else "error"
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
            registry.counter("serve.outcomes",
                             labels={"tenant": job.tenant,
                                     "kind": job.kind,
                                     "outcome": outcome}).inc()
            latency = job.finished_at - job.submitted_at
            registry.histogram("serve.latency_seconds").observe(latency)
            registry.histogram(
                "serve.latency.%s" % job.kind).observe(latency)
            registry.histogram("serve.latency_seconds",
                               labels={"tenant": job.tenant,
                                       "kind": job.kind}).observe(latency)
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
                "batched": 0, "executions": 0, "completed": 0,
                "failed": 0,
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
            "coalesce_ratio": (self.coalesced + self.cache_hits
                               + self.batched) / max(1, self.requests),
            "requests_per_execution": self.requests / executed,
            "tenants": {tenant: dict(bucket)
                        for tenant, bucket
                        in sorted(self.tenant_stats.items())},
        }

    def slo_report(self):
        """Burn-rate report of the configured SLO spec (the /v1/slo body).

        Without a spec the report is trivially ok, with a note saying
        how to load one.
        """
        if self.config.slo is None:
            return {"ok": True, "objectives": [],
                    "counts": {"total": 0, "breached": 0},
                    "note": "no SLO spec loaded; start with --slo PATH"}
        snapshot = telemetry.get_registry().snapshot()
        report = slo_module.evaluate(self.config.slo, snapshot,
                                     window=self._slo_window)
        if self._slo_window is not None:
            # Recorded after evaluating: this poll's snapshot becomes a
            # candidate baseline for future windows, not its own.
            self._slo_window.record(snapshot)
        return report
